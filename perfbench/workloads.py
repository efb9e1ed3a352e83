"""The benchmark's workloads: builtin corpus campaigns merged and shuffled.

Each workload is one `Campaign` built from campaigns of
`arcdet.harness.builtin_corpus()`. Task names are prefixed with their source
campaign ("<campaign>/<task>"), so cell names are unique across a workload.
The seed permutes the task order, which is what a campaign-scoped cache is
sensitive to; it never changes what a task computes.
"""

from __future__ import annotations

import random

WORKLOADS = {
    "strata": ("stratification-generic-2x2",),
    "fiber": ("fiber-formula-grid",),
    "cone": ("cone-comparison-basic",),
    "thresholds": (
        "lct-known-values",
        "corollary-generic-2x2",
        "corollary-diag-x1x1",
        "configuration-triangle",
    ),
}


def build_campaign(workload, seed, corpus=None):
    """The workload's campaign, with its task order permuted by ``seed``."""
    from arcdet.harness import Campaign, Task, builtin_corpus

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    corpus = builtin_corpus() if corpus is None else corpus
    inputs = {}
    tasks = []
    for source in WORKLOADS[workload]:
        campaign = corpus[source]
        for name, value in campaign.inputs:
            if name in inputs and inputs[name] != value:
                raise ValueError(f"input {name!r} differs between merged campaigns")
            inputs[name] = value
        for task in campaign.tasks:
            tasks.append(Task(name=f"{source}/{task.name}", kind=task.kind, params=task.params))
    random.Random(f"perfbench:{workload}:{seed}").shuffle(tasks)
    return Campaign.make(f"perfbench-{workload}", inputs, tasks)

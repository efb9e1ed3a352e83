"""Every module-level function, class, method and assigned name in the
package is used, and no package module imports a name it never reads.

A definition counts as used when its name occurs as a name token of code,
not in a comment or a string, somewhere in ``src/`` or ``tests/`` outside
its own definition (its header and body, or the whole assignment
statement of a module-level name); before Python 3.12 an f-string is
one string token, so a name inside its braces does not count.  The check is
by name only: two definitions of the same name vouch for each other only
through real uses, never through their ``def`` lines.  Dunder methods are
called by the interpreter and are not checked.  ``__init__.py`` imports
names to re-export them, so its imports are not checked.

The README names nothing that is gone: every inline code span of it that
is an identifier, a dotted path or a call, and whose name (the last
component, or the callee) has an inner underscore, occurs in the package
as a name token of code or as a word of a string.
"""

import ast
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, first line, last line) of module-level defs, classes, methods
    and names that a module-level assignment binds."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno
            continue
        if not isinstance(node, kinds):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno, item.end_lineno


def _name_uses(files):
    """Name -> (path, line) of each of its name tokens in ``files``, leaving
    out the names that ``def`` and ``class`` lines define."""
    uses = defaultdict(list)
    for path in files:
        with path.open("rb") as fh:
            previous = None
            for token in tokenize.tokenize(fh.readline):
                if token.type == tokenize.NAME and previous not in ("def", "class"):
                    uses[token.string].append((path, token.start[0]))
                previous = token.string
    return uses


def _unused_definitions(root):
    package = sorted((root / "src" / "arcdet").rglob("*.py"))
    uses = _name_uses(package + sorted((root / "tests").rglob("*.py")))
    unused = []
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(other == path and first <= lineno <= last for other, lineno in uses[name]):
                unused.append(f"{path.relative_to(root)}:{first} {name}")
    return unused


def test_every_definition_is_referenced():
    assert _unused_definitions(ROOT) == []


def test_guard_sees_an_unused_definition(tmp_path):
    # the guard itself must flag a definition that nothing references
    pkg = tmp_path / "src" / "arcdet"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan\n\n\n"
        "class Box:\n    def open(self):\n        return used()\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from arcdet.mod import Box\n")
    assert [entry.split()[-1] for entry in _unused_definitions(tmp_path)] == ["orphan", "open"]


def test_guard_reads_code_not_comments_or_strings(tmp_path):
    # a name that only a comment or a string mentions is still unused
    pkg = tmp_path / "src" / "arcdet"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def noted():\n    return 2\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from arcdet.mod import used  # noted\n\n\n"
        "def test_used():\n    assert used() == 1, 'noted'\n"
    )
    assert [entry.split()[-1] for entry in _unused_definitions(tmp_path)] == ["noted"]


def test_guard_sees_an_unused_constant(tmp_path):
    # a module-level name that only its own statement mentions is unused
    pkg = tmp_path / "src" / "arcdet"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "mod.py").write_text(
        "USED = 1\n"
        "PAIR_A, PAIR_B = 2, 3\n"
        "SELF_NAMED = {'SELF_NAMED': 4}\n"
        "TABLE: dict = {\n    'x': SELF_NAMED,\n}\n\n\n"
        "def read():\n    return USED + PAIR_A\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from arcdet.mod import read\n")
    assert [entry.split()[-1] for entry in _unused_definitions(tmp_path)] == ["PAIR_B", "TABLE"]


def _unused_imports(root):
    """Names that a package module other than ``__init__.py`` imports and never reads."""
    unused = []
    for path in sorted((root / "src" / "arcdet").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names if name not in read]
    return unused


def test_no_module_imports_an_unused_name():
    assert _unused_imports(ROOT) == []


def test_guard_sees_an_unused_import(tmp_path):
    # the guard must flag names imported and never read, wherever the import is
    pkg = tmp_path / "src" / "arcdet"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .mod import used\n")
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import prod, sqrt\n\n\n"
        "def used(xs):\n"
        "    from json import dumps\n"
        "    return prod(xs) + np.size(xs)\n"
    )
    assert [entry.split()[-1] for entry in _unused_imports(tmp_path)] == ["os", "sqrt", "dumps"]


_STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
_SPAN_NAME = re.compile(r"(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)(?:\(.*\))?")


def _stale_readme_names(root):
    """README code-span names with an inner underscore that the package
    neither uses as a name token nor holds as a word of a string."""
    text = re.sub(r"^```.*?^```", "", (root / "README.md").read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = (_SPAN_NAME.fullmatch(span) for span in re.findall(r"`([^`\n]+)`", text))
    names = sorted({m.group(1) for m in spans if m and "_" in m.group(1).strip("_")})
    words = set()
    for path in sorted((root / "src" / "arcdet").rglob("*.py")):
        with path.open("rb") as fh:
            for token in tokenize.tokenize(fh.readline):
                if token.type == tokenize.NAME:
                    words.add(token.string)
                elif token.type in _STRINGS:
                    words.update(re.findall(r"\w+", token.string))
    return [name for name in names if name not in words]


def test_readme_names_exist():
    assert _stale_readme_names(ROOT) == []


def test_guard_sees_a_stale_readme_name(tmp_path):
    # spans of code and string words pass; a comment, a fenced block and a
    # file name vouch for nothing, and a name without an inner underscore is not read
    pkg = tmp_path / "src" / "arcdet"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "def used_name():\n    return 'task_kind'  # noted_name\n"
    )
    (tmp_path / "README.md").write_text(
        "Call `used_name()` or `mod.used_name` for a `task_kind`; `mod.gone_name(x, y)`,\n"
        "`noted_name`, `plain`, `_private_`, `tests/test_mod.py` and `lct --max-m M`.\n\n"
        "```\nfenced_name `fenced_name`\n```\n"
    )
    assert _stale_readme_names(tmp_path) == ["gone_name", "noted_name"]

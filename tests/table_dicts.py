"""The one comparison of engine tables with pure-Python oracles: a
(keys, counts) pair of arrays as a dict keyed by order-vector tuples."""


def as_dict(table):
    """A (keys, counts) table as a dict of order-vector tuples; its rows must be distinct."""
    keys, counts = table
    out = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
    assert len(out) == len(keys) == len(counts), "a table repeats a row"
    return out

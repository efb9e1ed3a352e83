"""Exact distribution of contact orders over finite-field jet spaces.

The basic object computed here is, for a list of polynomials p_1..p_k on
A^n and a jet level N over F_q, the exact count of jets by the vector of
clamped pullback orders (ord values live in {0..N} with N+1 standing for
"vanishes to this level").  Every check reads contact orders along ideals,
the least order of each ideal's generators, so every caller goes through
``contact_order_table``: it names the ideals, and the engine owns the key
layout and plans the table.

Each strategy that applies is planned once, as (name, cost, largest, count):
its cost (jets enumerated, or the monomial strategy's (N+2)^n cells), its
largest single enumeration and the call that counts the table.  A plan fits
when its largest single enumeration is within the budget.
``prefer="cheapest"`` counts with the fitting plan of least cost,
``prefer="direct"`` with the first fitting plan in the order below, and
exactly one strategy counts each table.

* direct      -- two block walks, every pair of their states combined
                 through the ring.  The variables split into two blocks of
                 term components, and ``_block_states`` tallies each block's
                 whole grid, or its quotient by the units of O_N (below), by
                 state: the orders of the polynomials that lie in it alone and
                 the values of its parts of those with terms in both.  Its
                 cost and largest are the full grid, which bounds its walks and
                 pairs: a block has no more states than its grid has jets.
* shift split -- a variable that occurs exactly once in the whole list,
                 as a lone constant-coefficient degree-1 term, acts as a
                 uniform shift; its generator's order distribution is the
                 unconditional one, independently of everything else, so
                 those variables never need to be enumerated.
* add split   -- when the term-cooccurrence graph of the variables is
                 disconnected, the list splits into two blocks sharing at
                 most one additively-split polynomial.  It reads direct's
                 block states and differs in the combine: each block's
                 states become counts by (orders, value code), convolved by
                 matching value prefixes, one integer matrix product per
                 prefix length.  The plan refuses a combine that could pass
                 _MAX_COMBINE cells before anything is enumerated.
* monomial    -- when every polynomial is a monomial c*x^a (or zero), the
                 order of c*x^a is min(<a, e>, N+1) for the vector e of
                 coordinate orders, so the table is the product of the
                 per-coordinate order counts over the (N+2)^n cells e,
                 reduced by that key; nothing is enumerated.

All four produce identical tables; the test suite cross-checks them
against each other and against the pure-Python jet enumeration.  Each
returns its table as two arrays, (keys, counts): one int64 row of clamped
orders per order vector that occurs, and its jets, int64 or, once the grid
has q^(n(N+1)) >= 2^63 jets, Python ints in an object array;
``ord_vector_distribution`` returns the table of the one strategy it plans.
``contact_order_table`` takes each ideal's least order over its span of a
row with one ``np.minimum.reduceat``, sums the counts of equal rows, checks
that they sum to the grid and returns the (keys, counts) pair read-only;
every check reduces it with boolean masks over ``keys``.  Inside a
``table_cache()`` scope, which ``harness.run_campaign`` opens around its
tasks, ``contact_order_table`` keys its tables by the content of the call
without the level and holds the deepest table counted for each key.  That
table serves every shallower level through ``level_counts``, the one rule
that reads rows of a deeper table at a shallower level, for these hits and
for the threshold levels ``lct`` reads from its one table per prime alike.

The jet grid.  A series in O_N = F_q[t]/(t^(N+1)) is one code in [0, Q),
Q = q^(N+1), whose base-q digit i is the coefficient of t^i.  ``SeriesRing``
is the one arithmetic kernel: plus, times, scale and order on broadcastable
arrays of codes, computed digit by digit mod q.  ``RingTables`` is a cache of
it, add, mul and ord lookup tables built once per (q, N) on first use, and
``series_ring`` returns the tables when Q <= RING_TABLE_CAP and the computed
ring above.  Every enumerating strategy walks a product of code sets, one
per coordinate, each a range of codes that stops at Q: the full range, the
multiples of q (tO) or the single code 1.  It walks them as open meshes: as
many low coordinates as fit one batch, each its codes on an axis of its own
in an array shared by every batch, and the high ones flattened on one more
axis, h index tuples per batch.  A pullback is a chain of ring operations on
these arrays, and numpy broadcasting evaluates each sub-expression at the
size of the coordinates it reads.  A key is mixed-radix:
value codes of the spanning parts, then orders, each the ring order of a
code scaled to its key digit (one gather with the tables).  A key entry
stands for every jet of the batch that differs from it only in coordinates
the key does not read.  Every walk of a block, and direct's combine of block states,
checks that its counts sum to the size of its grid.
Codes take the narrowest of int16, int32 and int64 that holds Q - 1, in the
mesh and in the ring alike.
The tables are never written after construction, so threads may share them.

The homogeneity quotient.  When every polynomial of a block is homogeneous,
of a degree d_j >= 1, in a set G of its coordinates, a unit u of O_N that
scales the G-coordinates keeps every order.  A block with no value parts
whose grid passes one batch, and that all of its coordinates or all but one
grade so, walks one jet of each orbit that has a unit G-coordinate: the
first such coordinate is the code 1 and the G-coordinates before it lie in
tO, one mesh per coordinate of G.  The jets whose G-coordinates all lie in tO
are the block's table one level down, each order raised by d_j:
T_N = (q-1) q^N V_N + q^|R| shift_d(T_(N-1)), with R the other coordinates.
This walks (q-1) q^N times fewer jets at the top level; it is the reduction
that Igusa's and Denef's accounts of the local zeta function of a
homogeneous polynomial make.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, product
from math import prod

import numpy as np

from .errors import BudgetExceeded, InternalInvariantError, ValidationError
from .fields import GF
from .jets import DEFAULT_BUDGET
from .poly import MultiPoly

# rows per enumeration batch, and pairs of block states per batch of direct's
# combine.  Timed on a 2-vCPU Xeon, one thread, fresh process, 3 runs at each of
# 2^15 to 2^19, with a mesh's low coordinates on one flat axis [then on one axis
# each]: the stratification and cone campaigns took 6-11 [3-6] and 12-26 [11-21]
# ms at every cap, and one [x1, x2, x1*x2] table (q=2, N=11) 0.75-1.08 [0.84-1.05]
# s up to 2^17 against 0.95-1.43 [1.05-1.19] s above, most of it building the
# lower rings' tables (0.03 [0.013-0.018] s with every ring computed), while peak
# memory grew from 54 to 76 [75] MB.  None of this moves the cap off 2^17.
BATCH_CAP = 1 << 17
# largest Q = q^(N+1) whose ring is cached as lookup tables; larger rings are
# computed.  Timed on one [x1, x2, x1*x2] table enumerated directly, 2-vCPU
# Xeon, fresh process, one thread, 3 runs: at Q = 2048 (q=2, N=10) the tables
# took 0.65-1.06 s to build and the table 0.19-0.32 s, its quotient walk
# building every lower level's tables, against 0.03 s with every ring computed;
# at Q = 2187 (q=3, N=6) 0.42-0.64 s and 0.05-0.08 s against 0.02 s.  A second
# table of the ring then takes 3-7 ms against 13-32 ms computed.  The builtin
# campaigns use no ring above Q = 3^5.
RING_TABLE_CAP = 3**7
_MAX_COMBINE = 1 << 26
_MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32  # numpy's NPY_MAXDIMS


# --------------------------------------------------------------------------
# the ring F_q[t]/(t^(N+1)) on series codes
# --------------------------------------------------------------------------


def _code_dtype(size):
    """The narrowest int dtype that holds every code in [0, size)."""
    return np.int16 if size <= 1 << 15 else np.int32 if size <= 1 << 31 else np.int64


def _mesh_batches(sets):
    """Cover the product of code sets, one ``range`` of series codes per
    coordinate, by open meshes.

    The first w coordinates, the most whose grid (the block) fits ``BATCH_CAP``,
    are low: low j is its codes on axis j + 1, 1 on every other axis, the same
    array in every batch.  A batch takes h index tuples of the others, each an
    (h, 1, ..., 1) array, and is yielded as (h * block, lows, highs), so the
    batches cover the product once.  Codes take the narrowest dtype that holds
    every code below the largest stop of ``sets``, the ring's for ranges that
    stop at its size.  A mesh of more axes than numpy allows is refused before
    it is built.
    """
    sizes = [len(s) for s in sets]
    total = prod(sizes)
    if total > 2**62:  # pragma: no cover - beyond any practical budget
        raise BudgetExceeded("grid too large to index")
    dtype = _code_dtype(max((s.stop for s in sets), default=1))
    w = 0
    while w < len(sets) and prod(sizes[: w + 1]) <= min(BATCH_CAP, total):
        w += 1
    if w + 1 > _MAX_AXES:
        raise BudgetExceeded(f"a mesh of {w} low coordinates needs {w + 1} axes, past numpy's {_MAX_AXES}")
    lows = [
        np.arange(s.start, s.stop, s.step, dtype=dtype).reshape((1,) * (j + 1) + (-1,) + (1,) * (w - j - 1))
        for j, s in enumerate(sets[:w])
    ]
    block = prod(sizes[:w])
    n_highs = total // block
    step = max(1, BATCH_CAP // block)
    for h0 in range(0, n_highs, step):
        h1 = min(h0 + step, n_highs)
        index, highs = np.arange(h0, h1, dtype=np.int64), []
        for s in sets[w:]:
            index, d = np.divmod(index, len(s))
            if s != range(len(s)):  # tO or the code 1
                d = d * s.step + s.start
            highs.append(d.astype(dtype).reshape((h1 - h0,) + (1,) * w))
        yield (h1 - h0) * block, lows, highs


class SeriesRing:
    """O_N = F_q[t]/(t^(N+1)) on broadcastable arrays of series codes in [0, Q).

    Every operation splits its operands into their N+1 base-q digits, works
    digit by digit mod q and reassembles the code.  A truncated product sums
    at most N+1 digit products before it is reduced; digits are int32 unless
    that sum, (N+1)(q-1)^2, or a code needs int64.  Codes take
    ``_code_dtype(Q)`` and must fit int64.
    """

    def __init__(self, q, level):
        size = q ** (level + 1)
        if size > 2**63 - 1:
            raise BudgetExceeded(f"series codes of F_{q}[t]/(t^{level + 1}) overflow int64")
        self.q, self.level, self.size = q, level, size
        self.dtype = _code_dtype(size)
        wide = size > 2**31 or (level + 1) * (q - 1) ** 2 >= 2**31
        self._work = np.int64 if wide else np.int32

    def _digits(self, a):
        """The N+1 digits of codes ``a``, the coefficient of t^0 first."""
        rest = np.asarray(a, dtype=self._work)
        out = []
        for _ in range(self.level):
            rest, d = np.divmod(rest, self.q)
            out.append(d)
        return out + [rest]

    def from_digits(self, digits):
        """Codes of reduced digit arrays, the coefficient of t^0 first."""
        code = np.asarray(digits[-1], dtype=self._work)
        for d in reversed(digits[:-1]):
            code = code * self.q + d
        return code.astype(self.dtype)

    def plus(self, a, b):
        q = self.q
        return self.from_digits([(x + y) % q for x, y in zip(self._digits(a), self._digits(b))])

    def times(self, a, b):
        q = self.q
        da = self._digits(a)
        db = da if b is a else self._digits(b)
        code = 0
        for k in reversed(range(self.level + 1)):  # Horner, from the coefficient of t^N down
            acc = da[0] * db[k]
            for i in range(1, k + 1):
                acc += da[i] * db[k - i]
            acc %= q
            acc += code * q
            code = acc
        return code.astype(self.dtype)

    def scale(self, c, a):
        """c*a for a constant c in [0, q)."""
        return self.from_digits([c * d % self.q for d in self._digits(a)])

    def order(self, a):
        """Clamped orders of codes ``a``: the number of low zero digits, N+1 for 0."""
        a = np.asarray(a, dtype=np.int64)
        return sum((a % self.q**i == 0).astype(np.int8) for i in range(1, self.level + 2))

    def weighted_order(self, weight, dtype):
        """A function from codes to their orders times ``weight``, as ``dtype``."""
        return lambda a: self.order(a).astype(dtype) * weight


class RingTables(SeriesRing):
    """O_N with every operation a lookup: a read-only cache of ``SeriesRing``.

    ``add`` and ``mul`` are flat Q*Q int16 tables read at a*Q + b and ``ord``
    holds the clamped order (N+1 for the zero series).  The computed ring
    fills them, a batch of rows of the pair grid at a time.
    """

    def __init__(self, q, level):
        super().__init__(q, level)
        size = self.size
        codes = np.arange(size, dtype=self.dtype)
        self.ord = super().order(codes)
        self.add = np.empty((size, size), dtype=np.int16)
        self.mul = np.empty((size, size), dtype=np.int16)
        rows = max(1, BATCH_CAP // size)
        for a0 in range(0, size, rows):
            a = codes[a0 : a0 + rows, None]
            self.add[a0 : a0 + rows] = super().plus(a, codes)
            self.mul[a0 : a0 + rows] = super().times(a, codes)
        self.add, self.mul = self.add.ravel(), self.mul.ravel()
        for table in (self.ord, self.add, self.mul):
            table.flags.writeable = False

    def _pair_index(self, a, b):
        # both tables are symmetric, so the smaller operand is the one scaled;
        # Q*Q <= RING_TABLE_CAP**2 < 2^31 fits int32
        if a.size > b.size:
            a, b = b, a
        idx = a.astype(np.int32)
        idx *= self.size
        return idx + b

    def plus(self, a, b):
        return self.add.take(self._pair_index(a, b))

    def times(self, a, b):
        return self.mul.take(self._pair_index(a, b))

    def scale(self, c, a):
        return self.mul[c * self.size : (c + 1) * self.size].take(a)  # row c of mul

    def order(self, a):
        return self.ord.take(a)

    def weighted_order(self, weight, dtype):
        return (self.ord.astype(dtype) * weight).take


@lru_cache(maxsize=16)
def ring_tables(q, level):
    """The ring tables of F_q[t]/(t^(level+1)), built on first use and shared.

    The 16 most recently used rings are kept.  All 10 builtin campaigns in one
    process build 6 rings, (q, N) = (2, 3), (2, 4) and (3, 1) to (3, 4), none
    above Q = 3^5, and no campaign alone more than 3, so none is rebuilt; one
    at Q = RING_TABLE_CAP holds 19 MB.  With every ring computed, a benchmark
    pass (2-vCPU Xeon, two runs, median ms) took 6.4-7.9 against 3.1-3.2 on
    strata, 22 against 12 on cone and 57-59 against 25 on thresholds with a
    mesh's low coordinates on one flat axis, and takes 6.4-8.0 against 3.4-5.3,
    26-28 against 15-18 and 39-45 against 24-29 with one axis each.
    """
    return RingTables(q, level)


def series_ring(q, level):
    """F_q[t]/(t^(level+1)): its lookup tables within RING_TABLE_CAP, else computed."""
    return ring_tables(q, level) if q ** (level + 1) <= RING_TABLE_CAP else SeriesRing(q, level)


def _fold(arrays, op):
    """Reduce broadcastable arrays by the associative, commutative ``op``: equal
    shapes first, then the partial results from the smallest up.  On a mesh an
    array's shape is the coordinates it reads, so each step runs at the size of
    the coordinates its operands read together."""
    groups = {}
    for a in arrays:
        groups.setdefault(a.shape, []).append(a)
    partial = sorted((reduce(op, group) for group in groups.values()), key=np.size)
    return reduce(op, partial)


def _add_into(a, b):
    """a + b, written into an operand that already has the result's shape.
    Only for arrays the caller owns."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    if a.shape == shape:
        a += b
        return a
    if b.shape == shape:
        b += a
        return b
    return a + b


def eval_poly_codes(poly, coords, ring):
    """Pullback codes of a polynomial on an open mesh of jets.

    ``coords`` holds one code array per coordinate, all broadcastable against
    each other; coefficients of ``poly`` are reduced mod q.  Returns codes
    shaped as the broadcast of the coordinates the polynomial uses, 0-d for a
    constant.
    """
    powers = {}
    terms = []
    for exps, coeff in poly.terms.items():
        c = int(coeff) % ring.q  # callers hand over GF(q) polynomials
        if c == 0:
            continue
        factors = sorted((_power(ring, coords, powers, i, e) for i, e in enumerate(exps) if e), key=np.size)
        if not factors:
            terms.append(np.full((), c, dtype=ring.dtype))  # the constant c has code c
            continue
        if c != 1:
            factors[0] = ring.scale(c, factors[0])
        terms.append(_fold(factors, ring.times))
    return _fold(terms, ring.plus) if terms else np.zeros((), dtype=ring.dtype)


def _power(ring, coords, powers, i, e):
    """coords[i]^e through the ring, by squaring, memoized in ``powers``.

    A module-level function, not a closure that calls itself: such a closure
    is a reference cycle, and it held the batch's code arrays until the next
    garbage collection."""
    if e == 1:
        return coords[i]
    if (i, e) not in powers:
        half = _power(ring, coords, powers, i, e // 2)
        sq = ring.times(half, half)
        powers[i, e] = sq if e % 2 == 0 else ring.times(sq, coords[i])
    return powers[i, e]


def _order_batches(polys, sets, level, q, values=()):
    """Walk the jets of a grid in batches: the product of ``sets``, one
    ``range`` of series codes per coordinate.  Per batch yield the number of
    jets each key entry stands for and the keys of its jets: an int array that
    broadcasts over the batch.  A key is mixed-radix: the value codes of the
    pullbacks of ``values`` in [0, Q) as the lowest digits, then the clamped
    pullback order of each of ``polys`` in base N+2.

    The grid is an open mesh of the coordinate codes (``_mesh_batches``), so a
    pullback, and an order digit, the order of a code scaled by its weight, run
    at the size of the coordinates they read: a key entry stands for every jet
    of the batch that shares it.
    """
    # no grid is enumerated over a prime whose digit products leave int32
    if (level + 1) * (q - 1) ** 2 >= 2**31:
        raise BudgetExceeded(
            f"series products overflow int32 at q={q}, level {level}: enumeration needs (N+1)(q-1)^2 < 2^31"
        )
    ring = series_ring(q, level)
    base = level + 2
    vspace = ring.size ** len(values)
    radix = vspace * base ** len(polys)
    if radix > 2**63:
        raise BudgetExceeded(f"keys of {len(polys)} orders at level {level} overflow int64")
    dtype = np.int32 if radix <= 2**31 else np.int64
    order_digits = [ring.weighted_order(vspace * base**i, dtype) for i in range(len(polys))]
    for rows, lows, highs in _mesh_batches(sets):
        coords = lows + highs
        parts = [order(eval_poly_codes(p, coords, ring)) for order, p in zip(order_digits, polys)]
        parts += [eval_poly_codes(p, coords, ring).astype(dtype) * ring.size**j for j, p in enumerate(values)]
        key = _fold(parts, _add_into) if parts else np.zeros((), dtype=dtype)
        yield rows // key.size, key


# --------------------------------------------------------------------------
# key handling
# --------------------------------------------------------------------------


def _digits(codes, radices):
    """Mixed-radix digits of int64 ``codes``, the lowest first: one column per radix."""
    out = np.empty((codes.size, len(radices)), dtype=np.int64)
    for i, radix in enumerate(radices):
        codes, out[:, i] = np.divmod(codes, radix)
    return out


def _count_dtype(total):
    """The dtype that counts the jets of a grid of ``total`` exactly: int64
    while they fit, else object (Python ints)."""
    return np.int64 if total < 2**63 else object


def _sum_by_key(keys, counts, axis=None):
    """The distinct entries of ``keys`` (its rows, with axis=0), sorted, and
    the sum of ``counts`` over each."""
    uniq, inverse = np.unique(keys, axis=axis, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=counts.dtype)
    np.add.at(sums, inverse.ravel(), counts)
    return uniq, sums


def _sum_by_row(rows, counts, base):
    """The distinct rows of ``rows``, whose entries lie in [0, base), and the
    sum of ``counts`` over each.  Rows are compared as base-``base`` codes
    while base^width fits int64, and whole past it."""
    width = rows.shape[1]
    if base**width > 2**63:
        return _sum_by_key(rows, counts, axis=0)
    codes, sums = _sum_by_key(rows @ base ** np.arange(width, dtype=np.int64), counts)
    return _digits(codes, [base] * width), sums


def _tally(batches, radix, total):
    """Jets per key code over ``batches`` of (weight, key), as int64 arrays of
    the codes that occur, ascending, and of their counts.

    Codes lie in [0, radix); each entry of ``key`` stands for ``weight`` jets,
    an int or an int64 array of the key's shape, accumulated exactly in int64
    (``np.add.at`` for an array, never float bincount weights).  A dense array
    tallies the codes when radix <= min(2^22, total), so that a small grid
    never scans a large range; otherwise each batch is summed by code into
    the running result.  The counts must sum to ``total``, the size of the
    grid walked, so a lost or repeated batch raises InternalInvariantError.
    """
    dense = np.zeros(radix, dtype=np.int64) if radix <= min(1 << 22, total) else None
    codes = counts = np.zeros(0, dtype=np.int64)
    for weight, key in batches:
        key, weight = key.ravel(), np.ravel(weight)
        if dense is None:
            weight = np.broadcast_to(weight, key.shape)
            codes, counts = _sum_by_key(np.concatenate([codes, key]), np.concatenate([counts, weight]))
        elif weight.size == 1:  # a walk's batch: bincount is faster than np.add.at
            part = np.bincount(key)
            part *= weight
            dense[: part.size] += part
        else:
            np.add.at(dense, key, weight)
    if dense is not None:
        codes = np.flatnonzero(dense)
        counts = dense[codes]
    counted = sum(counts.tolist())
    if counted != total:
        raise InternalInvariantError(f"enumeration counted {counted} of {total} jets")
    return codes, counts


def _side_walk(polys, values, n, level, q):
    """Tally the jets of one block of n variables by state: the value codes of
    ``values`` and the orders of ``polys``, keyed as in ``_order_batches``.

    A block with no values whose grid passes one batch, and whose polynomials
    ``_grading`` grades, walks its quotient by the units of O_N
    (``_quotient_walk``); every other block walks its whole grid."""
    size = q ** (level + 1)
    grading = None if values or size**n <= BATCH_CAP else _grading(polys, n)
    if grading is not None:
        return _quotient_walk(polys, n, level, q, *grading)
    radix = size ** len(values) * (level + 2) ** len(polys)
    return _tally(_order_batches(polys, [range(size)] * n, level, q, values), radix, size**n)


def _grading(polys, n):
    """(graded, degrees): coordinates in which each polynomial is homogeneous
    of a degree d_j >= 1 (the zero polynomial of any), and those degrees.  All
    n coordinates are tried, then each set that leaves one out; any of them
    saves as much as another.  None when none of them grades the list."""
    for graded in [list(range(n))] + [[v for v in range(n) if v != u] for u in range(n)]:
        degrees = [{sum(exps[v] for v in graded) for exps in p.terms} or {1} for p in polys]
        if graded and all(len(d) == 1 and 0 not in d for d in degrees):
            return graded, [d.pop() for d in degrees]
    return None


def _quotient_walk(polys, n, level, q, graded, degrees):
    """Tally the jets of n variables by the orders of ``polys``, keyed as in
    ``_order_batches``, each homogeneous of degree ``degrees[j]`` >= 1 in the
    coordinates ``graded``; R is the other coordinates.

    A unit u of O_N scales the graded coordinates by u and each p_j by u^d_j,
    which keeps every order.  A jet with a unit graded coordinate is one of the
    (q-1) q^N of its orbit, and exactly one of them has its first unit graded
    coordinate equal to 1.  V_N tallies those jets, one mesh per graded
    coordinate i: the graded coordinates before i in tO, i the code 1, and
    the later graded coordinates and R in full.  A jet whose graded
    coordinates all lie in tO is t*delta on them, and p_j(t*delta, r) is
    t^d_j p_j(delta, r): its order is d_j plus the order of p_j one level
    down, clamped to N+1, while the top digit of each coordinate of R is
    free.  So

        T_N = (q-1) q^N V_N + q^|R| shift_d(T_(N-1)),

    with T_(N-1) walked by ``_side_walk`` and T_(-1) one empty jet.  V_N's
    counts must sum to the size of the union of its meshes, and T_N's to
    q^(n(N+1)).
    """
    size, base = q ** (level + 1), level + 2
    units = (q - 1) * q**level
    rest = n - len(graded)
    meshes = []
    for k, i in enumerate(graded):
        sets = [range(size)] * n
        for v in graded[:k]:
            sets[v] = range(0, size, q)
        sets[i] = range(1, size, size)  # the code 1; every set stops at Q
        meshes.append(sets)
    radix = base ** len(polys)
    # one jet of each orbit whose graded coordinates are not all in tO
    reps = (size ** len(graded) - q ** (level * len(graded))) * size**rest // units
    walks = (batch for sets in meshes for batch in _order_batches(polys, sets, level, q))
    codes, counts = _tally(walks, radix, reps)
    if level:
        below, below_counts = _side_walk(polys, (), n, level - 1, q)
    else:
        below, below_counts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    entries = np.minimum(_digits(below, [level + 1] * len(polys)) + np.array(degrees, dtype=np.int64), level + 1)
    shifted = entries @ base ** np.arange(len(polys), dtype=np.int64)
    return _tally([(units * counts, codes), (q**rest * below_counts, shifted)], radix, size**n)


def _restrict_poly(p, keep_vars, constant=True):
    """The terms of p in the variables ``keep_vars`` alone, as a polynomial in
    those variables; its constant term only if ``constant``."""
    keep = set(keep_vars)
    r = MultiPoly(p.field, [p.variables[v] for v in keep_vars])
    r.terms = {
        tuple(exps[v] for v in keep_vars): c
        for exps, c in p.terms.items()
        if all(v in keep for v, e in enumerate(exps) if e) and (constant or any(exps))
    }
    return r


def _block_states(polys, sides, spans, level, q):
    """Walk each block of ``sides`` and ``spans`` (see ``_blocks``) once and tally
    its jets by state.  Per block return the rows of orders of its own
    polynomials, one column per slot, the rows of value codes of its parts of
    the spanning polynomials, the first holding the constant terms, and the
    jets of each state, sorted by the ``_order_batches`` key."""
    base, size = level + 2, q ** (level + 1)
    states = []
    for first, (side_vars, slots) in zip((True, False), sides):
        values = [_restrict_poly(polys[s], side_vars, constant=first) for s in spans]
        side_polys = [_restrict_poly(polys[pi], side_vars) for pi in slots]
        codes, counts = _side_walk(side_polys, values, len(side_vars), level, q)
        digits = _digits(codes, [size] * len(spans) + [base] * len(slots))
        states.append((digits[:, len(spans) :], digits[:, : len(spans)], counts))
    return states


# --------------------------------------------------------------------------
# strategy: direct enumeration
# --------------------------------------------------------------------------


def _direct_distribution(polys, n, level, q):
    """Table of ``polys`` over the full jet grid, counted as pairs of block states.

    The variables split into the two blocks of ``_blocks``, and every term lies
    in one of them, so a jet reaches the table only through the state of each
    block: the orders of the polynomials that lie in that block alone and the
    value codes of its parts of those with terms in both, the first part
    holding the constant term.  ``_block_states`` walks and tallies each
    block.  Every pair of states is then combined through the ring, which
    reads the orders of the spanning polynomials from the sums of their
    parts, and the pair counts the product of the two states' counts.  A list
    of one component, or one whose states or keys would overflow int64, is
    one block paired with the empty grid, which has one state.
    """
    total = q ** (n * (level + 1))
    if not polys:
        return np.zeros((1, 0), dtype=np.int64), np.array([total], dtype=_count_dtype(total))
    base, size = level + 2, q ** (level + 1)
    sides, spans = _blocks(polys, n)
    radices = [size ** len(spans) * base ** len(slots) for _, slots in sides]
    if max(radices + [base ** len(polys)]) > 2**63:
        sides, spans = ((list(range(n)), list(range(len(polys)))), ([], [])), []
    states = _block_states(polys, sides, spans, level, q)
    # each block's orders in their slots of the full key
    (key_a, val_a, cnt_a), (key_b, val_b, cnt_b) = (
        (orders @ base ** np.array(slots, dtype=np.int64), values, counts)
        for (orders, values, counts), (_, slots) in zip(states, sides)
    )
    ring = series_ring(q, level)
    span_orders = [ring.weighted_order(base**s, np.int64) for s in spans]
    # no batch of pairs passes BATCH_CAP: whole rows of B's states where they fit
    cols = min(key_b.size, BATCH_CAP)
    rows = max(1, BATCH_CAP // cols)

    def pairs():
        for i, j in product(range(0, key_a.size, rows), range(0, key_b.size, cols)):
            a, b = slice(i, i + rows), slice(j, j + cols)
            key = key_a[a, None] + key_b[b]
            for s, order in enumerate(span_orders):
                key += order(ring.plus(val_a[a, s, None], val_b[b, s]))
            yield cnt_a[a, None] * cnt_b[b], key

    codes, counts = _tally(pairs(), base ** len(polys), total)
    return _digits(codes, [base] * len(polys)), counts


# --------------------------------------------------------------------------
# strategy: shift split
# --------------------------------------------------------------------------


def _find_shift_assignment(polys, n):
    """Map poly index -> shift variable: a variable whose one occurrence in the
    whole list is a term c*v, at most one per polynomial."""
    occ = [[] for _ in range(n)]  # occ[v]: (poly index, exponents) of the terms containing v
    for pi, p in enumerate(polys):
        for exps in p.terms:
            for v, e in enumerate(exps):
                if e:
                    occ[v].append((pi, exps))
    assigned = {}
    for v in range(n):
        if len(occ[v]) != 1:
            continue
        pi, exps = occ[v][0]
        if pi not in assigned and exps[v] == 1 and sum(exps) == 1:
            assigned[pi] = v
    return assigned


def ord_value_counts(level, q):
    """How many level-N series have each order: (q-1) q^(N-e), and 1 for the sentinel."""
    d = [(q - 1) * q ** (level - e) for e in range(level + 1)]
    d.append(1)
    return d


def _shift_split_distribution(polys, level, q, assigned, kept):
    """Table of ``polys`` where each polynomial i of ``assigned`` holds its shift
    variable, which occurs nowhere else: its order is distributed as
    ``ord_value_counts``, independently of the rest, whose table is enumerated
    over the ``kept`` variables alone."""
    rest = [pi for pi in range(len(polys)) if pi not in assigned]
    shifted = sorted(assigned)
    rest_polys = [_restrict_poly(polys[pi], kept) for pi in rest]
    rest_keys, rest_counts = _direct_distribution(rest_polys, len(kept), level, q)
    base = level + 2
    dtype = _count_dtype(q ** ((len(kept) + len(shifted)) * (level + 1)))
    # every tail of orders of the shifted polynomials, weighted as in ord_value_counts
    tails = _digits(np.arange(base ** len(shifted), dtype=np.int64), [base] * len(shifted))
    weights = np.array(ord_value_counts(level, q), dtype=dtype)[tails].prod(axis=1)
    # row r * len(tails) + t: rest key r followed by tail t, each in its slots
    keys = np.empty((len(rest_keys) * len(tails), len(polys)), dtype=np.int64)
    keys[:, rest] = np.repeat(rest_keys, len(tails), axis=0)
    keys[:, shifted] = np.tile(tails, (len(rest_keys), 1))
    return keys, np.multiply.outer(rest_counts.astype(dtype), weights).ravel()


def _shift_plan(polys, n, level, q):
    assigned = _find_shift_assignment(polys, n)
    if not assigned:
        return None
    kept = sorted(set(range(n)) - set(assigned.values()))
    size = q ** (len(kept) * (level + 1))
    return "shift", size, size, lambda: _shift_split_distribution(polys, level, q, assigned, kept)


# --------------------------------------------------------------------------
# strategy: additive split
# --------------------------------------------------------------------------


def _term_components(polys, n):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p in polys:
        for exps in p.terms:
            vs = [v for v, e in enumerate(exps) if e]
            for a, b in zip(vs, vs[1:]):
                union(a, b)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _blocks(polys, n):
    """Two blocks of variables, unions of term components balanced by width,
    and the polynomials of each.

    Returns per block its variables and the slots of the polynomials whose
    terms all lie in it, a constant or zero polynomial going to the first, and
    the slots of the polynomials with terms in both.  With one component the
    second block is empty.
    """
    vars_a, vars_b = [], []
    for comp in sorted(_term_components(polys, n), key=len, reverse=True):
        (vars_a if len(vars_a) <= len(vars_b) else vars_b).extend(comp)
    in_a = set(vars_a)
    slots_a, slots_b, both = [], [], []
    for pi, p in enumerate(polys):
        # each term lies in one block
        blocks = {next(v for v, e in enumerate(exps) if e) in in_a for exps in p.terms if any(exps)}
        (both if len(blocks) == 2 else slots_b if blocks == {False} else slots_a).append(pi)
    return ((sorted(vars_a), slots_a), (sorted(vars_b), slots_b)), both


def _additive_split_distribution(polys, level, q, sides, spans):
    """Table of ``polys`` from the block states of ``_block_states``, with
    ``sides`` and ``spans`` as ``_blocks`` returns them and at most one
    spanning polynomial, whose order is read from the sum of its two parts.
    Per block, the states of each row of orders become one row of a matrix
    counting them by value code, one column without a spanning polynomial.
    """
    tables = []
    for orders, values, counts in _block_states(polys, sides, spans, level, q):
        new = np.r_[True, (orders[1:] != orders[:-1]).any(axis=1)]  # sorted states: equal rows adjacent
        mat = np.zeros((np.count_nonzero(new), q ** ((level + 1) * len(spans))), dtype=np.int64)
        mat[np.cumsum(new) - 1, values.sum(axis=1)] = counts  # the one value code, or 0
        tables.append((orders[new], mat))
    (keys_a, mat_a), (keys_b, mat_b) = tables
    if not spans:
        # no value codes to match: a pair of keys counts the product of the two totals
        by_ord = np.outer(mat_a.sum(axis=1), mat_b.sum(axis=1))[None]
    else:
        vwidth = level + 1
        ring = series_ring(q, level)
        # negation of value codes, scaling by q - 1; on codes below q^o it negates the o-digit prefix
        neg = ring.scale(q - 1, np.arange(ring.size))
        # geq[o][i, j]: pairs of key i of A and key j of B whose values cancel in
        # their o lowest digits, that is whose sum has order >= o.  Row i of the
        # prefix matrix counts A's values by their o lowest digits.
        geq = np.empty((vwidth + 1, len(keys_a), len(keys_b)), dtype=np.int64)
        pre_a, pre_b = mat_a, mat_b
        for o in range(vwidth, -1, -1):
            geq[o] = pre_a @ pre_b[:, neg[: q**o]].T
            if o:
                pre_a = pre_a.reshape(len(keys_a), q, q ** (o - 1)).sum(axis=1)
                pre_b = pre_b.reshape(len(keys_b), q, q ** (o - 1)).sum(axis=1)
        # exactly order o for o <= level; index level + 1 is the sentinel
        by_ord = np.concatenate([geq[:-1] - geq[1:], geq[-1:]])

    # only the nonzero cells become keys: side A's entries, side B's entries and
    # the split polynomial's order, each in its own slots of ``polys``
    o, i, j = np.nonzero(by_ord)
    keys = np.empty((o.size, len(polys)), dtype=np.int64)
    keys[:, sides[0][1]] = keys_a[i]
    keys[:, sides[1][1]] = keys_b[j]
    keys[:, spans] = o[:, None]
    return keys, by_ord[o, i, j]


def _additive_plan(polys, n, level, q):
    """The two blocks of ``_blocks``, each enumerated alone.

    Refused for a single component, for a second polynomial with terms in both
    blocks, for pairs of jets past int64, and when the combine could pass
    _MAX_COMBINE cells: a side has at most min(q^w, (N+2)^k) distinct keys for
    its w digits and k polynomials.
    """
    sides, both = _blocks(polys, n)
    if not sides[1][0]:
        return None
    width = level + 1
    sizes = [q ** (len(side_vars) * width) for side_vars, _ in sides]
    keys = [min(size, (level + 2) ** len(slots)) for size, (_, slots) in zip(sizes, sides)]
    if len(both) > 1 or sizes[0] * sizes[1] >= 2**63 or keys[0] * keys[1] * q**width > _MAX_COMBINE:
        return None
    return "additive", sum(sizes), max(sizes), lambda: _additive_split_distribution(polys, level, q, sides, both)


# --------------------------------------------------------------------------
# strategy: monomial
# --------------------------------------------------------------------------


def _monomial_distribution(polys, n, level, q):
    """Table of a list of monomials, from coordinate orders alone.

    With e the vector of clamped coordinate orders, ord(c x^a) = min(<a, e>, N+1)
    (a unit times t^<a, e>), so the table is the product of ``ord_value_counts``
    over the (N+2)^n cells e, reduced by that key.  The cells are summed one
    coordinate at a time, keyed by the partial clamped sums.
    """
    top = level + 1
    dtype = _count_dtype(q ** (n * top))
    weights = np.array(ord_value_counts(level, q), dtype=dtype)
    exps = [next(iter(p.terms), None) for p in polys]  # None: the zero polynomial
    keys = np.array([[top if a is None else 0 for a in exps]], dtype=np.int64)
    counts = np.ones(1, dtype=dtype)
    for v in range(n):
        col = np.array([0 if a is None else a[v] for a in exps], dtype=np.int64)
        if not col.any():
            counts = counts * q**top  # sum(weights) = q^(N+1)
            continue
        # row r * (N+2) + e: partial key r, then coordinate v of order e
        keys = np.minimum(keys[:, None, :] + np.outer(np.arange(top + 1), col), top).reshape(-1, len(polys))
        keys, counts = _sum_by_row(keys, np.multiply.outer(counts, weights).ravel(), top + 1)
    return keys, counts


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def _plans(polys, n, level, q):
    """The strategies that apply to ``polys``, in the fixed order direct, shift,
    additive, monomial.

    A plan is (name, cost, largest, count).  ``cost`` ranks plans: jets
    enumerated (the full grid for direct), or the (N+2)^n cells of the monomial
    strategy.  ``largest`` bounds its largest single enumeration, the one
    figure the budget bounds, and ``count()`` counts the table.
    """
    size = q ** (n * (level + 1))
    plans = [("direct", size, size, lambda: _direct_distribution(polys, n, level, q))]
    plans += filter(None, (_shift_plan(polys, n, level, q), _additive_plan(polys, n, level, q)))
    if all(len(p.terms) <= 1 for p in polys):
        cells = (level + 2) ** n
        plans.append(("monomial", cells, cells, lambda: _monomial_distribution(polys, n, level, q)))
    return plans


def ord_vector_distribution(polys, n, level, q, budget=DEFAULT_BUDGET, prefer="cheapest"):
    """Exact jet counts by the clamped order vector of the given polynomials,
    as (keys, counts): one int64 row per order vector that occurs, with one
    entry per polynomial in {0..level} or level+1 (the truncation sentinel),
    and its jets (see ``_count_dtype``).  Every strategy that applies is planned
    once, and a plan fits when its largest single enumeration is within
    ``budget``.  ``prefer`` is "cheapest", the default (the fitting plan of
    least cost, ties to the earlier in the order direct, shift, additive,
    monomial), or "direct" (the first fitting plan in that order, so direct
    whenever its full grid fits).  One strategy counts the table; all are
    exact and interchangeable.  Raises BudgetExceeded when no plan fits.
    """
    gfq = GF(q)
    polys = [p if p.field == gfq else p.map_coeffs(gfq) for p in polys]
    fitting = [plan for plan in _plans(polys, n, level, q) if plan[2] <= budget]
    if not fitting:
        raise BudgetExceeded(
            f"jet space has {q ** (n * (level + 1))} points, over the budget {budget}, and no exact split applies"
        )
    _, _, _, count = min(fitting, key=lambda plan: plan[1]) if prefer == "cheapest" else fitting[0]
    return count()


@dataclass
class TableCache:
    """The contact-order tables of one scope, and how many lookups found a
    table (hits) or counted one (misses); a lookup the budget refuses is
    neither.  ``tables`` maps the content of a call without its level to
    (level, table), the deepest table counted."""

    tables: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


_TABLE_CACHE = ContextVar("table_cache", default=None)


@contextmanager
def table_cache():
    """A scope in which ``contact_order_table`` counts each table once, at the
    deepest level asked, and derives the shallower levels from it.

    Yields the scope's ``TableCache``.  Its tables go when the scope ends, so
    nothing is reused across scopes; outside every scope nothing is stored.
    """
    scope = TableCache()
    token = _TABLE_CACHE.set(scope)
    try:
        yield scope
    finally:
        _TABLE_CACHE.reset(token)


def contact_order_table(ideals, n, level, q, budget=DEFAULT_BUDGET, prefer="cheapest"):
    """Exact jet counts keyed by the contact order along each ideal, as
    (keys, counts): one int64 row per vector of contact orders that occurs,
    with one entry per ideal, the least clamped pullback order of its
    generators, in {0..level} or level+1 (the truncation sentinel), and its
    jets (see ``_count_dtype``).  Both arrays are read-only.  ``ideals`` is a
    list of non-empty generator lists; ``prefer`` and ``budget`` plan the
    table as in ``ord_vector_distribution``.

    Inside a ``table_cache()`` scope, calls whose ideals reduce mod q to the
    same generators in the same order, with the same n, q, ``prefer`` and
    ``budget``, share one held table, the deepest counted: a call at or
    below its level is served by truncating it, a deeper call counts its
    own table and holds it instead.  A table the budget refuses is not
    stored, counts as no miss and leaves the held one in place.
    """
    if any(not gens for gens in ideals):
        raise ValidationError("an ideal needs at least one generator")
    gfq = GF(q)
    ideals = [[g if g.field == gfq else g.map_coeffs(gfq) for g in gens] for gens in ideals]
    scope = _TABLE_CACHE.get()
    if scope is None:
        return _contact_order_table(ideals, n, level, q, budget, prefer)
    # a GF(q) polynomial holds no zero terms
    content = tuple(tuple(tuple(sorted(g.terms.items())) for g in gens) for gens in ideals)
    key = (content, n, q, prefer, budget)
    held = scope.tables.get(key)
    if held is not None and held[0] >= level:
        scope.hits += 1
        return _truncated(*held, level, n, q)
    table = _contact_order_table(ideals, n, level, q, budget, prefer)
    scope.misses += 1
    scope.tables[key] = (level, table)
    return table


def per_prime(primes, count):
    """[count(q) for q in primes], counted from the largest prime down.

    Every plan grows with q, so a budget refusal comes before any count.  A
    prime given twice raises ``ValidationError`` before anything is counted.
    """
    primes = tuple(primes)
    if len(set(primes)) < len(primes):
        raise ValidationError(f"counts take each prime once, got {primes!r}")
    results = {q: count(q) for q in sorted(primes, reverse=True)}
    return [results[q] for q in primes]


def _read_only(keys, counts):
    keys.flags.writeable = counts.flags.writeable = False
    return keys, counts


def _truncated(deep, table, level, n, q):
    """The level-``level`` table of a level-``deep`` contact-order table, as
    ``level_counts`` reads it."""
    if deep == level:
        return table
    sums = level_counts(*table, deep, level, n, q)
    return _read_only(
        np.array(list(sums), dtype=np.int64),
        np.array(list(sums.values()), dtype=_count_dtype(q ** (n * (level + 1)))),
    )


def level_counts(rows, counts, deep, level, n, q):
    """{row: jets} at level ``level`` of ``rows`` and ``counts`` taken from a
    level-``deep`` contact-order table, deep >= level.  A level-``level`` jet
    has q^(n(deep-level)) lifts, and each lift's contact orders clamped at
    level + 1 are its own: so each order is clamped, equal rows are summed
    and each sum is divided by the lifts.  A sum that is not a whole number
    of lifts raises ``InternalInvariantError``.  Rows are tuples of ints.

    The rows read are few, so a dict sums them faster than ``_sum_by_row``:
    on a 2-vCPU Xeon, 0.21 against 2.0 ms for the 110 level reads of a
    ``thresholds`` pass (1-7 rows each), and 0.45 against 1.1 ms for the 50
    truncations of a ``strata`` and a ``cone`` pass (5-15 rows each).
    """
    sums = {}
    for key, cnt in zip(map(tuple, np.minimum(rows, level + 1).tolist()), counts.tolist()):
        sums[key] = sums.get(key, 0) + cnt
    lifts = q ** (n * (deep - level))
    for key, cnt in sums.items():
        whole, rest = divmod(cnt, lifts)
        if rest:
            raise InternalInvariantError(
                f"{cnt} level-{deep} jets of contact orders {key} are not whole fibers of {lifts} lifts"
            )
        sums[key] = whole
    return sums


def _contact_order_table(ideals, n, level, q, budget, prefer):
    polys = [g for gens in ideals for g in gens]
    keys, counts = ord_vector_distribution(polys, n, level, q, budget=budget, prefer=prefer)
    # an ideal's contact order is the least order over its span of the key
    starts = [0, *accumulate(len(gens) for gens in ideals)][:-1]
    orders, sums = _sum_by_row(np.minimum.reduceat(keys, starts, axis=1), counts, level + 2)
    counted, total = sum(sums.tolist()), q ** (n * (level + 1))
    if counted != total:
        raise InternalInvariantError(f"the contact-order table counted {counted} of {total} jets")
    return _read_only(orders, sums)

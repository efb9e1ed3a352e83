"""Exact distribution of contact orders over finite-field jet spaces.

The basic object computed here is, for a list of polynomials p_1..p_k on
A^n and a jet level N over F_q, the exact count of jets by the vector of
clamped pullback orders (ord values live in {0..N} with N+1 standing for
"vanishes to this level").  Every check reads contact orders along ideals,
the least order of each ideal's generators, so every caller goes through
``contact_order_table``: it names the ideals, and the engine owns the key
layout and picks the cheapest exact strategy.

Four exact strategies, chosen by cost:

* direct      -- vectorized enumeration of the full jet grid.
* shift split -- a variable that occurs exactly once in the whole list,
                 as a lone constant-coefficient degree-1 term, acts as a
                 uniform shift; its generator's order distribution is the
                 unconditional one, independently of everything else, so
                 those variables never need to be enumerated.
* add split   -- when the term-cooccurrence graph of the variables is
                 disconnected, the list splits into two blocks sharing at
                 most one additively-split polynomial; each block is
                 enumerated separately and the blocks are convolved by
                 matching value prefixes, one integer matrix product per
                 prefix length.
* monomial    -- when every polynomial is a monomial c*x^a (or zero), the
                 order of c*x^a is min(<a, e>, N+1) for the vector e of
                 coordinate orders, so the table is the product of the
                 per-coordinate order counts over the (N+2)^n cells e,
                 reduced by that key; nothing is enumerated.

All four produce identical tables; the test suite cross-checks them
against each other and against the pure-Python jet enumeration.

The jet grid.  A series in O_N = F_q[t]/(t^(N+1)) is one code in [0, Q),
Q = q^(N+1), whose base-q digit i is the coefficient of t^i.  When
Q <= RING_TABLE_CAP, ``ring_tables`` builds the add, mul and ord tables of
O_N once per (q, N), on first use, and the direct and additive-split
strategies walk a grid of n int16 coordinate codes: a pullback is a chain
of table gathers, an order is one lookup and the split polynomial's value
code is the pullback code itself.  The tables are never written after
construction, so threads may share them.  Above the cap the same
strategies walk the grid of n(N+1) base-q coefficient digits with int32
series products (``iter_digit_batches``, ``batch_conv``, ``batch_ord``),
the kernels that also build the tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import BudgetExceeded, ValidationError
from .jets import DEFAULT_BUDGET

# rows per enumeration batch: a batch's temporaries stay small enough for the
# caches (1 << 17 rows ran 1.5-2x faster than 1 << 22 on both grids)
DEFAULT_BATCH_CAP = 1 << 17
# largest Q = q^(N+1) whose ring is enumerated by lookup tables; larger rings take
# the coefficient path.  Measured on one [x1, x2, x1*x2] table enumerated
# directly, fresh process, one thread: the tables, build included, took 1.1 s at
# Q = 2048 and 0.7 s at Q = 2187 (q=3, N=6) against 3.2 s and 1.7 s for the
# coefficient path; at Q = 4096 the build alone takes 6.3 s and 64 MB, which a
# one-coordinate table never repays.  The builtin campaigns now count their
# monomial lists without enumerating and use no ring above Q = 3^5 = 243.
RING_TABLE_CAP = 3**7
# rows of random digits per draw: the random stream of a sampled count depends on it
_SAMPLE_BATCH = 1 << 22
_MAX_COMBINE = 1 << 26


# --------------------------------------------------------------------------
# batched grids and series arithmetic mod q
# --------------------------------------------------------------------------


def _grid_batches(width, base, dtype, batch_cap):
    """Yield (B, width) arrays covering the odometer grid of base-``base`` digits.

    The low digits cycle with period base^w, so one cached block is tiled and
    only the remaining high digits are computed per batch.
    """
    total = base**width
    if total > 2**62:  # pragma: no cover - beyond any practical budget
        raise BudgetExceeded("grid too large to index")

    w = 0
    while w < width and base ** (w + 1) <= min(batch_cap, total):
        w += 1
    block = base**w
    cache = np.empty((block, w), dtype=dtype)
    rem = np.arange(block, dtype=np.int64)
    for pos in range(w):
        rem, d = np.divmod(rem, base)
        cache[:, pos] = d

    n_highs = (total + block - 1) // block
    highs_per_batch = max(1, min(batch_cap // block, n_highs))
    buf = None
    for h0 in range(0, n_highs, highs_per_batch):
        h1 = min(h0 + highs_per_batch, n_highs)
        rows = min(total, h1 * block) - h0 * block
        if buf is None or buf.shape[0] < rows:
            buf = np.empty((highs_per_batch * block, width), dtype=dtype)
            reps = (buf.shape[0] + block - 1) // block
            buf[:, :w] = np.tile(cache, (reps, 1))[: buf.shape[0]]
        digits = buf[:rows]
        if w < width:
            # each high value fills one whole block of rows (block divides total)
            rem = np.arange(h0, h1, dtype=np.int64)
            for pos in range(w, width):
                rem, d = np.divmod(rem, base)
                digits.reshape(h1 - h0, block, width)[:, :, pos] = d[:, None]
        # the buffer is reused between iterations: consume before advancing
        yield digits


def iter_digit_batches(width, q, batch_cap=DEFAULT_BATCH_CAP):
    """Yield (B, width) int32 arrays covering the odometer grid of base-q digits."""
    yield from _grid_batches(width, q, np.int32, batch_cap)


def batch_conv(a, b, q):
    """Truncated product of batched series: (B, N+1) x (B, N+1) -> (B, N+1).

    Each output coefficient sums at most N+1 products of reduced
    coefficients before it is reduced, so int32 operands are exact while
    (N+1)(q-1)^2 < 2^31; ``ord_vector_distribution`` checks this at entry.
    """
    n1 = a.shape[-1]
    out = np.zeros_like(a)
    tmp = np.empty(a.shape[0], dtype=a.dtype)
    for k in range(n1):
        acc = out[:, k]
        for i in range(k + 1):
            np.multiply(a[:, i], b[:, k - i], out=tmp)
            acc += tmp
        np.mod(acc, q, out=acc)
    return out


def batch_ord(series, level):
    """Order of batched series; the sentinel level+1 marks identically-zero rows."""
    nz = series != 0
    has = nz.any(axis=-1)
    first = np.argmax(nz, axis=-1)
    return np.where(has, first, level + 1).astype(np.int64)


def eval_poly_batch(poly, coords, q):
    """Pullback series of a polynomial on a batch of jets.

    ``coords`` has shape (B, n, N+1); coefficients of ``poly`` are reduced
    mod q.  Returns (B, N+1).
    """
    var = _plain_variable_index(poly)
    if var is not None:
        return coords[:, var, :]
    B, n, width = coords.shape
    out = np.zeros((B, width), dtype=coords.dtype)
    limit = int(np.iinfo(out.dtype).max)
    bound = 0  # largest value an entry of ``out`` can hold so far
    powers = [dict() for _ in range(n)]

    def power(i, e):
        if e == 1:
            return coords[:, i, :]
        cache = powers[i]
        if e not in cache:
            half = power(i, e // 2)
            sq = batch_conv(half, half, q)
            cache[e] = sq if e % 2 == 0 else batch_conv(sq, coords[:, i, :], q)
        return cache[e]

    for exps, coeff in poly.terms.items():
        c = int(coeff) % q  # callers hand over GF(q) polynomials
        if c == 0:
            continue
        term = None
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factor = power(i, e)
            term = factor if term is None else batch_conv(term, factor, q)
        # term entries are reduced digits, so this term adds at most c*(q-1)
        if bound + c * (q - 1) > limit:
            np.mod(out, q, out=out)
            bound = q - 1
        bound += c * (q - 1)
        if term is None:
            out[:, 0] += c  # constant term
        elif c == 1:
            out += term
        else:
            out += c * term
    np.mod(out, q, out=out)
    return out


def _plain_variable_index(poly):
    """Index of v when poly == 1*v, else None (enables the no-copy fast path)."""
    if len(poly.terms) != 1:
        return None
    (exps, c), = poly.terms.items()
    if int(c) != 1 or sum(exps) != 1:
        return None
    return exps.index(1)


def _series_codes(series, q):
    """Codes of (B, N+1) coefficient rows: base-q digit i is the coefficient of t^i."""
    code = np.zeros(series.shape[0], dtype=np.int64)
    for j in reversed(range(series.shape[1])):
        code *= q
        code += series[:, j]
    return code


# --------------------------------------------------------------------------
# lookup tables of F_q[t]/(t^(N+1)) on series codes
# --------------------------------------------------------------------------


class RingTables:
    """Read-only lookup tables of O_N = F_q[t]/(t^(N+1)) on series codes in [0, Q).

    ``add`` and ``mul`` are flat Q*Q int16 tables read at a*Q + b and ``ord``
    holds the clamped order (N+1 for the zero series).  The coefficient
    kernels they replace build them, batch by batch over the Q*Q grid of pairs.
    """

    def __init__(self, q, level):
        width = level + 1
        size = q**width
        self.q, self.size = q, size
        digits = next(iter_digit_batches(width, q, batch_cap=size))
        self.ord = batch_ord(digits, level).astype(np.int8)
        self.add = np.empty(size * size, dtype=np.int16)
        self.mul = np.empty(size * size, dtype=np.int16)
        start = 0
        # row a + Q*b of the pair grid holds a's digits low and b's high
        for pairs in iter_digit_batches(2 * width, q):
            # column-major operands: the kernels read one coefficient column at a time
            a, b = np.asfortranarray(pairs[:, :width]), np.asfortranarray(pairs[:, width:])
            stop = start + pairs.shape[0]
            self.add[start:stop] = _series_codes((a + b) % q, q)
            self.mul[start:stop] = _series_codes(batch_conv(a, b, q), q)
            start = stop
        for table in (self.ord, self.add, self.mul):
            table.flags.writeable = False

    def _pair_index(self, a, b):
        idx = a.astype(np.intp)
        idx *= self.size
        idx += b
        return idx

    def plus(self, a, b):
        return self.add.take(self._pair_index(a, b))

    def times(self, a, b):
        return self.mul.take(self._pair_index(a, b))


@lru_cache(maxsize=16)
def ring_tables(q, level):
    """The ring tables of F_q[t]/(t^(level+1)), built on first use and shared.

    The 16 most recently used rings are kept.  All builtin campaigns together
    use 10 rings, none above Q = 3^5 (8 each in ``lct-known-values`` and
    ``corollary-generic-2x2``), so none is rebuilt; one at Q = RING_TABLE_CAP
    holds 19 MB.
    """
    return RingTables(q, level)


def eval_poly_codes(poly, codes, ring):
    """Pullback codes of a polynomial on a batch of jets.

    ``codes`` has shape (B, n), one series code per coordinate; coefficients
    of ``poly`` are reduced mod q.  Returns (B,) int16 codes.
    """
    var = _plain_variable_index(poly)
    if var is not None:
        return codes[:, var]
    q = ring.q
    powers = {}

    def power(i, e):
        if e == 1:
            return codes[:, i]
        if (i, e) not in powers:
            half = power(i, e // 2)
            sq = ring.times(half, half)
            powers[i, e] = sq if e % 2 == 0 else ring.times(sq, codes[:, i])
        return powers[i, e]

    out = None
    for exps, coeff in poly.terms.items():
        c = int(coeff) % q  # callers hand over GF(q) polynomials
        if c == 0:
            continue
        term = None
        for i, e in enumerate(exps):
            if e:
                term = power(i, e) if term is None else ring.times(term, power(i, e))
        if term is None:
            term = np.full(codes.shape[0], c, dtype=np.int16)  # the constant c has code c
        elif c != 1:
            term = ring.mul[c * ring.size : (c + 1) * ring.size].take(term)  # row c of mul
        out = term if out is None else ring.plus(out, term)
    return np.zeros(codes.shape[0], dtype=np.int16) if out is None else out


def _order_batches(polys, n, level, q, batch_cap, value_poly=None):
    """Walk the jet grid in batches.  Per batch yield its row count, the clamped
    pullback order of each of ``polys`` and the value code of ``value_poly``'s
    pullback (None without one).

    Within RING_TABLE_CAP the grid is n coordinate codes and a pullback is a
    chain of table gathers; above it, n(N+1) coefficient digits and int32
    series products.
    """
    if q ** (level + 1) <= RING_TABLE_CAP:
        ring = ring_tables(q, level)
        for codes in _grid_batches(n, ring.size, np.int16, batch_cap):
            cols = [ring.ord.take(eval_poly_codes(p, codes, ring)) for p in polys]
            value = None if value_poly is None else eval_poly_codes(value_poly, codes, ring)
            yield codes.shape[0], cols, value
        return
    var_slots = [(i, _plain_variable_index(p)) for i, p in enumerate(polys)]
    plain = {i: v for i, v in var_slots if v is not None}
    for digits in iter_digit_batches(n * (level + 1), q, batch_cap):
        coords = digits.reshape(digits.shape[0], n, level + 1)
        coord_ords = batch_ord(coords, level) if plain else None  # (B, n) in one pass
        cols = [
            coord_ords[:, plain[i]] if i in plain else batch_ord(eval_poly_batch(p, coords, q), level)
            for i, p in enumerate(polys)
        ]
        value = None if value_poly is None else _series_codes(eval_poly_batch(value_poly, coords, q), q)
        yield digits.shape[0], cols, value


# --------------------------------------------------------------------------
# key handling
# --------------------------------------------------------------------------


def _encode_ord_vectors(ord_cols, level):
    """Mixed-radix encode a list of (B,) ord arrays into one int64 code array."""
    base = level + 2
    code = np.zeros(ord_cols[0].shape[0], dtype=np.int64)
    for col in reversed(ord_cols):
        code *= base
        code += col
    return code


def _decode_ord_code(code, k, level):
    base = level + 2
    out = []
    for _ in range(k):
        out.append(int(code % base))
        code //= base
    return tuple(out)


def _accumulate(table, codes, k, level):
    """Add the batch's code counts into the running python dict."""
    uniq, cnt = np.unique(codes, return_counts=True)
    for code, c in zip(uniq.tolist(), cnt.tolist()):
        key = _decode_ord_code(code, k, level)
        table[key] = table.get(key, 0) + int(c)


# --------------------------------------------------------------------------
# strategy: direct enumeration
# --------------------------------------------------------------------------


def _direct_distribution(polys, n, level, q, batch_cap):
    width = n * (level + 1)
    if not polys:
        return {(): q**width}
    k = len(polys)
    base = level + 2
    dense_size = base**k
    use_bincount = dense_size <= (1 << 22)
    dense = np.zeros(dense_size, dtype=np.int64) if use_bincount else None
    table = {}
    for _, cols, _ in _order_batches(polys, n, level, q, batch_cap):
        codes = _encode_ord_vectors(cols, level)
        if use_bincount:
            dense += np.bincount(codes, minlength=dense_size)
        else:
            _accumulate(table, codes, k, level)
    if use_bincount:
        for code in np.nonzero(dense)[0].tolist():
            table[_decode_ord_code(code, k, level)] = int(dense[code])
    return table


# --------------------------------------------------------------------------
# strategy: shift split
# --------------------------------------------------------------------------


def _variable_occurrences(polys, n):
    """occ[v] = list of (poly index, exponent vector) of terms containing v."""
    occ = [[] for _ in range(n)]
    for pi, p in enumerate(polys):
        for exps in p.terms:
            for v, e in enumerate(exps):
                if e:
                    occ[v].append((pi, exps))
    return occ


def _find_shift_assignment(polys, n):
    """Map poly index -> shift variable, for variables usable as uniform shifts."""
    occ = _variable_occurrences(polys, n)
    assigned = {}
    used_polys = set()
    for v in range(n):
        if len(occ[v]) != 1:
            continue
        pi, exps = occ[v][0]
        if pi in used_polys:
            continue
        # the term must be exactly c * v
        if exps[v] != 1 or any(e for w, e in enumerate(exps) if w != v):
            continue
        assigned[pi] = v
        used_polys.add(pi)
    return assigned


def ord_value_counts(level, q):
    """How many level-N series have each order: (q-1) q^(N-e), and 1 for the sentinel."""
    d = [(q - 1) * q ** (level - e) for e in range(level + 1)]
    d.append(1)
    return d


def _shift_split_distribution(polys, n, level, q, budget, batch_cap):
    assigned = _find_shift_assignment(polys, n)
    if not assigned:
        return None
    shift_vars = sorted(assigned.values())
    keep_vars = [v for v in range(n) if v not in shift_vars]
    b_width = len(keep_vars) * (level + 1)
    if q**b_width > budget:
        return None

    # Re-express the non-shift polynomials over the kept variables.
    keep_names = [polys[0].variables[v] for v in keep_vars] if polys else []
    b_polys = []
    b_index = []
    for pi, p in enumerate(polys):
        if pi in assigned:
            continue
        reduced = _restrict_poly(p, keep_vars, keep_names)
        if reduced is None:
            return None  # mentions a shift variable: not eligible
        b_polys.append(reduced)
        b_index.append(pi)

    if keep_vars:
        b_table = _direct_distribution(b_polys, len(keep_vars), level, q, batch_cap)
    else:
        b_table = {(): 1}

    dvals = ord_value_counts(level, q)
    shift_polys = sorted(assigned)  # poly indices using a shift variable
    table = {}

    def expand(prefix_counts):
        # tensor the unconditional order distribution for each shift poly
        items = list(prefix_counts.items())
        for _ in shift_polys:
            nxt = []
            for key, cnt in items:
                for e, d in enumerate(dvals):
                    nxt.append((key + (e,), cnt * d))
            items = nxt
        return items

    for b_key, b_count in b_table.items():
        for tail, cnt in expand({(): b_count}):
            full = [None] * len(polys)
            for slot, e in zip(b_index, b_key):
                full[slot] = e
            for slot, e in zip(shift_polys, tail):
                full[slot] = e
            table_key = tuple(full)
            table[table_key] = table.get(table_key, 0) + cnt
    return table


def _restrict_poly(p, keep_vars, keep_names):
    """View p in the kept variables; None if it mentions a dropped one."""
    out_terms = {}
    for exps, c in p.terms.items():
        new = []
        for v in keep_vars:
            new.append(exps[v])
        if sum(exps) != sum(new):
            return None
        out_terms[tuple(new)] = c
    from .poly import MultiPoly

    r = MultiPoly(p.field, keep_names)
    r.terms = dict(out_terms)
    return r


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


def _negation_permutation(q, width):
    codes = np.arange(q**width, dtype=np.int64)
    neg = np.zeros_like(codes)
    rem = codes.copy()
    mult = 1
    for _ in range(width):
        d = rem % q
        neg += ((q - d) % q) * mult
        rem //= q
        mult *= q
    return neg


def _side_table(polys_side, split_part, side_vars, all_names, level, q, batch_cap):
    """Enumerate one block: counts indexed by (ord-key of side polys, value code
    of the split polynomial's part on this side)."""
    names = [all_names[v] for v in side_vars]
    reduced = [_restrict_poly(p, side_vars, names) for p in polys_side]
    split_red = _restrict_poly(split_part, side_vars, names) if split_part is not None else None
    vspace = q ** (level + 1)

    out = {}
    for rows, cols, vcode in _order_batches(reduced, len(side_vars), level, q, batch_cap, split_red):
        key_code = _encode_ord_vectors(cols, level) if cols else np.zeros(rows, dtype=np.int64)
        key_code *= vspace
        if vcode is not None:
            key_code += vcode
        uniq, cnt = np.unique(key_code, return_counts=True)
        for code, c in zip(uniq.tolist(), cnt.tolist()):
            kc, vc = divmod(code, vspace)
            key = _decode_ord_code(kc, len(reduced), level)
            vec = out.setdefault(key, np.zeros(vspace, dtype=np.int64))
            vec[vc] += c
    return out


def _split_blocks(polys, n):
    """Greedy balance of the term components over two blocks by digit width:
    the sorted variables of each block, or None for a single component."""
    comps = _term_components(polys, n)
    if len(comps) < 2:
        return None
    vars_a, vars_b = [], []
    for comp in sorted(comps, key=len, reverse=True):
        (vars_a if len(vars_a) <= len(vars_b) else vars_b).extend(comp)
    return sorted(vars_a), sorted(vars_b)


def _additive_split_distribution(polys, n, level, q, budget, batch_cap):
    blocks = _split_blocks(polys, n)
    if blocks is None:
        return None
    vars_a, vars_b = blocks
    wa, wb = len(vars_a) * (level + 1), len(vars_b) * (level + 1)
    if q**wa > budget or q**wb > budget:
        return None
    if q ** (wa + wb) >= 2**63:
        return None  # the combine counts pairs of jets in int64

    set_a = set(vars_a)
    side_a_polys, side_b_polys, split_idx = [], [], []
    split_poly = None
    for pi, p in enumerate(polys):
        sides = set()
        for exps in p.terms:
            vs = {v for v, e in enumerate(exps) if e}
            if vs <= set_a:
                sides.add("A")
            elif vs and not (vs & set_a):
                sides.add("B")
            elif not vs:
                sides.add("const")
            else:
                return None  # a term straddles the blocks: components were wrong
        if sides <= {"A", "const"} and "A" in sides:
            side_a_polys.append((pi, p))
        elif sides <= {"B", "const"} and "B" in sides:
            side_b_polys.append((pi, p))
        elif sides == {"const"} or not sides:
            side_a_polys.append((pi, p))  # constant: evaluate anywhere
        else:
            if split_poly is not None:
                return None  # at most one additively split polynomial
            split_poly = (pi, p)
            split_idx.append(pi)

    names = polys[0].variables if polys else ()

    def split_parts(p):
        from .poly import MultiPoly

        pa = MultiPoly(p.field, names)
        pb = MultiPoly(p.field, names)
        ta, tb = {}, {}
        for exps, c in p.terms.items():
            vs = {v for v, e in enumerate(exps) if e}
            (ta if (vs <= set_a) else tb)[exps] = c
        pa.terms, pb.terms = ta, tb
        return pa, pb

    part_a = part_b = None
    if split_poly is not None:
        part_a, part_b = split_parts(split_poly[1])

    tab_a = _side_table([p for _, p in side_a_polys], part_a, vars_a, names, level, q, batch_cap)
    tab_b = _side_table([p for _, p in side_b_polys], part_b, vars_b, names, level, q, batch_cap)

    if len(tab_a) * len(tab_b) * (q ** (level + 1)) > _MAX_COMBINE:
        return None

    keys_a, keys_b = list(tab_a), list(tab_b)
    mat_a, mat_b = np.stack(list(tab_a.values())), np.stack(list(tab_b.values()))
    if split_poly is None:
        # no value codes to match: a pair of keys counts the product of the two totals
        by_ord = np.outer(mat_a.sum(axis=1), mat_b.sum(axis=1))[None]
    else:
        vwidth = level + 1
        # digitwise negation of value codes; on codes below q^o it negates the o-digit prefix
        neg = _negation_permutation(q, vwidth)
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
    keys[:, [pi for pi, _ in side_a_polys]] = np.array(keys_a, dtype=np.int64)[i]
    keys[:, [pi for pi, _ in side_b_polys]] = np.array(keys_b, dtype=np.int64)[j]
    keys[:, split_idx] = o[:, None]
    return dict(zip(map(tuple, keys.tolist()), by_ord[o, i, j].tolist()))


# --------------------------------------------------------------------------
# strategy: monomial
# --------------------------------------------------------------------------


def _monomial_distribution(polys, n, level, q):
    """Table of a list of monomials, from coordinate orders alone.

    With e the vector of clamped coordinate orders, ord(c x^a) = min(<a, e>, N+1)
    (a unit times t^<a, e>), so the table is the product of ``ord_value_counts``
    over the (N+2)^n cells e, reduced by that key.  The cells are summed one
    coordinate at a time, keyed by the partial clamped sums, in Python ints.
    """
    top = level + 1
    weights = ord_value_counts(level, q)
    exps = [next(iter(p.terms), None) for p in polys]  # None: the zero polynomial
    table = {tuple(top if a is None else 0 for a in exps): 1}
    for v in range(n):
        col = [0 if a is None else a[v] for a in exps]
        if not any(col):
            table = {key: cnt * q**top for key, cnt in table.items()}  # sum(weights) = q^(N+1)
            continue
        nxt = {}
        for key, cnt in table.items():
            for e, w in enumerate(weights):
                new = tuple(min(s + e * c, top) for s, c in zip(key, col))
                nxt[new] = nxt.get(new, 0) + cnt * w
        table = nxt
    return table


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def _shift_split_cost(polys, n, level, q):
    assigned = _find_shift_assignment(polys, n)
    if not assigned:
        return None
    b_width = (n - len(assigned)) * (level + 1)
    return q**b_width


def _additive_split_cost(polys, n, level, q):
    blocks = _split_blocks(polys, n)
    if blocks is None:
        return None
    return sum(q ** (len(vs) * (level + 1)) for vs in blocks)


def _monomial_cost(polys, n, level):
    if any(len(p.terms) > 1 for p in polys):
        return None
    return (level + 2) ** n


def ord_vector_distribution(polys, n, level, q, budget=DEFAULT_BUDGET, prefer="cheapest"):
    """Exact jet counts keyed by the clamped order vector of the given polynomials.

    Keys are tuples with one entry per polynomial, each in {0..level} or
    level+1 (the truncation sentinel).  ``prefer`` is "direct" (full
    enumeration whenever it fits the budget, the other strategies as fallback)
    or "cheapest", the default (lowest estimated cost first: jets enumerated,
    or (N+2)^n coordinate-order cells for the monomial strategy).  All
    strategies are exact and interchangeable.  Raises BudgetExceeded when
    nothing fits.
    """
    if (level + 1) * (q - 1) ** 2 >= 2**31:
        raise BudgetExceeded(
            f"int32 series products overflow at q={q}, level {level}: need (N+1)(q-1)^2 < 2^31"
        )
    from .fields import GF

    gfq = GF(q)
    polys = [p if p.field == gfq else p.map_coeffs(gfq) for p in polys]
    size = q ** (n * (level + 1))

    costs = {
        "direct": size,
        "shift": _shift_split_cost(polys, n, level, q),
        "additive": _additive_split_cost(polys, n, level, q),
        "monomial": _monomial_cost(polys, n, level),
    }
    plans = [(name, cost) for name, cost in costs.items() if cost is not None]
    if prefer == "cheapest":
        order = [name for name, cost in sorted(plans, key=lambda nc: nc[1]) if cost <= budget]
    else:
        order = [name for name, cost in plans if cost <= budget]
    # keep the split strategies as fallbacks past the budget; they self-check it
    order += [name for name in ("shift", "additive") if name not in order and costs[name] is not None]

    for name in order:
        if name == "direct":
            return _direct_distribution(polys, n, level, q, DEFAULT_BATCH_CAP)
        if name == "monomial":
            return _monomial_distribution(polys, n, level, q)
        if name == "shift":
            t = _shift_split_distribution(polys, n, level, q, budget, DEFAULT_BATCH_CAP)
        else:
            t = _additive_split_distribution(polys, n, level, q, budget, DEFAULT_BATCH_CAP)
        if t is not None:
            return t
    raise BudgetExceeded(
        f"jet space has {size} points, over the budget {budget}, and no exact split applies"
    )


def contact_order_table(ideals, n, level, q, budget=DEFAULT_BUDGET, prefer="cheapest"):
    """Exact jet counts keyed by the contact order along each ideal.

    ``ideals`` is a list of non-empty generator lists.  A key holds one
    entry per ideal: the least clamped pullback order of its generators,
    in {0..level} or level+1 (the truncation sentinel).  ``prefer`` is
    passed to ``ord_vector_distribution``.
    """
    if any(not gens for gens in ideals):
        raise ValidationError("an ideal needs at least one generator")
    polys = [g for gens in ideals for g in gens]
    table = ord_vector_distribution(polys, n, level, q, budget=budget, prefer=prefer)
    ends = list(accumulate(len(gens) for gens in ideals))
    spans = list(zip([0] + ends, ends))
    out = {}
    for key, cnt in table.items():
        orders = tuple(min(key[a:b]) for a, b in spans)
        out[orders] = out.get(orders, 0) + cnt
    return out


def sample_ord_hits(gens, n, level, q, mode, m, samples, rng):
    """Monte Carlo hit count for an order condition; returns (hits, samples)."""
    from .fields import GF

    gfq = GF(q)
    gens = [g if g.field == gfq else g.map_coeffs(gfq) for g in gens]
    width = n * (level + 1)
    hits = 0
    done = 0
    while done < samples:
        b = min(_SAMPLE_BATCH, samples - done)
        digits = rng.integers(0, q, size=(b, width), dtype=np.int64)
        coords = digits.reshape(b, n, level + 1)
        best = None
        for g in gens:
            o = batch_ord(eval_poly_batch(g, coords, q), level)
            best = o if best is None else np.minimum(best, o)
        if mode == "exact":
            hits += int((best == m).sum())
        else:
            hits += int((best >= m).sum())
        done += b
    return hits, samples


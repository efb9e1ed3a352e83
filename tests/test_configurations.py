"""Configuration pipeline: Patterson matrices, matroids, 1-genericity."""

from fractions import Fraction
from itertools import combinations, product

import pytest

import arcdet.configurations
import arcdet.matrices
from hypothesis import assume, example, given, settings, strategies as st

from arcdet import QQ, MultiPoly, parse_poly
from arcdet.configurations import (
    ConfigurationMatrix,
    _echelon,
    _null_vector,
    cauchy_binet_expansion,
    configuration_lct_campaign,
    hadamard_one_generic,
    is_connected,
    is_square_free,
    linear_one_generic,
    patterson_matrix,
)
from arcdet.errors import InternalInvariantError, ValidationError
from arcdet.matrices import PolyMatrix, det_division_free


def triangle():
    return ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])


def identity2():
    return ConfigurationMatrix.from_rows([[1, 0], [0, 1]])


def linear_matrix(C):
    """The matrix sum_k C[k] x_k for a list of r x r coefficient matrices."""
    names = tuple(f"x{k + 1}" for k in range(len(C)))
    r = len(C[0])
    unit = [tuple(int(k == e) for e in range(len(C))) for k in range(len(C))]
    return PolyMatrix([
        [MultiPoly(QQ, names, {unit[k]: Fraction(C[k][i][j]) for k in range(len(C))}) for j in range(r)]
        for i in range(r)
    ])


def bilinear_form(A, v, w):
    """v^T A w, with v and w given as rational strings."""
    total = MultiPoly.zero(QQ, A.variables)
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            total = total + MultiPoly.constant(QQ, A.variables, Fraction(vi) * Fraction(wj)) * A.entry(i, j)
    return total


def constant_det(rows):
    """det of a rational matrix by the division-free symbolic expansion."""
    entries = [[MultiPoly.constant(QQ, ("x1",), v) for v in row] for row in rows]
    return det_division_free(PolyMatrix(entries)).terms.get((0,), Fraction(0))


rationals = st.builds(Fraction, st.sampled_from([0, 0, 0, 1, -1, 2, -3]), st.integers(1, 3))


class TestEchelon:
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_division_free_minors(self, k, m, data):
        rows = [[data.draw(rationals) for _ in range(m)] for _ in range(k)]
        echelon, pivots, det = _echelon(rows)
        if k == m:
            assert det == constant_det(rows)
        else:
            assert det is None
        rank = max(
            (size for size in range(1, min(k, m) + 1)
             for ri in combinations(range(k), size)
             for ci in combinations(range(m), size)
             if constant_det([[rows[i][j] for j in ci] for i in ri]) != 0),
            default=0,
        )
        assert len(pivots) == len(echelon) == rank
        # kernel of c -> c . rows, read off the echelon form of the transpose
        echelon_t, pivots_t, _ = _echelon([list(col) for col in zip(*rows)])
        c = _null_vector(echelon_t, pivots_t, k)
        if rank == k:
            assert c is None
        else:
            assert any(c)
            assert all(sum(c[i] * rows[i][j] for i in range(k)) == 0 for j in range(m))


class TestPatterson:
    def test_identity_gives_diagonal(self):
        cfg = identity2()
        A = patterson_matrix(cfg)
        assert str(det_division_free(A)) == "x1*x2"

    def test_triangle(self):
        A = patterson_matrix(triangle())
        assert str(A.entry(0, 0)) == "x1 + x2"
        assert str(A.entry(0, 1)) == "-x2"
        assert str(det_division_free(A)) == "x1*x2 + x1*x3 + x2*x3"

    def test_symmetry(self):
        A = patterson_matrix(ConfigurationMatrix.from_rows([[1, 2, 0], [1, 0, -1]]))
        for i in range(2):
            for j in range(2):
                assert A.entry(i, j) == A.entry(j, i)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValidationError):
            ConfigurationMatrix.from_rows([[1, 1], [0, 0]])

    def test_permutation_equivariance(self):
        # permuting ground elements permutes the variables of det(A)
        cfg = triangle()
        perm = [2, 0, 1]
        permuted = ConfigurationMatrix.from_rows(
            [[cfg.d[i][perm[j]] for j in range(3)] for i in range(2)]
        )
        d1 = det_division_free(patterson_matrix(cfg))
        d2 = det_division_free(patterson_matrix(permuted))
        relabeled = {}
        for exps, c in d1.terms.items():
            new = tuple(exps[perm[k]] for k in range(3))
            relabeled[new] = c
        assert relabeled == d2.terms


class TestCauchyBinet:
    def test_triangle_coefficients(self):
        exp = cauchy_binet_expansion(triangle(), det_division_free(patterson_matrix(triangle())))
        assert exp == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_identity_single_term(self):
        exp = cauchy_binet_expansion(identity2(), det_division_free(patterson_matrix(identity2())))
        assert exp == {(0, 1): 1}

    def test_squared_coefficients(self):
        cfg = ConfigurationMatrix.from_rows([[1, 2]])
        exp = cauchy_binet_expansion(cfg, det_division_free(patterson_matrix(cfg)))
        assert exp == {(0,): 1, (1,): 4}

    def test_positive_coefficients_and_support(self):
        cfg = ConfigurationMatrix.from_rows([[1, -1, 0, 2], [0, 1, -1, 1]])
        exp = cauchy_binet_expansion(cfg, det_division_free(patterson_matrix(cfg)))
        assert all(c > 0 for c in exp.values())
        assert set(exp) == {idx for idx, _ in cfg.basis_dets}

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_table_feeds_the_matroid_and_the_expansion(self, r, data):
        n = data.draw(st.integers(r, 6))
        try:
            cfg = ConfigurationMatrix.from_rows([[data.draw(rationals) for _ in range(n)] for _ in range(r)])
        except ValidationError:
            assume(False)  # rank-deficient draw
        dets = dict(cfg.basis_dets)
        for idx in combinations(range(n), r):
            assert dets.get(idx, 0) == _echelon(cfg.columns(idx))[2]
        assert list(dets) == sorted(dets)
        det = det_division_free(patterson_matrix(cfg))
        terms = {tuple(k for k, e in enumerate(exps) if e): c for exps, c in det.terms.items()}
        assert cauchy_binet_expansion(cfg, det) == terms

    def test_a_wrong_determinant_is_caught(self):
        cfg = triangle()
        det = det_division_free(patterson_matrix(cfg))
        with pytest.raises(InternalInvariantError, match="disagrees"):
            cauchy_binet_expansion(cfg, det * Fraction(2))

    @pytest.mark.parametrize("g,det_g", [
        ([[2, 1], [1, 1]], 1),
        ([[3, 0], [1, 2]], 6),
        ([[0, 1], [-2, 0]], 2),
    ])
    def test_basis_change_scales_by_square(self, g, det_g):
        cfg = ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
        rows = [
            [sum(Fraction(g[i][k]) * cfg.d[k][j] for k in range(2)) for j in range(3)]
            for i in range(2)
        ]
        cfg2 = ConfigurationMatrix.from_rows(rows)
        assert [idx for idx, _ in cfg.basis_dets] == [idx for idx, _ in cfg2.basis_dets]
        assert is_connected(cfg) == is_connected(cfg2)
        assert hadamard_one_generic(cfg).one_generic == hadamard_one_generic(cfg2).one_generic
        d1 = det_division_free(patterson_matrix(cfg))
        d2 = det_division_free(patterson_matrix(cfg2))
        assert d2 == d1 * Fraction(det_g * det_g)


class TestMatroid:
    def test_uniform_triangle(self):
        assert [idx for idx, _ in triangle().basis_dets] == [(0, 1), (0, 2), (1, 2)]

    def test_identity_single_basis(self):
        assert [idx for idx, _ in identity2().basis_dets] == [(0, 1)]

    def test_rank_one_two_bases(self):
        assert [idx for idx, _ in ConfigurationMatrix.from_rows([[1, 1]]).basis_dets] == [(0,), (1,)]

    def test_connectivity(self):
        assert is_connected(triangle())
        assert not is_connected(identity2())
        assert is_connected(ConfigurationMatrix.from_rows([[1]]))

    def test_basis_exchange_spot_check(self):
        import random

        rng = random.Random("exchange")
        done = 0
        while done < 12:
            r = rng.randint(2, 3)
            n = rng.randint(r + 1, 6)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            try:
                cfg = ConfigurationMatrix.from_rows(rows)
            except ValidationError:
                continue
            bases = [idx for idx, _ in cfg.basis_dets]
            if len(bases) < 2:
                continue
            for _ in range(10):
                b1 = set(rng.choice(bases))
                b2 = set(rng.choice(bases))
                for x in b1 - b2:
                    assert any(
                        tuple(sorted((b1 - {x}) | {y})) in set(bases) for y in b2 - b1
                    ), (rows, b1, b2, x)
            done += 1

    def test_rank_function(self):
        cfg = triangle()
        assert cfg.column_rank([0]) == 1
        assert cfg.column_rank([0, 1]) == 2
        assert cfg.column_rank([]) == 0


class TestSquareFree:
    def test_examples(self):
        vs = ["x1", "x2", "x3"]
        assert is_square_free(parse_poly("x1*x2 + x2*x3", vs))
        assert not is_square_free(parse_poly("x1^2", vs))
        assert is_square_free(parse_poly("5", vs))

    def test_patterson_always_square_free(self):
        import random

        rng = random.Random("sqfree")
        done = 0
        while done < 30:
            r = rng.randint(1, 3)
            n = rng.randint(r, 5)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            try:
                cfg = ConfigurationMatrix.from_rows(rows)
            except ValidationError:
                continue
            assert is_square_free(det_division_free(patterson_matrix(cfg)))
            done += 1


class TestHadamard:
    def test_identity_not_generic(self):
        v = hadamard_one_generic(identity2())
        assert not v.one_generic
        assert v.witness is not None

    def test_triangle_generic(self):
        assert hadamard_one_generic(triangle()).one_generic

    def test_rank_one_full_support(self):
        assert hadamard_one_generic(ConfigurationMatrix.from_rows([[1, 1]])).one_generic

    def test_witness_is_the_first_free_kernel_vector(self):
        # w is supported in {2, 3}: its coefficient vector c has two free
        # coordinates, and the first of them is set to 1
        v = hadamard_one_generic(ConfigurationMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert v.witness == {"split": [[0], [1, 2]], "v": ["1", "0", "0"], "w": ["0", "1", "0"]}

    def test_witness_vectors_have_disjoint_support(self):
        v = hadamard_one_generic(identity2())
        vec_v = [Fraction(x) for x in v.witness["v"]]
        vec_w = [Fraction(x) for x in v.witness["w"]]
        assert any(vec_v) and any(vec_w)
        assert all(a * b == 0 for a, b in zip(vec_v, vec_w))


class TestLinearGenericity:
    def test_generic_matrix(self):
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
        v = linear_one_generic(A)
        assert v.one_generic and v.confirmed

    def test_symmetric_witness(self):
        vs = ("x1", "x2")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x2", vs), parse_poly("x1", vs)]])
        v = linear_one_generic(A)
        assert not v.one_generic
        assert v.witness is not None

    def test_witness_at_v_equal_one_zero(self):
        # v = (1, 0), w = (7, -11) kills every coefficient matrix; no residue
        # tuple lifts to it, so the rank-one certificate has to find it
        vs = ("x1", "x2", "x3")
        A = PolyMatrix([
            [parse_poly("11*x1", vs), parse_poly("7*x1", vs)],
            [parse_poly("x2", vs), parse_poly("x3", vs)],
        ])
        verdict = linear_one_generic(A)
        assert not verdict.one_generic and verdict.confirmed
        v, w = verdict.witness["v"], verdict.witness["w"]
        assert any(Fraction(x) for x in v) and any(Fraction(x) for x in w)
        assert bilinear_form(A, v, w).is_zero()

    @given(
        st.integers(1, 2).flatmap(lambda r: st.tuples(
            st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any),
            st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any),
            st.lists(st.lists(st.integers(-3, 3), min_size=r * r, max_size=r * r), min_size=1, max_size=4),
        ))
    )
    @example(([1, 2], [0, 1], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 2, 0, -1]]))  # w_1 = 0
    @settings(max_examples=150, deadline=None)
    def test_certificate_finds_planted_witness(self, drawn):
        v, w, flats = drawn
        r = len(v)
        # project each random C_k orthogonally to B = v w^T, so v^T C_k w = 0
        B = [vi * wj for vi in v for wj in w]
        norm = sum(b * b for b in B)
        planes = [[norm * c - sum(x * b for x, b in zip(flat, B)) * b for c, b in zip(flat, B)] for flat in flats]
        A = linear_matrix([[plane[i * r : (i + 1) * r] for i in range(r)] for plane in planes])
        assert bilinear_form(A, v, w).is_zero()
        verdict = linear_one_generic(A, primes=())
        assert not verdict.one_generic and verdict.confirmed
        if "v" in verdict.witness:
            assert bilinear_form(A, verdict.witness["v"], verdict.witness["w"]).is_zero()

    @given(st.integers(1, 3).flatmap(lambda r: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=r * r, max_size=r * r), min_size=1, max_size=3,
    )))
    @settings(max_examples=60, deadline=None)
    def test_search_returns_the_first_residue_witness(self, flats):
        # reference loop: an exact zero vanishes mod q too, so the search
        # returns the first (q, v, w), v outer and w inner, that is exact
        r = round(len(flats[0]) ** 0.5)
        planes = [[flat[i * r : (i + 1) * r] for i in range(r)] for flat in flats]
        tuples = {q: [t for t in product(range(q), repeat=r) if any(t)] for q in (2, 3)}
        expected = next((
            {"v": [str(x) for x in v], "w": [str(x) for x in w]}
            for q in (2, 3) for v in tuples[q] for w in tuples[q]
            if all(sum(v[i] * plane[i][j] * w[j] for i in range(r) for j in range(r)) == 0 for plane in planes)
        ), None)
        verdict = linear_one_generic(linear_matrix(planes), primes=(2, 3))
        if expected is not None:
            assert not verdict.one_generic and verdict.witness == expected
        else:
            assert verdict.confirmed == (r <= 2)

    def test_agrees_with_hadamard_on_patterson(self):
        for cfg in (identity2(), triangle(), ConfigurationMatrix.from_rows([[1, 1]])):
            had = hadamard_one_generic(cfg)
            lin = linear_one_generic(patterson_matrix(cfg))
            assert had.one_generic == lin.one_generic

    def test_cross_oracle_sweep(self):
        # all full-rank 2 x 3 sign matrices
        checked = 0
        for flat in product((-1, 0, 1), repeat=6):
            try:
                cfg = ConfigurationMatrix.from_rows([flat[:3], flat[3:]])
            except ValidationError:
                continue  # rank-deficient draw
            assert hadamard_one_generic(cfg).one_generic == linear_one_generic(patterson_matrix(cfg)).one_generic
            checked += 1
        assert checked > 100


class TestCampaign:
    def test_triangle(self):
        rep = configuration_lct_campaign(triangle(), 3, primes=(2, 3))
        assert rep.payload()["square_free"]
        assert rep.connected
        assert rep.one_generic.one_generic
        assert rep.corollary.lct_z.estimate == 1
        assert rep.corollary.lct_w == 2
        assert rep.payload()["verdict"] == "PASS"

    def test_the_determinant_is_expanded_once(self, monkeypatch):
        # the pair's tower holds the one maximal minor, and the Cauchy-Binet
        # check reads it instead of expanding det(D diag(x) D^T) again
        expanded = []
        expand = arcdet.matrices.det_division_free

        def spy(matrix):
            expanded.append(matrix)
            return expand(matrix)

        for module in (arcdet.matrices, arcdet.configurations):
            monkeypatch.setattr(module, "det_division_free", spy, raising=False)
        configuration_lct_campaign(triangle(), 1, primes=(2, 3))
        assert [(type(m), m.rows, m.cols) for m in expanded if m.rows > 1] == [(PolyMatrix, 2, 2)]

    def test_disconnected_identity(self):
        rep = configuration_lct_campaign(identity2(), 3, primes=(2, 3))
        assert not rep.connected
        assert rep.corollary.lct_z.estimate == 1  # det = x1 x2 is square-free
        assert rep.payload()["square_free"]

    def test_rank_one_smooth(self):
        rep = configuration_lct_campaign(ConfigurationMatrix.from_rows([[1, 1]]), 3, primes=(2, 3))
        assert rep.corollary.lct_z.estimate == 1


class TestGraphIngestion:
    def test_triangle_graph(self):
        cfg = ConfigurationMatrix.from_graph(3, [(1, 2), (2, 3), (1, 3)])
        assert len(cfg.basis_dets) == 3  # three spanning trees
        d = det_division_free(patterson_matrix(cfg))
        assert str(d) == "x1*x2 + x1*x3 + x2*x3"

    def test_bad_edge(self):
        with pytest.raises(ValidationError):
            ConfigurationMatrix.from_graph(3, [(1, 4)])

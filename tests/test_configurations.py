"""Configuration pipeline: Patterson matrices, matroids, 1-genericity."""

from fractions import Fraction
from itertools import product

import pytest

from arcdet import parse_poly
from arcdet.configurations import (
    ConfigurationMatrix,
    cauchy_binet_expansion,
    configuration_lct_campaign,
    hadamard_one_generic,
    incidence_jacobian,
    is_connected,
    is_square_free,
    linear_one_generic,
    matroid_from_columns,
    patterson_matrix,
)
from arcdet.errors import ValidationError
from arcdet.matrices import PolyMatrix, det_division_free


def triangle():
    return ConfigurationMatrix.from_rows([[1, -1, 0], [0, 1, -1]])


def identity2():
    return ConfigurationMatrix.from_rows([[1, 0], [0, 1]])


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
        exp = cauchy_binet_expansion(triangle()).as_dict()
        assert exp == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_identity_single_term(self):
        exp = cauchy_binet_expansion(identity2()).as_dict()
        assert exp == {(0, 1): 1}

    def test_squared_coefficients(self):
        exp = cauchy_binet_expansion(ConfigurationMatrix.from_rows([[1, 2]])).as_dict()
        assert exp == {(0,): 1, (1,): 4}

    def test_positive_coefficients_and_support(self):
        cfg = ConfigurationMatrix.from_rows([[1, -1, 0, 2], [0, 1, -1, 1]])
        exp = cauchy_binet_expansion(cfg).as_dict()
        assert all(c > 0 for c in exp.values())
        assert set(exp) == set(matroid_from_columns(cfg).bases)

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
        assert matroid_from_columns(cfg).bases == matroid_from_columns(cfg2).bases
        assert is_connected(matroid_from_columns(cfg)) == is_connected(matroid_from_columns(cfg2))
        assert hadamard_one_generic(cfg).one_generic == hadamard_one_generic(cfg2).one_generic
        d1 = det_division_free(patterson_matrix(cfg))
        d2 = det_division_free(patterson_matrix(cfg2))
        assert d2 == d1 * Fraction(det_g * det_g)


class TestMatroid:
    def test_uniform_triangle(self):
        m = matroid_from_columns(triangle())
        assert m.bases == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_identity_single_basis(self):
        assert matroid_from_columns(identity2()).bases == frozenset({(0, 1)})

    def test_rank_one_two_bases(self):
        m = matroid_from_columns(ConfigurationMatrix.from_rows([[1, 1]]))
        assert m.bases == frozenset({(0,), (1,)})

    def test_connectivity(self):
        assert is_connected(matroid_from_columns(triangle()))
        assert not is_connected(matroid_from_columns(identity2()))
        assert is_connected(matroid_from_columns(ConfigurationMatrix.from_rows([[1]])))

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
            bases = sorted(matroid_from_columns(cfg).bases)
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
        m = matroid_from_columns(triangle())
        assert m.rank_of([0]) == 1
        assert m.rank_of([0, 1]) == 2
        assert m.rank_of([]) == 0


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


class TestJacobian:
    def test_generic_block(self):
        vs = ("x1", "x2", "x3", "x4")
        A = PolyMatrix([[parse_poly("x1", vs), parse_poly("x2", vs)], [parse_poly("x3", vs), parse_poly("x4", vs)]])
        J = incidence_jacobian(A)
        assert J.rows == 2 and J.cols == 6
        b = [[str(J.entry(i, 2 + k)) for k in range(4)] for i in range(2)]
        assert b[0] == ["y1", "y2", "0", "0"]
        assert b[1] == ["0", "0", "y1", "y2"]

    def test_diag_single_variable(self):
        vs = ("x1",)
        from arcdet import MultiPoly, QQ

        x1 = parse_poly("x1", vs)
        zero = MultiPoly.zero(QQ, vs)
        J = incidence_jacobian(PolyMatrix([[x1, zero], [zero, x1]]))
        assert [str(J.entry(0, 2)), str(J.entry(1, 2))] == ["y1", "y2"]

    def test_zero_matrix_rejected(self):
        from arcdet import MultiPoly, QQ

        zero = MultiPoly.zero(QQ, ("x1",))
        with pytest.raises(ValidationError):
            incidence_jacobian(PolyMatrix([[zero, zero], [zero, zero]]))


class TestCampaign:
    def test_triangle(self):
        rep = configuration_lct_campaign(triangle(), 3, primes=(2, 3))
        assert rep.square_free
        assert rep.connected
        assert rep.one_generic.one_generic
        assert rep.corollary.lct_z.estimate == 1
        assert rep.corollary.lct_w == 2
        assert rep.verdict == "PASS"

    def test_disconnected_identity(self):
        rep = configuration_lct_campaign(identity2(), 3, primes=(2, 3))
        assert not rep.connected
        assert rep.corollary.lct_z.estimate == 1  # det = x1 x2 is square-free
        assert rep.square_free

    def test_rank_one_smooth(self):
        rep = configuration_lct_campaign(ConfigurationMatrix.from_rows([[1, 1]]), 3, primes=(2, 3))
        assert rep.corollary.lct_z.estimate == 1


class TestGraphIngestion:
    def test_triangle_graph(self):
        cfg = ConfigurationMatrix.from_graph(3, [(1, 2), (2, 3), (1, 3)])
        m = matroid_from_columns(cfg)
        assert len(m.bases) == 3  # three spanning trees
        d = det_division_free(patterson_matrix(cfg))
        assert str(d) == "x1*x2 + x1*x3 + x2*x3"

    def test_bad_edge(self):
        with pytest.raises(ValidationError):
            ConfigurationMatrix.from_graph(3, [(1, 4)])

"""Contact counting operations: affine, constrained, projective."""

from collections import Counter
from itertools import product

import pytest

import arcdet.counting
from arcdet import GF, IdealGens, TruncSeries, enumerate_jets, parse_poly
from arcdet.consensus import (
    STATUS_AMBIGUOUS,
    STATUS_CONSENSUS,
    STATUS_EXACT_EMPTY,
    extract_codim,
)
from arcdet.contact import (
    MODE_AT_LEAST,
    MODE_EXACT,
    ContactQuery,
    _proj_cone_count,
    count_contact,
    proj_count_contact,
)
from arcdet.counting import ord_value_counts
from arcdet.errors import BudgetExceeded, ValidationError
from arcdet.jets import DEFAULT_BUDGET, jet_space_size


def single_var_ideal():
    return IdealGens((parse_poly("x1", ["x1"]),))


def det_ideal():
    vs = ["x1", "x2", "x3", "x4"]
    return IdealGens((parse_poly("x1*x4 - x2*x3", vs),))


class TestQueries:
    def test_m_bounded_by_level(self):
        with pytest.raises(ValidationError):
            ContactQuery(MODE_EXACT, 3, 2, primes=(2, 3))

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            ContactQuery("sometimes", 1, 2, primes=(2, 3))

    def test_unknown_constraint(self):
        with pytest.raises(ValidationError):
            ContactQuery(MODE_EXACT, 1, 2, primes=(2, 3), constraint="nope")

    def test_composite_prime(self):
        # refused here, not later by the field constructor with a bare ValueError
        with pytest.raises(ValidationError, match="primes must be distinct primes below 2\\^31"):
            ContactQuery(MODE_EXACT, 1, 2, primes=(4,))

    def test_repeated_prime(self):
        # each prime is counted once: a repeat would list its counts twice
        with pytest.raises(ValidationError, match=r"distinct primes below 2\^31, got \(3, 3\)"):
            ContactQuery(MODE_EXACT, 1, 2, primes=(3, 3))


class TestCountContact:
    def test_linear_conditions(self):
        rep = count_contact(single_var_ideal(), ContactQuery(MODE_AT_LEAST, 2, 2, primes=(3, 5)))
        counts = dict((q, raw) for q, raw, _ in rep.counts)
        assert counts[3] == 3 and counts[5] == 5
        assert rep.consensus_codim == 2

    def test_exact_mode(self):
        rep = count_contact(single_var_ideal(), ContactQuery(MODE_EXACT, 1, 2, primes=(3, 5)))
        counts = dict((q, raw) for q, raw, _ in rep.counts)
        assert counts[3] == 6  # a0 = 0, a1 != 0, a2 free
        assert counts[5] == 20

    def test_rank_locus(self):
        rep = count_contact(det_ideal(), ContactQuery(MODE_AT_LEAST, 1, 1, primes=(2, 3)))
        counts = dict((q, raw) for q, raw, _ in rep.counts)
        # level 1 multiplies the level-0 count by q^4
        assert counts[2] == 10 * 16 and counts[3] == 33 * 81

    def test_partition_of_counts(self):
        gens = det_ideal()
        level, q = 2, 2
        total = jet_space_size(4, level, q)

        def count(mode, m):
            rep = count_contact(gens, ContactQuery(mode, m, level, primes=(q, 3)))
            return dict((p, raw) for p, raw, _ in rep.counts)[q]

        pieces = sum(count(MODE_EXACT, m) for m in range(level + 1))
        # sentinel jets (forms vanishing to the level) meet every at-least condition and no exact one
        bot = count(MODE_AT_LEAST, level) - count(MODE_EXACT, level)
        assert pieces + bot == total

    def test_monotonicity_and_decomposition(self):
        gens = det_ideal()
        level, q = 2, 3
        at_least = {}
        exact = {}
        for m in range(level + 1):
            r1 = count_contact(gens, ContactQuery(MODE_AT_LEAST, m, level, primes=(2, q)))
            r2 = count_contact(gens, ContactQuery(MODE_EXACT, m, level, primes=(2, q)))
            at_least[m] = dict((p, raw) for p, raw, _ in r1.counts)[q]
            exact[m] = dict((p, raw) for p, raw, _ in r2.counts)[q]
        bot = at_least[level] - exact[level]  # the sentinel jets
        for m in range(level):
            assert at_least[m + 1] <= at_least[m]
            assert at_least[m] == sum(exact[k] for k in range(m, level + 1)) + bot

    def test_coordinate_invariance(self):
        # precompose with the invertible substitution x1 -> x1 + x2, x2 -> x2
        vs = ["x1", "x2"]
        f = parse_poly("x1*x2", vs)
        g = parse_poly("(x1 + x2)*x2", vs)
        for m, mode in [(1, MODE_AT_LEAST), (2, MODE_EXACT)]:
            r1 = count_contact(IdealGens((f,)), ContactQuery(mode, m, 2, primes=(2, 3)))
            r2 = count_contact(IdealGens((g,)), ContactQuery(mode, m, 2, primes=(2, 3)))
            assert [(q, raw) for q, raw, _ in r1.counts] == [(q, raw) for q, raw, _ in r2.counts]

    def test_constraint_registry(self):
        gens = single_var_ideal()
        rep = count_contact(gens, ContactQuery(MODE_AT_LEAST, 1, 1, primes=(3, 5), constraint="origin_based"))
        counts = dict((q, raw) for q, raw, _ in rep.counts)
        assert counts[3] == 3  # a0 = 0 forced by both the constraint and the condition

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_AT_LEAST])
    @pytest.mark.parametrize("gens", [single_var_ideal(), det_ideal()], ids=["x1", "det"])
    def test_constraints_partition_the_count(self, gens, mode):
        # every jet has a unit coordinate or is based at the origin, never both
        def tallies(constraint):
            def tally(mode):
                rep = count_contact(gens, ContactQuery(mode, 1, 1, primes=(2, 3), constraint=constraint))
                return [(q, raw) for q, raw, _ in rep.counts]

            # the sentinel jets: at least the level, and not exactly it
            sentinels = [(q, a - e) for (q, a), (_, e) in zip(tally(MODE_AT_LEAST), tally(MODE_EXACT))]
            return tally(mode), sentinels

        unit, origin, whole = tallies("unit_coordinate"), tallies("origin_based"), tallies(None)
        for u, o, w in zip(unit, origin, whole):
            assert [(q, a + b) for (q, a), (_, b) in zip(u, o)] == w

    def test_past_the_budget_is_refused(self):
        # x1^2 + x1*x2 is no monomial and defeats every exact split
        gens = IdealGens((parse_poly("x1^2 + x1*x2", ["x1", "x2"]),))
        with pytest.raises(BudgetExceeded, match="over the budget 1000, and no exact split applies"):
            count_contact(gens, ContactQuery(MODE_AT_LEAST, 1, 4, primes=(5,)), budget=1000)

    def test_single_prime_report_is_ambiguous(self):
        rep = count_contact(single_var_ideal(), ContactQuery(MODE_AT_LEAST, 1, 2, primes=(3,)))
        assert rep.status == "AMBIGUOUS"
        assert dict((q, raw) for q, raw, _ in rep.counts)[3] == 9

    @pytest.mark.parametrize(
        "primes, status, codim",
        [((2, 3), STATUS_CONSENSUS, 1), ((3,), STATUS_AMBIGUOUS, None)],
    )
    def test_same_extraction_as_extract_codim(self, primes, status, codim):
        # (q-1) q jets: rounding alone votes 1 at q=2 and 2 at q=3, the fit decides
        rep = count_contact(single_var_ideal(), ContactQuery(MODE_EXACT, 1, 2, primes=primes))
        ref = extract_codim(rep.counts, 3)
        assert (rep.status, rep.consensus_codim) == (status, codim)
        assert (rep.status, rep.consensus_codim, rep.codim_interval) == (
            ref.status, ref.consensus_codim, ref.codim_interval
        )


def oracle_proj_counts(lam, level, q, mode, m):
    """(q, projective count, projective total) by pure-Python enumeration of
    the cone: multiply t^lam_j by u_j as series and read the forms' orders."""
    bases = [TruncSeries.t_power(GF(q), level, l) for l in lam]
    cone = 0
    for jet in enumerate_jets(len(lam), level, q):
        if not any(u.is_unit() for u in jet.coords):
            continue
        o = min(level + 1 if f.ord() is None else f.ord() for f in (b * u for b, u in zip(bases, jet.coords)))
        cone += o == m if mode == MODE_EXACT else o >= m
    unit_group = q**level * (q - 1)
    assert cone % unit_group == 0
    r = len(lam)
    return (q, cone // unit_group, (q ** (r * (level + 1)) - q ** (r * level)) // unit_group)


class TestProjective:
    def test_fiber_over_diag_base(self):
        rep = proj_count_contact((0, 2), ContactQuery(MODE_AT_LEAST, 1, 2, primes=(2, 3)))
        assert rep.consensus_codim == 1

    def test_over_budget_profile_gets_exact_split(self):
        query = ContactQuery(MODE_AT_LEAST, 1, 2, primes=(2, 3))
        small = proj_count_contact((0, 2), query, budget=1)
        assert small.counts == proj_count_contact((0, 2), query).counts

    def test_profile_fiber_enumerates_nothing(self, monkeypatch):
        query = ContactQuery(MODE_AT_LEAST, 2, 3, primes=(2, 3))
        expected = proj_count_contact((1, 2, 3), query)

        def refuse(*args, **kwargs):
            raise AssertionError("the fiber count enumerated coordinate jets")

        monkeypatch.setattr(arcdet.counting, "_order_batches", refuse)
        rep = proj_count_contact((1, 2, 3), query)
        assert rep.counts == expected.counts
        assert [q for q, _, _ in rep.counts] == [2, 3]
        assert rep.consensus_codim == 1  # (m - lambda_1) for the one part below m

    def test_empty_beyond_top_part(self):
        rep = proj_count_contact((0, 2), ContactQuery(MODE_AT_LEAST, 3, 3, primes=(2, 3)))
        assert rep.status == STATUS_EXACT_EMPTY

    def test_unit_base_forces_order_zero(self):
        rep = proj_count_contact((0, 0), ContactQuery(MODE_AT_LEAST, 1, 2, primes=(2, 3)))
        assert rep.status == STATUS_EXACT_EMPTY

    def test_cone_counts_divisible_by_unit_group(self):
        # exercised internally: a failed division raises
        for lam in [(0, 1), (1, 2), (0, 0, 2)]:
            proj_count_contact(lam, ContactQuery(MODE_AT_LEAST, 1, 2, primes=(2, 3)))

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_AT_LEAST])
    def test_profile_counts_match_series_oracle(self, q, mode):
        level = 2
        for lam in product(range(3), repeat=2):
            for m in range(level + 1):
                rep = proj_count_contact(lam, ContactQuery(mode, m, level, primes=(q,)))
                assert rep.counts == (oracle_proj_counts(lam, level, q, mode, m),), (lam, m)

    def test_empty_profile_is_refused(self):
        with pytest.raises(ValidationError, match="empty profile"):
            proj_count_contact((), ContactQuery(MODE_AT_LEAST, 0, 1, primes=(2, 3)))

    @pytest.mark.parametrize("constraint", ["unit_coordinate", "origin_based"])
    def test_coordinate_constraint_is_refused(self, constraint):
        # the count used to accept the constraint and ignore it
        query = ContactQuery(MODE_AT_LEAST, 1, 2, primes=(2, 3), constraint=constraint)
        with pytest.raises(ValidationError, match=f"no coordinate constraint, got '{constraint}'"):
            proj_count_contact((0, 2), query)

    @pytest.mark.parametrize("level", [3, 31])  # 2^8 coordinate jets, and 2^64: past int64
    def test_profile_table_counts_stay_exact(self, level):
        lam, per = (1, 5), ord_value_counts(level, 2)
        cells = Counter()
        for orders in product(range(level + 2), repeat=2):
            contact = min(min(l + o, level + 1) for l, o in zip(lam, orders))
            cells[min(orders), contact] += per[orders[0]] * per[orders[1]]
        for mode in (MODE_EXACT, MODE_AT_LEAST):
            for m in (0, 1, 2, level):
                query = ContactQuery(mode, m, level, primes=(2,))
                expected = sum(
                    c for (least, contact), c in cells.items()
                    if least == 0 and (contact == m if mode == MODE_EXACT else contact >= m)
                )
                cone = _proj_cone_count(lam, query, 2, DEFAULT_BUDGET)
                assert type(cone) is int and cone == expected, (mode, m)
        # the oracle's cone at m = 0 holds every jet with a unit coordinate
        assert sum(c for (least, _), c in cells.items() if least == 0) == 2 ** (2 * level + 2) - 2 ** (2 * level)

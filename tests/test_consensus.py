"""Codimension extraction: the exact cyclotomic fit, then consensus rounding."""

from arcdet.consensus import (
    STATUS_AMBIGUOUS,
    STATUS_CONSENSUS,
    STATUS_EXACT_EMPTY,
    cyclotomic_fit,
    extract_codim,
    extract_codim_bucketed,
)


class TestConsensusRounding:
    def test_rank_locus_example(self):
        # counts of the 2x2 rank <= 1 locus: q^3 + q^2 - q, off the fit basis
        rep = extract_codim([(2, 10, 16), (3, 33, 81)], 4)
        assert rep.status == STATUS_CONSENSUS
        assert rep.method == "rounding"
        assert rep.dims == {2: 3, 3: 3}
        assert rep.consensus_codim == 1

    def test_empty(self):
        rep = extract_codim([(2, 0, 16), (3, 0, 81)], 4)
        assert rep.status == STATUS_EXACT_EMPTY

    def test_full_space(self):
        rep = extract_codim([(2, 16, 16)], 4)
        assert rep.status == STATUS_CONSENSUS and rep.consensus_codim == 0

    def test_single_prime_is_ambiguous(self):
        # log_3 5 rounds to 1: one vote, no consensus, its interval is reported
        rep = extract_codim([(3, 5, 81)], 4)
        assert rep.status == STATUS_AMBIGUOUS
        assert rep.consensus_codim is None
        assert rep.dims == {3: 1}
        assert rep.codim_interval == (3, 3)

    def test_invisible_factor_decided_by_fit(self):
        # (q-1) q^2: rounding votes 2 at q=2 and 3 at q=3, the fit pins dim 3
        rep = extract_codim([(2, 4, 16), (3, 18, 81)], 4)
        assert rep.status == STATUS_CONSENSUS
        assert rep.method == "fit"
        assert rep.consensus_codim == 1

    def test_disagreement_is_ambiguous(self):
        # 5 and 100 are off the fit basis; the votes are 2 and 4
        assert cyclotomic_fit([(2, 5), (3, 100)]) is None
        rep = extract_codim([(2, 5, 64), (3, 100, 729)], 6)
        assert rep.status == STATUS_AMBIGUOUS
        assert rep.method == "rounding"
        assert rep.dims == {2: 2, 3: 4}
        assert rep.codim_interval == (2, 4)


class TestCyclotomicFit:
    def test_pins_each_exponent(self):
        assert cyclotomic_fit([(2, 4), (3, 18)]) == (3, "q^2(q-1)^1(q+1)^0(q^2+q+1)^0")
        assert cyclotomic_fit([(2, 48), (3, 648)])[0] == 6
        assert cyclotomic_fit([(2, 7), (3, 13)])[0] == 2
        assert cyclotomic_fit([(2, 1), (3, 1)])[0] == 0

    def test_rejects_off_basis(self):
        # (q-1) q^4 (q^2+q-1) has a non-cyclotomic factor
        assert cyclotomic_fit([(2, 80), (3, 1782)]) is None

    def test_needs_two_primes(self):
        assert cyclotomic_fit([(3, 18)]) is None
        assert cyclotomic_fit([(3, 18), (3, 18)]) is None

    def test_rejects_zero(self):
        assert cyclotomic_fit([(2, 0), (3, 0)]) is None

    def test_three_prime_crosscheck(self):
        assert cyclotomic_fit([(2, 4), (3, 18), (5, 100)])[0] == 3
        # value perturbed at one prime: no fit
        assert cyclotomic_fit([(2, 4), (3, 18), (5, 101)]) is None


class TestExtract:
    def test_fit_wins(self):
        rep = extract_codim([(2, 4, 16), (3, 18, 81)], 4)
        assert rep.status == STATUS_CONSENSUS
        assert rep.consensus_codim == 1
        assert rep.method == "fit"

    def test_rounding_fallback(self):
        rep = extract_codim([(2, 10, 16), (3, 33, 81)], 4)
        assert rep.consensus_codim == 1

    def test_bucketed_max(self):
        buckets = {
            ("a",): {2: 4, 3: 18},   # dim 3 cell
            ("b",): {2: 2, 3: 6},    # dim 2 cell
        }
        rep = extract_codim_bucketed(buckets, 5, ((2, 6, 2**5), (3, 24, 3**5)))
        assert rep.status == STATUS_CONSENSUS
        assert rep.consensus_codim == 2
        assert rep.method == "buckets" and rep.detail == "2 nonempty buckets"

    def test_bucketed_rounding_vote_is_named(self):
        # the rank locus bucket is decided by a vote, and a fitted bucket is not
        rank_locus, fitted = {2: 10, 3: 33}, {2: 4, 3: 18}
        totals = ((2, 14, 16), (3, 51, 81))
        rep = extract_codim_bucketed({("a",): rank_locus, ("b",): fitted}, 4, totals)
        assert (rep.status, rep.consensus_codim, rep.method) == (STATUS_CONSENSUS, 1, "buckets:rounding")
        assert extract_codim_bucketed({("b",): fitted}, 4, totals).method == "buckets"

    def test_only_exact_reports_are_certified(self):
        # empty, full and fitted reports are exact; a vote, decided or not, is not
        exact = [
            extract_codim([(2, 0, 16), (3, 0, 81)], 4),
            extract_codim([(2, 16, 16), (3, 81, 81)], 4),
            extract_codim([(2, 4, 16), (3, 18, 81)], 4),
        ]
        assert [rep.method for rep in exact] == ["empty", "full", "fit"]
        assert all(rep.certified for rep in exact)
        vote = extract_codim([(2, 10, 16), (3, 33, 81)], 4)
        undecided = extract_codim([(2, 10, 16)], 4)
        assert (vote.status, undecided.status) == (STATUS_CONSENSUS, STATUS_AMBIGUOUS)
        assert not vote.certified and not undecided.certified
        totals = ((2, 14, 16), (3, 51, 81))
        fitted, rank_locus = {2: 4, 3: 18}, {2: 10, 3: 33}
        assert extract_codim_bucketed({("b",): fitted}, 4, totals).certified
        assert not extract_codim_bucketed({("a",): rank_locus, ("b",): fitted}, 4, totals).certified

    def test_bucketed_empty(self):
        rep = extract_codim_bucketed({("a",): {2: 0, 3: 0}}, 5, ((2, 0, 2**5), (3, 0, 3**5)))
        assert rep.status == STATUS_EXACT_EMPTY
        assert rep == extract_codim(((2, 0, 2**5), (3, 0, 3**5)), 5)

    def test_bucket_ambiguity_can_be_masked_by_higher_cell(self):
        buckets = {
            ("big",): {2: 64, 3: 729},      # q^6: dim 6
            ("odd",): {2: 0, 3: 2},         # empty at one prime: single vote dim 0
        }
        rep = extract_codim_bucketed(buckets, 8, ((2, 64, 2**8), (3, 731, 3**8)))
        assert rep.status == STATUS_CONSENSUS
        assert rep.consensus_codim == 2

    def test_single_prime_bucket_alone_stays_ambiguous(self):
        # an undecided bucket may never carry the dimension maximum
        rep = extract_codim_bucketed({("odd",): {2: 0, 3: 9}}, 8, ((2, 0, 2**8), (3, 9, 3**8)))
        assert rep.status == STATUS_AMBIGUOUS

    def test_undecided_bucket_above_decided_widens_interval(self):
        buckets = {
            ("fit",): {2: 4, 3: 18},    # dim 3 cell, codim 2
            ("odd",): {2: 16, 3: 9},    # votes dim 4 and dim 2: codim in [1, 3]
        }
        rep = extract_codim_bucketed(buckets, 5, ((2, 20, 2**5), (3, 27, 3**5)))
        assert rep.status == STATUS_AMBIGUOUS
        # the decided codim counts at both ends of the interval
        assert rep.codim_interval == (1, 2)
        assert rep.detail == "2 nonempty buckets, some undecided"

    def test_bucket_fit_above_ambient_is_refused(self):
        # (q-1)^3 fits 1 and 8 with dim 3 > 2; extract_codim refuses that fit,
        # and so must every bucket
        totals = ((2, 1, 2**6), (3, 8, 3**6))
        rep = extract_codim_bucketed({("a",): {2: 1, 3: 8}}, 2, totals)
        assert rep.status == STATUS_AMBIGUOUS
        assert rep.codim_interval == (0, 2)
        assert rep.consensus_codim is None
        assert extract_codim(totals, 2).codim_interval == (0, 2)

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from gapkit import bcz, cli, farey, stats
from gapkit.errors import ResourceLimitError

from conftest import farey_fractions


def farey_level(q):
    return [Fraction(p, d) for p, d in farey.farey_pairs(q)]


class TestSequence:
    def test_level_one(self):
        assert farey_level(1) == [Fraction(0), Fraction(1)]

    def test_level_four(self):
        expected = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                    Fraction(2, 3), Fraction(3, 4), Fraction(1)]
        assert farey_level(4) == expected

    def test_unimodular_neighbors_level_100(self):
        pairs = list(farey.farey_pairs(100))
        for (p0, q0), (p1, q1) in zip(pairs, pairs[1:]):
            assert q0 * p1 - p0 * q1 == 1

    def test_streaming_matches_list(self):
        # the stream against the brute-force list, pairs in lowest terms
        for q in (1, 2, 7, 30):
            pairs = list(farey.farey_pairs(q))
            assert [Fraction(p, d) for p, d in pairs] == farey_fractions(q)
            assert all(math.gcd(p, d) == 1 for p, d in pairs)

    def test_denominator_bound_and_sorted(self):
        level = farey_level(17)
        assert all(f.denominator <= 17 for f in level)
        assert sorted(level) == level

    def test_budget(self, monkeypatch):
        # level 4 has N(4) + 1 = 7 terms: a budget of 7 holds them, 6 does not
        monkeypatch.setattr(farey, "DEFAULT_TERM_BUDGET", 7)
        assert len(farey.farey_gaps(4)) == 6
        monkeypatch.setattr(farey, "DEFAULT_TERM_BUDGET", 6)
        with pytest.raises(ResourceLimitError):
            farey.farey_gaps(4)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            next(farey.farey_pairs(0))
        with pytest.raises(ValueError):
            farey.farey_size(0)

    def test_gaps_budget(self, monkeypatch):
        # level 10 has N(10) + 1 = 34 terms; the check comes before any gap
        monkeypatch.setattr(farey, "DEFAULT_TERM_BUDGET", 10)
        with pytest.raises(ResourceLimitError, match="Farey level 10 exceeds the 10-term"):
            farey.farey_gaps(10)
        assert cli.main(["farey-gaps", "--q", "10"]) == 3


class TestSize:
    def test_small_values(self):
        assert farey.farey_size(1) == 1
        assert farey.farey_size(4) == 6

    @pytest.mark.parametrize("q", [2, 7, 10, 37, 100, 211])
    def test_against_totients(self, q):
        assert farey.farey_size(q) == sum(sympy.totient(i) for i in range(1, q + 1))

    def test_matches_sequence_length(self):
        for q in (1, 5, 23):
            assert farey.farey_size(q) == len(farey_fractions(q)) - 1

    def test_density_limit(self):
        # N(Q)/Q^2 -> 3/pi^2
        assert farey.farey_size(2000) / 2000 ** 2 == pytest.approx(
            3 / math.pi ** 2, abs=0.01)


class TestGaps:
    def test_level_four_exact(self):
        expected = [Fraction(3, 2), Fraction(1, 2), Fraction(1), Fraction(1),
                    Fraction(1, 2), Fraction(3, 2)]
        assert farey.farey_gaps(4) == expected

    def test_unnormalized_gaps_telescope(self):
        for q in (3, 11, 40):
            n = farey.farey_size(q)
            assert sum(farey.farey_gaps(q)) == n  # i.e. raw gaps sum to 1

    def test_mean_normalized_gap_is_one(self):
        gaps = farey.farey_gaps(25)
        assert sum(gaps) / len(gaps) == 1

    @pytest.mark.parametrize("q", [5, 12, 50])
    def test_min_gap_from_adjacent_max_denominators(self, q):
        gaps = farey.farey_gaps(q)
        assert min(gaps) == Fraction(farey.farey_size(q), q * (q - 1))

    def test_min_gap_above_support_floor(self):
        # below the limiting support infimum 3/pi^2 nothing survives
        gaps = farey.farey_gaps(500)
        assert float(min(gaps)) > 0.30

    def test_equidistribution_discrepancy(self):
        # star discrepancy: the KS distance to the uniform law on [0, 1]
        vals = [p / q for p, q in farey.farey_pairs(1000)]
        assert stats.ks_distance(stats.ecdf(vals), lambda t: np.clip(t, 0.0, 1.0)) <= 0.01


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_farey_references(monkeypatch):
    """Every farey-exact task of the benchmark, in-process, against
    perfbench/reference.json: the exact BCZ orbit of each level Q."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import FAREY_LEVELS, REFERENCE, FareyExact
    workload = FareyExact(json.loads(REFERENCE.read_text()))
    assert len(FAREY_LEVELS) == 100
    gk = {"bcz": bcz, "farey": farey}
    failed = [q for q in FAREY_LEVELS if not workload.run(gk, q)[0]]
    assert failed == []

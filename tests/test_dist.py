"""Core distribution/split machinery: spec'd examples and invariants.

Letters are 0-based throughout the package, so examples phrased over
``{1..n}`` appear here shifted down by one.
"""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from disttest2p import dist
from disttest2p.dist import (
    Distribution,
    IndexedSampleSet,
    Multiset,
    OccurrenceVector,
    cap,
    l1_distance,
    l2_norm_sq,
    occurrence_vector,
    poisson_sample,
    sample,
    split_distribution,
    split_map,
    split_occurrence_matrix,
    split_sample,
    split_samples,
    uniform_distribution,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTypes:
    def test_distribution_validates(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])
        with pytest.raises(ValueError):
            Distribution([-0.1, 1.1])
        with pytest.raises(ValueError):
            Distribution([])

    def test_distribution_immutable(self):
        p = uniform_distribution(4)
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_multiset_from_letters(self):
        s = Multiset.from_letters([0, 0, 2], 3)
        assert s.size == 3
        assert list(s.counts) == [2, 0, 1]

    def test_multiset_union_adds_multiplicities(self):
        a = Multiset.from_letters([0, 1], 3)
        b = Multiset.from_letters([1, 1], 3)
        assert list(a.union(b).counts) == [1, 3, 0]

    def test_occurrence_vector_totals(self):
        x = OccurrenceVector([2, 0, 1])
        assert x.t == 3 and x.n == 3


class TestSample:
    def test_zero_samples(self):
        s = sample(uniform_distribution(3), 0, rng())
        assert s.t == 0

    def test_point_mass(self):
        s = sample(Distribution([0.0, 0.0, 1.0, 0.0, 0.0]), 5, rng())
        assert list(s.letters) == [2, 2, 2, 2, 2]

    def test_uniform_frequencies(self):
        # Chernoff: each frequency within 0.25 +- 0.005 at a million draws
        s = sample(uniform_distribution(4), 10 ** 6, rng(1))
        freqs = np.bincount(s.letters, minlength=4) / 10 ** 6
        assert np.all(np.abs(freqs - 0.25) < 0.005)

    def test_deterministic_given_state(self):
        a = sample(uniform_distribution(9), 50, rng(7))
        b = sample(uniform_distribution(9), 50, rng(7))
        assert np.array_equal(a.letters, b.letters)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample(uniform_distribution(3), -1, rng())


def _same_as_choice(probs, t, seed):
    """``dist.draw`` gives ``Generator.choice``'s letters and leaves its
    generator in the same state."""
    ours, numpys = rng(seed), rng(seed)
    got = dist.draw(probs, t, ours)
    want = numpys.choice(probs.size, size=t, p=probs)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert ours.random() == numpys.random()
    return got


# Zeros, entries too small to move a partial sum (1e-300 next to 1.0), and
# ordinary ones.
_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-300, 1e-10), st.floats(0.0, 1.0)),
    min_size=1, max_size=60).filter(lambda w: sum(w) > 0)


class TestDraw:
    @given(weights=_WEIGHTS, t=st.sampled_from([0, 1, 3, 5000]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_choice(self, weights, t, seed):
        w = np.array(weights)
        _same_as_choice(w / w.sum(), t, seed)

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 65])
    def test_one_hot(self, size):
        for letter in {0, size // 2, size - 1}:
            p = np.zeros(size)
            p[letter] = 1.0
            got = _same_as_choice(p, 1000, seed=letter)
            assert np.all(got == letter)

    def test_crowded_bucket_falls_back_to_binary_search(self):
        # A dominant first letter puts the cdf of the 1,000 tiny ones after
        # it into the last buckets of the guide table; draws landing there
        # need more than the few forward steps and finish by binary search.
        p = np.concatenate(([1 - 1e-3], np.full(1000, 1e-6)))
        got = _same_as_choice(p, 200_000, seed=3)
        assert np.count_nonzero(got) > 100

    def test_sample_uses_draw(self):
        p = Distribution(np.array([0.5, 0.0, 0.25, 0.25]))
        assert np.array_equal(sample(p, 300, rng(4)).letters,
                              _same_as_choice(p.probs, 300, seed=4))


def _weighted_choice_lines(source: str) -> list[int]:
    """Lines calling ``.choice`` with weights (``p=`` or a fourth argument)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"
            and (len(node.args) >= 4
                 or any(kw.arg == "p" for kw in node.keywords))]


def test_draw_is_the_only_weighted_sampler():
    assert _weighted_choice_lines("rng.choice(5, size=3, p=w)\n"
                                  "rng.choice(5, 3, True, w)\n"
                                  "rng.choice(5, size=3, replace=False)\n"
                                  ) == [1, 2]
    package = pathlib.Path(dist.__file__).parent
    found = {path.name: _weighted_choice_lines(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


class TestPoisson:
    def test_zero_rate(self):
        assert poisson_sample(0.0, rng()) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_sample(-1.0, rng())

    def test_clt_mean(self):
        draws = [poisson_sample(4.0, r) for r in [rng(3)] for _ in range(10 ** 5)]
        assert abs(np.mean(draws) - 4.0) < 0.05

    def test_small_rate_zero_probability(self):
        r = rng(4)
        zeros = sum(poisson_sample(0.1, r) == 0 for _ in range(10 ** 5))
        assert abs(zeros / 10 ** 5 - math.exp(-0.1)) < 0.005

    def test_large_rate_supported(self):
        draw = poisson_sample(1e9, rng(5))
        assert abs(draw - 1e9) < 5e5  # ~16 standard deviations


class TestOccurrenceVector:
    def test_direct_count(self):
        s = IndexedSampleSet(np.array([0, 0, 2]), 3)
        assert list(occurrence_vector(s, 3).counts) == [2, 0, 1]

    def test_empty(self):
        s = IndexedSampleSet(np.array([], dtype=np.int64), 4)
        assert list(occurrence_vector(s, 4).counts) == [0, 0, 0, 0]

    def test_single_letter(self):
        s = IndexedSampleSet(np.array([1, 1, 1, 1]), 2)
        assert list(occurrence_vector(s, 2).counts) == [0, 4]

    def test_out_of_range(self):
        s = IndexedSampleSet(np.array([3]), 4)
        with pytest.raises(ValueError):
            occurrence_vector(s, 3)

    def test_sum_recovers_t(self):
        r = rng(11)
        for _ in range(20):
            t = int(r.integers(0, 200))
            s = sample(uniform_distribution(13), t, r)
            assert occurrence_vector(s, 13).t == t


class TestSplitMap:
    def test_empty_multiset_identity(self):
        sm = split_map(Multiset.from_letters([], 3), 3)
        assert list(sm.bucket_counts) == [1, 1, 1]
        assert sm.total_letters == 3

    def test_single_element(self):
        sm = split_map(Multiset.from_letters([0], 2), 2)
        assert list(sm.bucket_counts) == [2, 1]

    def test_repeats(self):
        sm = split_map(Multiset.from_letters([0, 0, 1], 2), 2)
        assert list(sm.bucket_counts) == [3, 2]
        assert sm.total_letters == 2 + 3


class TestSplitDistribution:
    def test_hand_example(self):
        p = Distribution([0.5, 0.5])
        sm = split_map(Multiset.from_letters([0], 2), 2)
        assert np.allclose(split_distribution(p, sm).probs, [0.25, 0.25, 0.5])

    def test_identity_split(self):
        p = Distribution([0.3, 0.2, 0.5])
        sm = split_map(Multiset.from_letters([], 3), 3)
        assert np.allclose(split_distribution(p, sm).probs, p.probs)

    def test_unsplit_mass_unchanged(self):
        p = Distribution([1.0, 0.0])
        sm = split_map(Multiset.from_letters([1], 2), 2)
        assert np.allclose(split_distribution(p, sm).probs, [1.0, 0.0, 0.0])


class TestSplitSample:
    def test_single_bucket_deterministic(self):
        sm = split_map(Multiset.from_letters([1], 3), 3)
        assert split_sample(0, sm, rng()) == 0  # letter 0 has one bucket

    def test_two_buckets_balanced(self):
        sm = split_map(Multiset.from_letters([0], 2), 2)
        r = rng(2)
        hits = np.bincount([split_sample(0, sm, r) for _ in range(10 ** 5)],
                           minlength=2)
        assert np.all(np.abs(hits / 10 ** 5 - 0.5) < 0.01)

    def test_composition_matches_split_distribution(self):
        # TV < 0.02 between recast samples and direct split-distribution draws
        n, t = 5, 10 ** 5
        r = rng(3)
        p = Distribution(r.dirichlet(np.ones(n)))
        s = Multiset.from_letters(r.integers(0, n, 3), n)
        sm = split_map(s, n)
        recast = split_samples(sample(p, t, r), sm, r)
        direct = sample(split_distribution(p, sm), t, r)
        h1 = np.bincount(recast.letters, minlength=sm.total_letters) / t
        h2 = np.bincount(direct.letters, minlength=sm.total_letters) / t
        assert 0.5 * np.abs(h1 - h2).sum() < 0.02


class TestCap:
    def test_componentwise_min(self):
        assert list(cap(OccurrenceVector([5, 1, 0]), 2).counts) == [2, 1, 0]

    def test_identity_when_level_large(self):
        x = OccurrenceVector([5, 1, 0])
        assert np.array_equal(cap(x, 9).counts, x.counts)

    def test_zero_level(self):
        assert list(cap(OccurrenceVector([5, 1, 0]), 0).counts) == [0, 0, 0]

    def test_idempotent_and_monotone(self):
        r = rng(5)
        x = OccurrenceVector(r.integers(0, 30, 40))
        for level in (0, 3, 10):
            once = cap(x, level)
            assert np.array_equal(cap(once, level).counts, once.counts)
        low, high = cap(x, 2), cap(x, 7)
        assert np.all(low.counts <= high.counts)


class TestSplitOccurrenceMatrix:
    def test_single_bucket_row(self):
        m = split_occurrence_matrix(OccurrenceVector([3]), 1, rng())
        assert list(m.row(0, 1)) == [3]

    def test_zero_count_rows(self):
        m = split_occurrence_matrix(OccurrenceVector([0]), 4, rng())
        for j in range(1, 5):
            assert m.row(0, j).sum() == 0

    def test_binomial_concentration(self):
        m = split_occurrence_matrix(OccurrenceVector([10 ** 4]), 2, rng(6))
        row = m.row(0, 2)
        assert abs(row[0] - 5000) < 300

    def test_rows_sum_to_count(self):
        r = rng(7)
        x = OccurrenceVector(r.integers(0, 50, 12))
        m = split_occurrence_matrix(x, 6, r)
        for i in range(12):
            for j in range(1, 7):
                assert m.row(i, j).sum() == x.counts[i]


class TestDistances:
    def test_identical(self):
        p = uniform_distribution(7)
        assert l1_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        assert l1_distance(Distribution([1, 0]), Distribution([0, 1])) == 2.0

    def test_uniform_l2(self):
        for n in (2, 10, 64):
            assert l2_norm_sq(uniform_distribution(n)) == pytest.approx(1.0 / n)

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            l1_distance(uniform_distribution(3), uniform_distribution(4))


class TestSplitLaws:
    def test_l1_preservation_exact(self):
        # split alphabets preserve the ell_1 distance to 1e-12
        r = rng(8)
        for _ in range(100):
            n = int(r.integers(2, 21))
            p = Distribution(r.dirichlet(np.ones(n)))
            q = Distribution(r.dirichlet(np.ones(n)))
            s = Multiset.from_letters(r.integers(0, n, int(r.integers(0, 11))), n)
            sm = split_map(s, n)
            before = l1_distance(p, q)
            after = l1_distance(split_distribution(p, sm),
                                split_distribution(q, sm))
            assert abs(before - after) < 1e-12

    def test_norm_monotone_in_split_set(self):
        r = rng(9)
        for _ in range(50):
            n = int(r.integers(2, 15))
            p = Distribution(r.dirichlet(np.ones(n)))
            base = r.integers(0, n, int(r.integers(0, 6)))
            extra = r.integers(0, n, int(r.integers(1, 6)))
            small = Multiset.from_letters(base, n)
            large = Multiset.from_letters(np.concatenate([base, extra]), n)
            norm_small = l2_norm_sq(split_distribution(p, split_map(small, n)))
            norm_large = l2_norm_sq(split_distribution(p, split_map(large, n)))
            assert norm_large <= norm_small + 1e-15

    def test_expected_norm_bound(self):
        # E ||p_S||^2 <= 1/m when |S| ~ Poi(m) draws from p
        n, m, trials = 100, 50, 500
        r = rng(10)
        p = Distribution(r.dirichlet(np.ones(n)))
        norms = []
        for _ in range(trials):
            size = poisson_sample(m, r)
            s = Multiset.from_letters(sample(p, size, r).letters, n)
            norms.append(l2_norm_sq(split_distribution(p, split_map(s, n))))
        assert np.mean(norms) <= 1.1 / m


class TestSerialization:
    def test_occurrence_roundtrip(self):
        x = OccurrenceVector([3, 0, 7])
        back = dist.occurrence_from_text(dist.occurrence_to_text(x))
        assert np.array_equal(back.counts, x.counts)

    @given(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=50))
    def test_occurrence_roundtrip_property(self, counts):
        x = OccurrenceVector(counts)
        back = dist.occurrence_from_text(dist.occurrence_to_text(x))
        assert back.counts.dtype == x.counts.dtype
        assert np.array_equal(back.counts, x.counts)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            dist.occurrence_from_text("0 1\n2 1\n")

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
    OccurrenceVector,
    SplitMap,
    sample,
    split_map,
    split_occurrence_matrix,
    split_samples,
    uniform_distribution,
)
from laws import (
    l1_distance,
    l2_norm_sq,
    poisson_sample,
    rng,
    split_distribution,
)


class TestTypes:
    def test_distribution_validates(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])
        with pytest.raises(ValueError):
            Distribution([-0.1, 1.1])
        with pytest.raises(ValueError):
            Distribution([])

    @pytest.mark.parametrize("probs", [
        [math.nan, 1.0], [0.5, 0.5, math.nan], [math.inf, 1.0],
        [-math.inf, 1.0], [math.nan] * 3,
    ], ids=["nan-first", "nan-last", "inf", "minus-inf", "all-nan"])
    def test_non_finite_refused(self, probs):
        # NaN passes both the sign and the sum test; it is refused on its own
        with pytest.raises(ValueError, match="finite"):
            Distribution(probs)

    def test_distribution_immutable(self):
        p = uniform_distribution(4)
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    @pytest.mark.parametrize("make, name, array", [
        (lambda a: IndexedSampleSet(a, 5), "letters", np.arange(5)),
        (OccurrenceVector, "counts", np.arange(5)),
        (SplitMap, "bucket_counts", np.arange(1, 6)),
        (Distribution, "probs", np.full(4, 0.25)),
    ], ids=["IndexedSampleSet", "OccurrenceVector", "SplitMap", "Distribution"])
    def test_caller_array_stays_writeable(self, make, name, array):
        held = getattr(make(array), name)
        assert np.shares_memory(held, array)  # a view, not a copy
        assert not held.flags.writeable
        array[0] = array[1]  # the caller's own array keeps its flag
        assert held[0] == array[1]

    def test_multiset_from_letters(self):
        s = OccurrenceVector.from_letters([0, 0, 2], 3)
        assert s.t == 3
        assert list(s.counts) == [2, 0, 1]

    def test_multiset_union_adds_multiplicities(self):
        # the union of split sets is the count vector of their joined letters
        a, b = [0, 1], [1, 1]
        union = OccurrenceVector.from_letters(a + b, 3)
        assert list(union.counts) == [1, 3, 0]
        assert np.array_equal(union.counts,
                              OccurrenceVector.from_letters(a, 3).counts
                              + OccurrenceVector.from_letters(b, 3).counts)

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
    """A sampler built for one draw gives ``Generator.choice``'s letters
    and leaves its generator in the same state."""
    ours, numpys = rng(seed), rng(seed)
    (got,) = dist.InverseCdf(probs).draw(t, ours)
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

    @given(weights=_WEIGHTS)
    def test_guide_has_two_buckets_per_cell_rounded_up_to_a_power_of_two(
            self, weights):
        # a power of two keeps c*k and u*k exact, which the bit-for-bit
        # match with choice rests on
        w = np.array(weights)
        probs = w / w.sum()
        k, support = dist.InverseCdf(probs).k, np.count_nonzero(probs)
        assert k & (k - 1) == 0
        assert support <= k // 2 < 2 * support

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

    @pytest.mark.parametrize("probs, once, crowded", [
        # every cdf value on a bucket edge: no draw steps forward
        (np.array([0.25, 0.25, 0.5]), 0, 0),
        (uniform_distribution(8).probs, 0, 0),
        # every cdf value but the last strictly inside its own bucket
        (np.array([0.1, 0.2, 0.3, 0.4]), 3, 0),
        (uniform_distribution(3).probs, 2, 0),
        (np.array([0.0, 1 / 3, 0.0, 1 / 3, 1 / 3, 0.0]), 2, 0),
        # two cdf values inside the first bucket: its draws binary search
        (np.array([0.05, 0.05, 0.9]), 0, 1),
    ], ids=["quarters", "uniform-8", "tenths", "uniform-3", "thirds-sparse",
            "crowded"])
    def test_bucket_edges(self, probs, once, crowded):
        # cdf values strictly inside each bucket; only crowded buckets are
        # marked, as a draw in a bucket holding one steps at most once
        sampler = dist.InverseCdf(probs)
        ck = sampler.cdf_k
        inside = np.bincount(np.floor(ck[ck != np.floor(ck)]).astype(np.intp),
                             minlength=sampler.k)
        assert (np.count_nonzero(inside == 1), np.count_nonzero(inside > 1)) \
            == (once, crowded)
        assert np.array_equal(sampler.marks, inside > 1)
        for seed in range(3):
            _same_as_choice(probs, 5000, seed)

    @given(left=st.lists(st.integers(0, 9), max_size=30),
           right=st.lists(st.integers(0, 9), max_size=30),
           t=st.sampled_from([1, 5000]), seed=st.integers(0, 2 ** 32 - 1))
    def test_cdf_value_on_a_bucket_edge_matches_choice(self, left, right, t,
                                                       seed):
        # Each half of the law is integer weights over one power of two, so
        # every cdf value is exact and the last letter of the left half
        # ends at exactly 1/2 = (k/2)/k, a bucket edge: a draw in the bucket
        # after it must not step.  The other cdf values lie on edges, alone
        # inside a bucket or crowded, as the weights fall.
        total = 1 << max(sum(left), sum(right), 1).bit_length()
        w = np.array(left + [total - sum(left)] + right + [total - sum(right)],
                     dtype=np.float64)
        probs = w / (2 * total)
        sampler = dist.InverseCdf(probs)
        assert np.cumsum(probs)[len(left)] == 0.5
        assert sampler.k // 2 in sampler.cdf_k
        _same_as_choice(probs, t, seed)

    def test_uniform_on_a_cdf_value(self):
        # choice's search is right-sided: u == cdf[i] draws past letter i
        # (and past the zero after it); random draws almost never hit one
        probs = np.array([0.1, 0.2, 0.0, 0.3, 0.4])
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]  # as Generator.choice normalizes it
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0), [0.0]])

        class Fixed:
            def random(self, size):
                return u[:size].copy()

        (got,) = dist.InverseCdf(probs).draw(u.size, Fixed())
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))

    @given(weights=_WEIGHTS, t1=st.sampled_from([0, 1, 700]),
           t2=st.sampled_from([1, 3000, 20_000]), seed=st.integers(0, 2 ** 32 - 1))
    def test_held_sampler_matches_choice(self, weights, t1, t2, seed):
        # one law drawn from twice: its held tables against choice on the
        # continued generator
        w = np.array(weights)
        law = Distribution(w / w.sum())
        ours, numpys = rng(seed), rng(seed)
        for t in (t1, t2):
            got = sample(law, t, ours).letters
            assert np.array_equal(got, numpys.choice(law.n, size=t, p=law.probs))
        assert law.sampler is law.sampler
        assert ours.random() == numpys.random()


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
    from_letters = staticmethod(OccurrenceVector.from_letters)

    def test_direct_count(self):
        assert list(self.from_letters([0, 0, 2], 3).counts) == [2, 0, 1]

    def test_empty(self):
        letters = np.array([], dtype=np.int64)
        assert list(self.from_letters(letters, 4).counts) == [0, 0, 0, 0]

    def test_single_letter(self):
        assert list(self.from_letters([1, 1, 1, 1], 2).counts) == [0, 4]

    def test_out_of_range(self):
        for letters in ([3], [-1, 0]):
            with pytest.raises(ValueError):
                self.from_letters(letters, 3)

    def test_sum_recovers_t(self):
        r = rng(11)
        for _ in range(20):
            t = int(r.integers(0, 200))
            s = sample(uniform_distribution(13), t, r)
            assert self.from_letters(s.letters, 13).t == t


class TestSplitMap:
    def test_empty_multiset_identity(self):
        sm = split_map(OccurrenceVector.from_letters([], 3), 3)
        assert list(sm.bucket_counts) == [1, 1, 1]
        assert sm.total_letters == 3

    def test_single_element(self):
        sm = split_map(OccurrenceVector.from_letters([0], 2), 2)
        assert list(sm.bucket_counts) == [2, 1]

    def test_repeats(self):
        sm = split_map(OccurrenceVector.from_letters([0, 0, 1], 2), 2)
        assert list(sm.bucket_counts) == [3, 2]
        assert sm.total_letters == 2 + 3


class TestSplitDistribution:
    def test_hand_example(self):
        p = Distribution([0.5, 0.5])
        sm = split_map(OccurrenceVector.from_letters([0], 2), 2)
        assert np.allclose(split_distribution(p, sm).probs, [0.25, 0.25, 0.5])

    def test_identity_split(self):
        p = Distribution([0.3, 0.2, 0.5])
        sm = split_map(OccurrenceVector.from_letters([], 3), 3)
        assert np.allclose(split_distribution(p, sm).probs, p.probs)

    def test_unsplit_mass_unchanged(self):
        p = Distribution([1.0, 0.0])
        sm = split_map(OccurrenceVector.from_letters([1], 2), 2)
        assert np.allclose(split_distribution(p, sm).probs, [1.0, 0.0, 0.0])


class TestSplitSample:
    def test_single_bucket_deterministic(self):
        # S = {1}: letters 0 and 2 keep one bucket each, at 0 and 3
        sm = split_map(OccurrenceVector.from_letters([1], 3), 3)
        recast = split_samples(np.array([0, 2, 0, 2]), sm, rng())
        assert recast.dtype == np.int64 and list(recast) == [0, 3, 0, 3]

    def test_two_buckets_balanced(self):
        sm = split_map(OccurrenceVector.from_letters([0], 2), 2)
        zeros = np.zeros(10 ** 5, dtype=np.int64)
        hits = np.bincount(split_samples(zeros, sm, rng(2)), minlength=2)
        assert np.all(np.abs(hits / 10 ** 5 - 0.5) < 0.01)

    def test_composition_matches_split_distribution(self):
        # TV < 0.02 between recast samples and direct split-distribution draws
        n, t = 5, 10 ** 5
        r = rng(3)
        p = Distribution(r.dirichlet(np.ones(n)))
        s = OccurrenceVector.from_letters(r.integers(0, n, 3), n)
        sm = split_map(s, n)
        recast = split_samples(sample(p, t, r).letters, sm, r)
        direct = sample(split_distribution(p, sm), t, r)
        h1 = np.bincount(recast, minlength=sm.total_letters) / t
        h2 = np.bincount(direct.letters, minlength=sm.total_letters) / t
        assert 0.5 * np.abs(h1 - h2).sum() < 0.02

    def test_largest_uniform_lands_in_last_bucket(self):
        # Generator.random() is at most 1 - 2**-53, and floor(u * a) is then
        # still a - 1 for every bucket count a below 2**53: no clamp needed.
        class LargestUniform:
            def random(self, size):
                return np.full(size, 1.0 - 2.0 ** -53)

        a = np.concatenate((np.arange(1, 2 ** 20 + 1), 2 ** np.arange(21, 53),
                            [2 ** 53 - 1]))
        sm = SplitMap(a)
        recast = split_samples(np.arange(a.size), sm, LargestUniform())
        assert np.array_equal(recast, sm.offsets[1:] - 1)

    @given(st.data())
    def test_recast_lies_in_its_letters_buckets(self, data):
        n = data.draw(st.integers(1, 6))
        letters = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                              max_size=30)), dtype=np.int64)
        split = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        sm = split_map(OccurrenceVector.from_letters(split, n), n)
        r = rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        recast = split_samples(letters, sm, r)
        assert np.all((sm.offsets[letters] <= recast)
                      & (recast < sm.offsets[letters + 1]))
        assert np.all(recast < sm.total_letters)


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

    @given(st.data())
    def test_rows_lays_the_rows_end_to_end(self, data):
        # one ragged read is the rows read one at a time, in order
        n = data.draw(st.integers(1, 10))
        max_buckets = data.draw(st.integers(1, 6))
        x = OccurrenceVector(data.draw(st.lists(st.integers(0, 30),
                                                min_size=n, max_size=n)))
        m = split_occurrence_matrix(x, max_buckets,
                                    rng(data.draw(st.integers(0, 2 ** 32 - 1))))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(1, max_buckets)),
                                   max_size=12))
        letters = np.array([i for i, _ in pairs], dtype=np.int64)
        buckets = np.array([j for _, j in pairs], dtype=np.int64)
        flat = m.rows(letters, buckets)
        assert flat.dtype == np.int64
        assert np.array_equal(flat, np.concatenate(
            [m.row(i, j) for i, j in pairs] + [np.zeros(0, dtype=np.int64)]))
        for bad in (0, max_buckets + 1):
            with pytest.raises(ValueError, match="bucket count out of range"):
                m.rows(np.append(letters, 0), np.append(buckets, bad))

    @given(st.data())
    def test_rows_are_drawn_once_and_kept(self, data):
        # a row read again, alone or in another group, is the same array,
        # and every row handed out is read-only
        n = data.draw(st.integers(1, 10))
        max_buckets = data.draw(st.integers(1, 6))
        x = OccurrenceVector(data.draw(st.lists(st.integers(0, 30),
                                                min_size=n, max_size=n)))
        m = split_occurrence_matrix(x, max_buckets,
                                    rng(data.draw(st.integers(0, 2 ** 32 - 1))))
        first = {}
        for _ in range(data.draw(st.integers(1, 8))):
            j = data.draw(st.integers(1, max_buckets))
            group = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                                max_size=12)), dtype=np.int64)
            rows = m.row(group, j)
            assert rows.shape == (group.size, j) and not rows.flags.writeable
            for i, row in zip(group.tolist(), rows):
                assert row.sum() == x.counts[i]
                assert np.array_equal(row, first.setdefault((i, j), row))
                alone = m.row(i, j)
                assert not alone.flags.writeable
                assert np.array_equal(alone, row)


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
    def test_norm_monotone_in_split_set(self):
        r = rng(9)
        for _ in range(50):
            n = int(r.integers(2, 15))
            p = Distribution(r.dirichlet(np.ones(n)))
            base = r.integers(0, n, int(r.integers(0, 6)))
            extra = r.integers(0, n, int(r.integers(1, 6)))
            small = OccurrenceVector.from_letters(base, n)
            large = OccurrenceVector.from_letters(np.concatenate([base, extra]), n)
            norm_small = l2_norm_sq(split_distribution(p, split_map(small, n)))
            norm_large = l2_norm_sq(split_distribution(p, split_map(large, n)))
            assert norm_large <= norm_small + 1e-15


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

import itertools
import math

import numpy as np
import pytest

from srleak.errors import CapExceededError, DimensionError
from srleak.probcore import (
    DEFAULT_TYPE_CAP,
    Distribution,
    DistortionMeasure,
    TypeClass,
    all_sequences,
    binary_entropy,
    binary_kl,
    count_types,
    entropy,
    enumerate_types,
    expected_distortion,
    kl_divergence,
    lex_index,
    lex_rows,
    type_class_members,
    type_class_probability,
    type_count_vectors,
    type_probability,
    types_within,
)

from conftest import per_letter_type_probability, sequence_type


def hb(p: float) -> float:
    # independent binary-entropy oracle for frozen expected values
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestDistribution:
    def test_valid(self):
        d = Distribution([0.25, 0.75])
        assert d.alphabet_size == 2
        assert d.full_support

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.5 + 1e-6])

    def test_full_support_flag(self):
        assert not Distribution([1.0, 0.0]).full_support

    def test_immutability(self):
        d = Distribution.bernoulli(0.3)
        with pytest.raises((ValueError, AttributeError)):
            d.probs[0] = 0.5

    def test_caller_array_stays_writable(self):
        a = np.array([0.5, 0.5])
        d = Distribution(a)
        a[0] = 0.25
        assert d.probs.tolist() == [0.5, 0.5]


class TestBernoulli:
    """``Distribution.bernoulli`` skips the constructor's validation; its
    result must be the validated constructor's, bit for bit."""

    EDGES = [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53, 0.3, -0.0]

    @pytest.mark.parametrize("p", EDGES + np.random.default_rng(5).random(40).tolist())
    def test_equals_the_validated_constructor(self, p):
        fast, slow = Distribution.bernoulli(p), Distribution([1.0 - p, p])
        assert type(fast) is Distribution
        assert fast.probs.tobytes() == slow.probs.tobytes()
        assert fast.probs.dtype == slow.probs.dtype == np.float64
        assert fast.probs.shape == (2,)
        assert fast.probs.flags.writeable is slow.probs.flags.writeable is False
        assert fast == slow and hash(fast) == hash(slow)
        with pytest.raises(ValueError, match="read-only"):
            fast.probs[0] = 0.5
        with pytest.raises(AttributeError, match="immutable"):
            fast.probs = slow.probs
        with pytest.raises(AttributeError, match="immutable"):
            fast.extra = 1

    def test_numpy_scalar_parameter(self):
        for p in (np.float64(0.3), np.float32(0.3)):
            assert Distribution.bernoulli(p).probs.tobytes() == Distribution([1.0 - p, p]).probs.tobytes()

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_rejects_parameters_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"^bernoulli parameter must lie in \[0, 1\]$"):
            Distribution.bernoulli(p)


class TestDistortionMeasure:
    def test_hamming(self):
        d = DistortionMeasure.hamming(3)
        assert d.rows == d.cols == 3
        assert d.matrix.trace() == 0.0

    def test_requires_zero_per_row(self):
        with pytest.raises(ValueError):
            DistortionMeasure([[0.0, 1.0], [0.5, 1.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistortionMeasure([[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            DistortionMeasure([[0.0, math.inf], [1.0, 0.0]])

    def test_caller_array_stays_writable(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = DistortionMeasure(a)
        a[0, 1] = 0.25
        assert d.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError):
            d.matrix[0, 1] = 0.25


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Distribution.bernoulli(0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(Distribution([0.0, 1.0])) == 0.0

    def test_bern_03(self):
        # oracle: -0.3 log2 0.3 - 0.7 log2 0.7
        assert entropy(Distribution.bernoulli(0.3)) == pytest.approx(0.8812908992306927, abs=1e-14)

    def test_binary_entropy_matches(self):
        for p in (0.0, 0.1, 0.35, 0.5, 0.99):
            assert binary_entropy(p) == pytest.approx(hb(p), abs=1e-15)

    def test_concavity_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.integers(2, 6)
            q1 = rng.dirichlet(np.ones(k))
            q2 = rng.dirichlet(np.ones(k))
            lam = float(rng.uniform())
            mix = entropy(Distribution(lam * q1 + (1 - lam) * q2))
            parts = lam * entropy(Distribution(q1)) + (1 - lam) * entropy(Distribution(q2))
            assert mix >= parts - 1e-12


class TestKl:
    def test_identity(self):
        p = Distribution([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_half_vs_03(self):
        # oracle: 0.5 log2(0.5/0.3) + 0.5 log2(0.5/0.7) = 0.5 log2(25/21)
        expect = 0.5 * math.log2(25.0 / 21.0)
        assert expect == pytest.approx(0.12576938349798210, abs=1e-15)
        got = kl_divergence(Distribution.bernoulli(0.5), Distribution.bernoulli(0.3))
        assert got == pytest.approx(expect, abs=1e-14)

    def test_binary_formula_cross_check(self):
        got = binary_kl(0.3, 0.4)
        ref = kl_divergence(Distribution.bernoulli(0.3), Distribution.bernoulli(0.4))
        assert got == pytest.approx(ref, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0 / 3] * 3))

    def test_requires_full_support_reference(self):
        with pytest.raises(ValueError):
            kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.integers(2, 5)
            q = rng.dirichlet(np.ones(k))
            p = rng.dirichlet(np.ones(k)) + 1e-3
            p /= p.sum()
            v = kl_divergence(Distribution(q), Distribution(p))
            assert v >= 0.0
            if not np.allclose(q, p, atol=1e-12):
                assert v > 0.0


class TestExpectedDistortion:
    def test_identity_channel(self):
        src = Distribution([0.4, 0.6])
        assert expected_distortion(np.eye(2), src, DistortionMeasure.hamming(2)) == 0.0

    def test_uniform_channel_binary_hamming(self):
        w = np.full((2, 2), 0.5)
        for p in (0.1, 0.5, 0.9):
            got = expected_distortion(w, Distribution.bernoulli(p), DistortionMeasure.hamming(2))
            assert got == pytest.approx(0.5, abs=1e-15)

    def test_flip_channel(self):
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        got = expected_distortion(w, Distribution.bernoulli(0.4), DistortionMeasure.hamming(2))
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            expected_distortion(np.eye(3), Distribution.bernoulli(0.5), DistortionMeasure.hamming(2))


class TestTypes:
    def test_enumeration_small(self):
        types = enumerate_types(2, 2)
        assert [t.counts for t in types] == [(2, 0), (1, 1), (0, 2)]

    def test_binary_count(self):
        assert len(enumerate_types(8, 2)) == 9

    def test_count_formula(self):
        assert count_types(4, 3) == math.comb(6, 2) == 15
        assert len(enumerate_types(4, 3)) == 15

    def test_cap(self):
        # C(105, 5) types exceed DEFAULT_TYPE_CAP, refused before any allocation
        with pytest.raises(CapExceededError, match=f"exceed the cap of {DEFAULT_TYPE_CAP}"):
            enumerate_types(100, 6)

    def test_count_vectors_in_recursive_order(self):
        def compositions(total, parts):
            # descending in the first coordinate, then recursively
            if parts == 1:
                return [(total,)]
            return [(first,) + rest for first in range(total, -1, -1)
                    for rest in compositions(total - first, parts - 1)]

        for n, k in [(1, 1), (5, 1), (1, 4), (6, 2), (4, 3), (5, 4), (3, 8), (3, 64), (2, 127)]:
            rows = type_count_vectors(n, k)
            assert rows.dtype == np.int64 and rows.shape == (count_types(n, k), k)
            assert [tuple(r) for r in rows.tolist()] == compositions(n, k)
            assert [t.counts for t in enumerate_types(n, k)] == compositions(n, k)

    def test_cardinality(self):
        t = TypeClass(4, (2, 2))
        assert t.cardinality == 6
        assert t.log2_cardinality == pytest.approx(math.log2(6), abs=1e-12)

    def test_members_lexicographic(self):
        t = TypeClass(3, (2, 1))
        members = type_class_members(t)
        assert members.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    @pytest.mark.parametrize("counts", [(1,), (4, 0), (0, 3, 2), (2, 2, 2), (3, 0, 1, 2), (1, 1, 1, 1, 1)])
    def test_members_equal_sorted_permutations(self, counts):
        t = TypeClass(sum(counts), counts)
        word = [s for s, c in enumerate(counts) for _ in range(c)]
        members = type_class_members(t)
        assert members.dtype == np.int8 and members.shape == (t.cardinality, t.n)
        assert members.tolist() == [list(p) for p in sorted(set(itertools.permutations(word)))]

    def test_sequence_type(self):
        assert sequence_type([1, 0, 1, 1], 2).counts == (1, 3)

    def test_point_mass_probability(self):
        t = TypeClass(5, (5, 0))
        assert type_class_probability(t, Distribution([1.0, 0.0])) == pytest.approx(1.0)

    def test_pair_probability(self):
        t = TypeClass(2, (1, 1))
        assert type_class_probability(t, Distribution.bernoulli(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        for n in (5, 8, 12):
            for _ in range(3):
                k = int(rng.integers(2, 4))
                p = Distribution(rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
                total = sum(type_class_probability(t, p) for t in enumerate_types(n, k))
                assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n, k, zeros", [
        (1, 3, 0), (7, 2, 0), (6, 3, 1), (5, 4, 2), (12, 6, 0), (16, 8, 1), (3, 64, 0), (2, 127, 5),
    ])
    def test_probability_equals_the_per_letter_formula(self, n, k, zeros):
        # type_class_probability and type_probability of the nonzero counts
        # give the first formula's float, bit for bit, zero-mass letters too
        rng = np.random.default_rng(n * 1000 + k)
        probs = rng.dirichlet(np.ones(k))
        probs[rng.permutation(k)[:zeros]] = 0.0
        p = Distribution(probs / probs.sum())
        rows = type_count_vectors(n, k)
        for counts in rows[rng.permutation(len(rows))[:500]].tolist():
            want = per_letter_type_probability(counts, p.probs)
            assert type_class_probability(TypeClass(n, tuple(counts)), p) == want
            nonzero = [x for x, c in enumerate(counts) if c]
            assert type_probability(n, [counts[x] for x in nonzero], p.probs[nonzero].tolist()) == want

    def test_sandwich_bound(self):
        p = Distribution.bernoulli(0.3)
        for n in (4, 9):
            for t in enumerate_types(n, 2):
                div = kl_divergence(t.empirical(), p)
                prob = type_class_probability(t, p)
                upper = 2.0 ** (-n * div)
                lower = (n + 1) ** (-2) * upper
                assert lower - 1e-15 <= prob <= upper + 1e-12


class TestTypesWithin:
    @pytest.mark.parametrize("k, n", [(2, 200), (3, 30), (4, 20), (8, 6), (24, 3), (64, 3)])
    @pytest.mark.parametrize("law", ["uniform", "random"])
    def test_ids_equal_the_scalar_comparison_at_the_edge(self, k, n, law):
        # thresholds exactly at a type's scalar divergence and one float to
        # either side, at the types whose all-column sum moved off the scalar's
        # (the band's work) and at one seeded type
        rng = np.random.default_rng(k * 1000 + n)
        p = Distribution.uniform(k) if law == "uniform" else Distribution(rng.dirichlet(np.ones(k)))
        div = np.array([kl_divergence(t.empirical(), p) for t in enumerate_types(n, k)])
        counts = type_count_vectors(n, k)
        q = np.where(counts > 0, counts / n, 1.0)
        moved = np.flatnonzero(((counts > 0) * q * (np.log2(q) - np.log2(p.probs))).sum(axis=1) != div)
        picks = rng.choice(moved, size=min(2, moved.size), replace=False).tolist()
        for j in picks + [int(rng.integers(div.size))]:
            for threshold in (np.nextafter(div[j], -np.inf), div[j], np.nextafter(div[j], np.inf)):
                rows, ids = types_within(n, p, threshold)
                assert np.array_equal(rows, counts)
                assert ids.tolist() == np.flatnonzero(~(div > threshold)).tolist(), (k, n, j)


class TestAllSequences:
    def test_lexicographic(self):
        seqs = all_sequences(2, 2)
        assert seqs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            all_sequences(2, 30)


class TestLexIndex:
    # (k, n) with k^n <= 2^62: the widest blocklengths of two, three and 127
    # letters, then seeded alphabets, each at its longest and a short length
    @staticmethod
    def cases():
        rng = np.random.default_rng(23)
        fixed = [(2, 62), (3, 39), (127, 8), (127, 1)]
        drawn = []
        for k in rng.integers(2, 128, size=4).tolist():
            longest = max(n for n in range(1, 63) if k**n <= 2**62)
            drawn += [(k, longest), (k, int(rng.integers(1, longest + 1)))]
        return fixed + drawn

    def test_index_rows_index_round_trip(self):
        rng = np.random.default_rng(5)
        for k, n in self.cases():
            top = k**n - 1
            index = np.concatenate([[0, 1, top - 1, top], rng.integers(0, top, size=200, endpoint=True)])
            rows = lex_rows(index, k, n)
            assert rows.dtype == np.int8 and rows.shape == (index.size, n)
            assert rows.min() >= 0 and rows.max() < k
            assert np.array_equal(lex_index(rows, k), index), (k, n)
            # the top index is the last symbol everywhere; each row spells its index
            assert rows[3].tolist() == [k - 1] * n
            for i, row in zip(index[:8].tolist(), rows[:8].tolist()):
                assert sum(s * k ** (n - 1 - t) for t, s in enumerate(row)) == i

    def test_lex_rows_equals_the_broadcast_formula(self):
        # the column-by-column divmod against the (rows x n) power broadcast
        # it replaced, for every alphabet the codec takes
        rng = np.random.default_rng(11)
        for k in range(1, 128):
            for n in sorted({1, 2, max(n for n in range(1, 63) if k**n <= 2**62)}):
                index = np.concatenate([[0, k**n - 1], rng.integers(0, k**n, size=50)])
                want = (index[:, None] // k ** np.arange(n - 1, -1, -1, dtype=np.int64) % k).astype(np.int8)
                assert np.array_equal(lex_rows(index, k, n), want), (k, n)
        assert lex_rows(np.zeros(0, dtype=np.int64), 3, 4).shape == (0, 4)

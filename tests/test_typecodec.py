import dataclasses
import hashlib
import math
import re
import struct

import numpy as np
import pytest

from srleak.errors import CapExceededError, CodebookError, SrleakError
from srleak import typecodec
from srleak.exponents import RateModel, SystemSpec
from srleak.probcore import (
    Distribution,
    DistortionMeasure,
    TypeClass,
    all_sequences,
    binary_kl,
    type_class_members,
    type_class_probability,
    types_within,
)
from srleak.typecodec import (
    CoverCodebook,
    KeyPair,
    M0_LAYER1,
    M0_LAYER2,
    ball_complement_probability,
    build_codebook,
    decode,
    encode,
    jep_exact,
    jep_exponent_threshold,
    jep_type_count_bound,
    key_bits,
    leakage_exact,
    leakage_oracle,
    leakage_report,
    load_codebook,
    sample_keys,
    save_codebook,
    simulate_jep,
    _cover_matrix,
)

from conftest import (block_spans, codebook_blocks, covering_count_bounds, minimum_cover_size,
                      per_letter_type_probability, unpack_cover)

H2 = DistortionMeasure.hamming(2)


def make_spec(p=0.3, D1=0.2, D2=0.1, R1=1.0, R2=1.0, r1=0.0, r2=0.0, alpha=0.1):
    return SystemSpec(
        source=Distribution.bernoulli(p), d1=H2, d2=H2,
        D1=D1, D2=D2, R1=R1, R2=R2, r1=r1, r2=r2, alpha=alpha,
    )


def avg_distortion(d, x, y):
    return float(d.matrix[np.asarray(x), np.asarray(y)].sum()) / len(x)


class TestBuild:
    def test_single_codeword_at_huge_distortion(self):
        # at n=1 the erasure slot plus one pattern per type need R1 >= 2 bits
        spec = make_spec(D1=1.5, D2=1.2, alpha=3.0, R1=2.0, R2=2.0)
        cb = build_codebook(spec, 1, delta=0.5)
        assert cb._y_count.tolist() == [1, 1]

    def test_zero_distortion_needs_every_sequence(self):
        spec = SystemSpec(
            source=Distribution.bernoulli(0.5), d1=H2, d2=H2,
            D1=1e-13, D2=0.0, R1=3.0, R2=3.0, r1=0.0, r2=0.0, alpha=0.2,
        )
        cb = build_codebook(spec, 4, delta=0.05)
        k = cb.type_counts.tolist().index([2, 2])
        assert cb._y_count[k] == TypeClass(4, (2, 2)).cardinality == 6

    def test_greedy_vs_exact_minimum(self):
        # weight-4 type at n=8, radius-2 covering
        members = type_class_members(TypeClass(8, (4, 4)))
        cands = all_sequences(2, 8)
        bits = _cover_matrix(members, cands, H2.matrix, 0.25, 8)
        from srleak.typecodec import _greedy_cover

        chrono, _ = _greedy_cover(bits, np.ones(members.shape[0], dtype=bool))
        cover = unpack_cover(bits, members.shape[0])
        exact = minimum_cover_size(cover)
        assert exact <= len(chrono)
        assert len(chrono) <= 2 * exact  # greedy stays in a sane band
        # sphere covering: a codeword covers at most the largest ball, so
        # every cover needs ceil(|members| / largest_ball) codewords (5 <= 6 here)
        largest_ball = int(cover.sum(axis=1).max())
        assert math.ceil(members.shape[0] / largest_ball) <= exact

    def test_rate_overflow_names_type(self):
        spec = make_spec(R1=0.31, R2=1.0, alpha=0.05)
        with pytest.raises(CodebookError):
            build_codebook(spec, 8, delta=0.02)

    def test_delta_defaults_positive(self):
        spec = make_spec()
        cb = build_codebook(spec, 4)
        assert cb.delta > 0

    def test_nan_delta_rejected(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            build_codebook(make_spec(), 4, delta=math.nan)

    def test_infinite_delta_rejected(self):
        with pytest.raises(ValueError, match="delta must be finite"):
            build_codebook(make_spec(), 4, delta=math.inf)
        with pytest.raises(ValueError, match="delta must be finite"):
            jep_exponent_threshold(2, math.inf)

    def test_cap_guard(self):
        spec = make_spec()
        with pytest.raises(CapExceededError):
            build_codebook(spec, 8, delta=0.1, max_sequences=100)

    def test_cover_cells_cap(self):
        # in-ball types (7, 1), (6, 2), (5, 3), (4, 4) have 8, 28, 56 and 70
        # members; their layer-1 covers keep 37, 92, 154 and 182 of the 2^8
        # candidates: 296, 2576, 8624 and 12740 cells
        spec = make_spec()
        with pytest.raises(CapExceededError, match=r"type \(5, 3\) exceeds 8623 cells"):
            build_codebook(spec, 8, delta=0.1, max_cover_cells=56 * 154 - 1)
        build_codebook(spec, 8, delta=0.1, max_cover_cells=70 * 256)

    def test_layer1_cover_cells_cap_counts_kept_candidates(self):
        # every kept matrix fits in 12740 cells, although 56 and 70 members
        # times all 2^8 candidates would not
        cb = build_codebook(make_spec(), 8, delta=0.1, max_cover_cells=70 * 182)
        assert cb.type_counts.tolist() == [[7, 1], [6, 2], [5, 3], [4, 4]]

    def test_layer2_cover_cells_cap(self):
        # d2 has three columns: layer-1 covers hold members x 2^8 cells (at
        # most 70 x 256 = 17920), the layer-2 cover of type (5, 3) 56 members
        # x 504 live candidates = 28224, of type (4, 4) 70 x 630 = 44100
        spec = SystemSpec(Distribution.bernoulli(0.3), H2,
                          DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                          0.25, 0.1, 1.6, 1.6, 0.125, 0.125, 0.1)
        with pytest.raises(CapExceededError,
                           match=r"layer-2 cover matrix for type \(5, 3\) exceeds 17920 cells"):
            build_codebook(spec, 8, delta=0.1, max_cover_cells=70 * 256)
        build_codebook(spec, 8, delta=0.1, max_cover_cells=70 * 630)


# SHA-256 of the save_codebook bytes, recorded with the per-position cover
# kernel and the rescanning greedy that the current ones replaced
PINNED_CODEBOOKS = {
    "binary-hamming": (
        SystemSpec(Distribution.bernoulli(0.3), H2, H2, 0.2, 0.1, 1.0, 1.0, 0.25, 0.25, 0.12),
        8, 0.2, "06d1385046d9b88f6e3b6f0000fefe38a9fefcfe907969c6474deba4f97dc98f",
    ),
    "binary-erasure-d1": (
        SystemSpec(Distribution.bernoulli(0.35), DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                   H2, 0.3, 0.1, 1.6, 1.6, 0.125, 0.125, 0.1),
        8, 0.05, "525866df7f2a57cd00571aa40c76520f1f947fb5d770ec7531674b2534fb1920",
    ),
    "ternary-hamming": (
        SystemSpec(Distribution([0.4, 0.33, 0.27]), DistortionMeasure.hamming(3),
                   DistortionMeasure.hamming(3), 0.3, 0.1, 1.6, 1.6, 0.17, 0.17, 0.1),
        6, 0.05, "f95534a0afacdb155da03bc9aa56e42b53d22445af162f9eaace8d9e4ab433da",
    ),
    # benchmark-size builds, recorded with one layer-2 cover per layer-1
    # codeword over every candidate, before candidates were filtered by type
    "binary-hamming-n12": (
        SystemSpec(Distribution.bernoulli(0.3), H2, H2, 0.2, 0.1, 1.6, 1.6, 0.125, 0.125, 0.1),
        12, 0.05, "45e88381950f77efab91e06a0dca8365aec9c47a2c43a0027b2f53245d7676dd",
    ),
    "binary-erasure-d1-n10": (
        SystemSpec(Distribution.bernoulli(0.35), DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                   H2, 0.3, 0.1, 1.6, 1.6, 0.15, 0.15, 0.1),
        10, 0.05, "8a58b416aeecc51813d28f0dbf51053ac8afd5093837189e76f0f8338789c97f",
    ),
    "ternary-hamming-n8": (
        SystemSpec(Distribution([0.4, 0.33, 0.27]), DistortionMeasure.hamming(3),
                   DistortionMeasure.hamming(3), 0.3, 0.1, 1.6, 1.6, 0.17, 0.17, 0.1),
        8, 0.05, "a74ae9bc4423ab5ce9ff49674334203001d87d4dc8e58cbdea92713b8251e4f6",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CODEBOOKS))
def test_codebook_bytes_pinned(name, tmp_path):
    spec, n, delta, digest = PINNED_CODEBOOKS[name]
    path = tmp_path / "book.srcb"
    save_codebook(build_codebook(spec, n, delta), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["binary-hamming-n12", "ternary-hamming-n8"])
def test_pinned_builds_run_both_pick_loops(name, tmp_path, monkeypatch):
    # the criterion 6 source and distortions at n = 12, and the ternary
    # benchmark point: small layer-2 covers pick on Python ints, the larger
    # covers on the packed matrix, and the bytes keep their pins
    spec, n, delta, digest = PINNED_CODEBOOKS[name]
    calls = {"_int_picks": 0, "_packed_picks": 0}
    for loop in calls:
        def counted(*args, _loop=loop, _f=getattr(typecodec, loop)):
            calls[_loop] += 1
            return _f(*args)
        monkeypatch.setattr(typecodec, loop, counted)
    path = tmp_path / "book.srcb"
    save_codebook(build_codebook(spec, n, delta), str(path))
    assert calls["_int_picks"] > 0 and calls["_packed_picks"] > 0, calls
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCodebookChecks:
    """A CoverCodebook checks its message budgets and its covering when it is made."""

    @staticmethod
    def remake(cb, blocks, spec=None):
        return CoverCodebook(RateModel(spec or cb.spec), cb.n, cb.delta, blocks)

    @pytest.fixture
    def cb(self):
        return build_codebook(make_spec(r1=0.25, r2=0.25, alpha=0.12), 6, delta=0.2)

    def test_books_of_a_built_codebook_pass(self, cb):
        again = self.remake(cb, codebook_blocks(cb))
        for name in ("type_ids", "type_counts", "_seq_index", "_seq_book", "_seq_ypos", "_seq_zpos",
                     "_y_count", "_Y", "_z_count", "_Z"):
            assert np.array_equal(getattr(again, name), getattr(cb, name)), name
        for which in ("M1", "M1M2"):
            assert leakage_exact(again, which) == leakage_exact(cb, which)

    def test_flipped_codeword_violates_the_covering(self, cb):
        (type_id, y_codes, z_codes, members), *rest = codebook_blocks(cb)
        y_codes[0] = 1 - y_codes[0]
        with pytest.raises(CodebookError, match=r"^covering violated at type "):
            self.remake(cb, [(type_id, y_codes, z_codes, members), *rest])

    def test_books_over_the_layer1_budget(self, cb):
        spec = dataclasses.replace(cb.spec, R1=0.1)
        with pytest.raises(CodebookError, match=r"^layer-1 messages \(\d+ patterns plus erasure\) "
                                                r"overflow 2\^\(n\*R1\); largest codebook at type "):
            self.remake(cb, codebook_blocks(cb), spec)

    def test_type_set_other_than_the_balls_is_refused(self):
        # the README point at n = 8: without its block for type (7, 1) the code
        # erases that type, which the exact JEP (the out-of-ball mass) misses
        cb = build_codebook(make_spec(r1=0.06, r2=0.1), 8)
        blocks = codebook_blocks(cb)
        assert cb.type_counts[0].tolist() == [7, 1]
        ids = cb.type_ids.tolist()
        for changed in (blocks[1:], blocks[:-1], blocks[1::-1] + blocks[2:], blocks + blocks[-1:]):
            with pytest.raises(CodebookError, match=re.escape(f"are not the in-ball type ids {ids}")):
                self.remake(cb, changed)

    def test_one_covering_check_per_build_and_load(self, tmp_path, monkeypatch):
        calls = []
        original = typecodec.verify_covering
        monkeypatch.setattr(typecodec, "verify_covering", lambda cb: calls.append(cb) or original(cb))
        cb = build_codebook(make_spec(alpha=0.12), 6, delta=0.2)
        assert calls == [cb]
        path = str(tmp_path / "book.srcb")
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert calls == [cb, loaded]


class TestEncodeDecode:
    def test_out_of_ball_maps_to_erasure(self):
        spec = make_spec(alpha=0.01)
        cb = build_codebook(spec, 8, delta=0.005)
        # all-ones sequence diverges far from Bern(0.3)
        keys = KeyPair(0, 0, cb.bits1, cb.bits2)
        m1, m2 = encode(np.ones(8, dtype=np.int8), keys, cb)
        assert m1 == M0_LAYER1 and m2 == M0_LAYER2
        out = decode(m1, m2, keys, cb)
        assert out.erased

    def test_zero_key_rate_roundtrip(self):
        spec = make_spec(r1=0.0, r2=0.0)
        cb = build_codebook(spec, 6, delta=0.4)
        assert cb.bits1 == 0 and cb.bits2 == 0
        keys = KeyPair(0, 0, 0, 0)
        for counts in cb.type_counts.tolist():
            members = type_class_members(TypeClass(6, tuple(counts)))
            for row in members:
                m1, m2 = encode(row, keys, cb)
                out = decode(m1, m2, keys, cb)
                assert not out.erased
                assert avg_distortion(H2, row, out.xhat1) <= spec.D1 + 1e-9
                assert avg_distortion(H2, row, out.xhat2) <= spec.D2 + 1e-9

    def test_keys_hide_only_within_bin_index(self):
        spec = make_spec(r1=0.25, r2=0.25)  # 2 key bits each at n=8
        cb = build_codebook(spec, 8, delta=0.4)
        assert cb.bits1 == 2 and cb.bits2 == 2
        assert [6, 2] in cb.type_counts.tolist()
        x = type_class_members(TypeClass(8, (6, 2)))[0]
        ka = KeyPair(0, 0, 2, 2)
        kb = KeyPair(3, 2, 2, 2)
        m1a, m2a = encode(x, ka, cb)
        m1b, m2b = encode(x, kb, cb)
        assert (m1a.type_id, m1a.bin_index) == (m1b.type_id, m1b.bin_index)
        assert m2a.bin_index == m2b.bin_index

    def test_exhaustive_roundtrip_with_keys(self):
        spec = make_spec(r1=0.25, r2=0.25, alpha=0.15)
        for n in (4, 6, 8):
            cb = build_codebook(spec, n, delta=0.3)
            for counts in cb.type_counts.tolist():
                members = type_class_members(TypeClass(n, tuple(counts)))
                for row in members:
                    for k1 in range(cb.cap1):
                        for k2 in range(cb.cap2):
                            keys = KeyPair(k1, k2, cb.bits1, cb.bits2)
                            out = decode(*encode(row, keys, cb), keys, cb)
                            assert not out.erased
                            assert avg_distortion(H2, row, out.xhat1) <= spec.D1 + 1e-9
                            assert avg_distortion(H2, row, out.xhat2) <= spec.D2 + 1e-9

    def test_wrong_key_garbles(self):
        spec = make_spec(r1=0.5, r2=0.5)  # plenty of key bits at n=6
        cb = build_codebook(spec, 6, delta=0.4)
        right = KeyPair(0, 0, cb.bits1, cb.bits2)
        wrong = KeyPair(cb.cap1 - 1, cb.cap2 - 1, cb.bits1, cb.bits2)
        garbled = 0
        for counts in cb.type_counts.tolist():
            members = type_class_members(TypeClass(6, tuple(counts)))
            for row in members:
                m1, m2 = encode(row, right, cb)
                out = decode(m1, m2, wrong, cb)
                if avg_distortion(H2, row, out.xhat1) > spec.D1 + 1e-9:
                    garbled += 1
        assert garbled > 0


class TestJep:
    def test_all_types_in_ball(self):
        spec = make_spec(alpha=3.0)
        cb = build_codebook(spec, 6, delta=0.5)
        assert not cb.has_out_of_ball
        assert jep_exact(cb) == 0.0

    def test_empty_ball_probability_one(self):
        assert ball_complement_probability(Distribution.bernoulli(0.3), 5, 1e-9) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_reference_without_full_support_raises(self):
        # the vector pass refuses a zero-mass letter as kl_divergence does,
        # before any log2(0) could warn or put every type inside the ball
        with pytest.raises(ValueError, match="full support"):
            ball_complement_probability(Distribution([0.5, 0.5, 0.0]), 3, 0.1)

    def test_empty_ball_semantics(self):
        # no type fits inside a vanishing ball: every sequence erases, the
        # error probability is one, and a constant message leaks nothing
        spec = SystemSpec(
            source=Distribution([0.999, 0.001]), d1=H2, d2=H2,
            D1=0.2, D2=0.1, R1=1.0, R2=1.0, r1=0.0, r2=0.0, alpha=1e-6,
        )
        cb = build_codebook(spec, 4, delta=1e-6)
        assert cb.type_ids.size == 0
        assert jep_exact(cb) == 1.0
        assert leakage_exact(cb, "M1") == 0.0
        assert leakage_exact(cb, "M1M2") == 0.0
        m1, m2 = encode([0, 1, 0, 1], KeyPair(0, 0, 0, 0), cb)
        assert m1 == M0_LAYER1 and m2 == M0_LAYER2

    def test_matches_type_sum(self):
        spec = make_spec(alpha=0.1)
        cb = build_codebook(spec, 8, delta=0.05)
        expect = sum(
            type_class_probability(t, spec.source)
            for t in __import__("srleak.probcore", fromlist=["enumerate_types"]).enumerate_types(8, 2)
            if binary_kl(t.counts[1] / 8, 0.3) > 0.15
        )
        assert jep_exact(cb) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("probs, n, threshold", [
        ([0.7, 0.3], 12, 0.15), ([0.4, 0.33, 0.27], 8, 0.15), ([0.1, 0.2, 0.3, 0.4], 10, 0.05),
        ([0.05, 0.1, 0.15, 0.2, 0.22, 0.28], 9, 0.1), ([1 / 64] * 64, 3, 2.0), ([1 / 64] * 64, 2, 0.5),
        ([0.7, 0.3], 9, 0.0),
    ])
    def test_complement_equals_the_per_type_loop(self, probs, n, threshold):
        # the first formula per out-of-ball type, summed in id order as the
        # per-TypeClass loop summed it: the same float, bit for bit
        source = Distribution(probs)
        rows, ball = types_within(n, source, threshold)
        want = 0.0
        for counts in np.delete(rows, ball, axis=0).tolist():
            want += per_letter_type_probability(counts, source.probs)
        assert ball_complement_probability(source, n, threshold) == want

    def test_type_count_bound_holds(self):
        spec = make_spec(alpha=0.1)
        cb = build_codebook(spec, 8, delta=0.05)
        assert jep_exact(cb) <= jep_type_count_bound(8, 2, 0.1, 0.05) + 1e-15

    def test_exponent_threshold(self):
        n_star = jep_exponent_threshold(2, 1.0)
        assert n_star == 6
        for n in range(n_star, n_star + 6):
            assert ball_complement_probability(
                Distribution.bernoulli(0.3), n, 0.05 + 1.0
            ) <= 2.0 ** (-n * 0.05) + 1e-15

    def test_exponent_threshold_rejects_nan(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            jep_exponent_threshold(2, math.nan)

    @staticmethod
    def loop_threshold(k, delta):
        """The threshold by its first definition: the first of n = 1, 2, ...
        that meets the float test."""
        n = 1
        while not k * math.log2(n + 1) <= n * delta:
            n += 1
        return n

    def test_exponent_threshold_matches_the_loop(self):
        rng = np.random.default_rng(21)
        pairs = [(int(rng.integers(1, 7)), float(10 ** rng.uniform(-2, math.log10(16))))
                 for _ in range(300)]
        # deltas on the bound itself, where the float test decides
        pairs += [(k, k * math.log2(n + 1) / n) for k in (1, 2, 3, 5) for n in (1, 2, 7, 100, 3001)]
        for k, delta in pairs:
            assert jep_exponent_threshold(k, delta) == self.loop_threshold(k, delta), (k, delta)

    @pytest.mark.parametrize("delta, n_star", [(1e-5, 4_414_783), (1e-12, 92_798_328_093_445)])
    def test_exponent_threshold_at_small_delta(self, delta, n_star):
        # far beyond any blocklength a scan would reach; the bound first holds at n_star
        assert jep_exponent_threshold(2, delta) == n_star
        assert 2 * math.log2(n_star + 1) <= n_star * delta
        assert not 2 * math.log2(n_star) <= (n_star - 1) * delta

    def test_exponent_threshold_beyond_the_float_range(self):
        with pytest.raises(CapExceededError, match="float range"):
            jep_exponent_threshold(2, 1e-306)

    def test_monte_carlo_agrees(self):
        spec = make_spec(alpha=0.08)
        cb = build_codebook(spec, 10, delta=0.04)
        exact = jep_exact(cb)
        rng = np.random.default_rng(17)
        est = simulate_jep(cb, 40_000, rng)
        sigma = math.sqrt(exact * (1 - exact) / 40_000)
        assert abs(est - exact) <= 4 * sigma + 1e-12


class TestLeakage:
    def test_single_type_single_bin(self):
        # ball reaches only the all-ones type (divergence log2(1/0.95) = 0.074)
        spec = SystemSpec(
            source=Distribution([0.05, 0.95]), d1=H2, d2=H2,
            D1=0.6, D2=0.5, R1=2.0, R2=2.0, r1=0.0, r2=0.0, alpha=0.08,
        )
        cb = build_codebook(spec, 4, delta=0.005)
        assert cb.type_ids.size == 1
        assert cb.has_out_of_ball
        assert leakage_exact(cb, "M1") == pytest.approx(1.0)  # log2(1 + 1)

    def test_one_bin_per_type_collapse(self):
        # r1 high enough that each type codebook fits one bin
        spec = make_spec(r1=0.5, r2=0.5, alpha=0.15)
        cb = build_codebook(spec, 6, delta=0.1)
        assert np.all((1 <= cb._y_count) & (cb._y_count <= cb.cap1))
        expect = math.log2(1 + cb.type_ids.size)
        assert leakage_exact(cb, "M1") == pytest.approx(expect, abs=1e-12)
        assert leakage_oracle(cb, "M1") == pytest.approx(expect, abs=1e-12)

    def test_closed_form_equals_oracle(self):
        configs = [
            dict(p=0.3, r1=0.0, r2=0.0, alpha=0.1, n=4, delta=0.3),
            dict(p=0.3, r1=0.25, r2=0.25, alpha=0.1, n=4, delta=0.3),
            dict(p=0.3, r1=0.2, r2=0.4, alpha=0.15, n=6, delta=0.2),
            dict(p=0.4, r1=0.34, r2=0.17, alpha=0.2, n=6, delta=0.25),
            dict(p=0.3, r1=0.13, r2=0.13, alpha=0.1, n=8, delta=0.15),
            dict(p=0.5, r1=0.25, r2=0.125, alpha=0.3, n=8, delta=0.2),
        ]
        for cfg in configs:
            spec = make_spec(p=cfg["p"], r1=cfg["r1"], r2=cfg["r2"], alpha=cfg["alpha"])
            cb = build_codebook(spec, cfg["n"], delta=cfg["delta"])
            for which in ("M1", "M1M2"):
                closed = leakage_exact(cb, which)
                oracle = leakage_oracle(cb, which)
                assert closed == pytest.approx(oracle, abs=1e-12), (cfg, which)

    def test_uniform_cipher_distribution(self):
        spec = make_spec(r1=0.25, r2=0.25)
        cb = build_codebook(spec, 8, delta=0.3)
        for counts in cb.type_counts[:2].tolist():
            members = type_class_members(TypeClass(8, tuple(counts)))
            row = members[0]
            seen: dict = {}
            for k1 in range(cb.cap1):
                m1, _ = encode(row, KeyPair(k1, 0, cb.bits1, cb.bits2), cb)
                seen[m1] = seen.get(m1, 0) + 1
            s1 = next(iter(seen)).cipher_width
            assert len(seen) == 1 << s1
            assert all(c * (1 << s1) == cb.cap1 for c in seen.values())

    def test_report(self):
        spec = make_spec(r1=0.25, r2=0.25)
        cb = build_codebook(spec, 6, delta=0.3)
        rep = leakage_report(cb, "M1M2")
        assert rep.oracle_enabled and rep.agree

    def test_oracle_cap(self):
        spec = make_spec()
        cb = build_codebook(spec, 8, delta=0.1)
        with pytest.raises(CapExceededError):
            leakage_oracle(cb, "M1", max_enum=10)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec = make_spec(r1=0.25, r2=0.25, alpha=0.12)
        cb = build_codebook(spec, 6, delta=0.2)
        path = str(tmp_path / "book.srcb")
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.n == cb.n
        assert loaded.delta == cb.delta
        assert loaded.type_ids.tolist() == cb.type_ids.tolist()
        assert loaded.type_counts.tolist() == cb.type_counts.tolist()
        for which in ("M1", "M1M2"):
            assert leakage_exact(loaded, which) == leakage_exact(cb, which)
        rng = np.random.default_rng(3)
        for _ in range(20):
            keys = sample_keys(cb, rng)
            row = rng.choice(2, size=6, p=spec.source.probs).astype(np.int8)
            assert encode(row, keys, cb) == encode(row, keys, loaded)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.srcb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CodebookError):
            load_codebook(str(path))

    def test_bad_version(self, tmp_path):
        spec = make_spec()
        cb = build_codebook(spec, 4, delta=0.2)
        path = tmp_path / "book.srcb"
        save_codebook(cb, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookError):
            load_codebook(str(path))

    @pytest.mark.parametrize("layer, symbol", [(1, 2), (1, -1), (2, 2), (2, -1)])
    def test_codeword_symbol_outside_alphabet(self, tmp_path, layer, symbol):
        # -1 is written as the byte 0xFF, which an int8 cast would wrap back
        cb = build_codebook(make_spec(), 6, delta=0.2)
        # the first codeword of the first book, and the first one under it
        codes = cb._Y if layer == 1 else cb._Z
        codes[0, 0] = symbol
        path = str(tmp_path / "book.srcb")
        save_codebook(cb, path)
        with pytest.raises(CodebookError, match=f"layer-{layer} codeword .* outside the alphabet"):
            load_codebook(path)

    @pytest.mark.parametrize("name", sorted(PINNED_CODEBOOKS))
    def test_type_id_bit_flips_refused(self, tmp_path, name):
        # an id that names another type or repeats one would decode that
        # book's messages with the wrong codewords
        spec, n, delta, _ = PINNED_CODEBOOKS[name]
        cb = build_codebook(spec, n, delta)
        path = tmp_path / "book.srcb"
        save_codebook(cb, str(path))
        clean = path.read_bytes()
        # each block opens with its type id
        for type_id, (offset, _) in zip(cb.type_ids.tolist(), block_spans(cb)):
            assert struct.unpack_from("<I", clean, offset) == (type_id,)
            for bit in range(32):
                raw = bytearray(clean)
                raw[offset + bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bytes(raw))
                with pytest.raises(CodebookError, match="type id"):
                    load_codebook(str(path))

    def test_bit_flips_fail_loudly_or_load_in_range(self, tmp_path):
        spec, n, delta, _ = PINNED_CODEBOOKS["binary-hamming"]
        path = tmp_path / "book.srcb"
        save_codebook(build_codebook(spec, n, delta), str(path))
        clean = path.read_bytes()
        rng = np.random.default_rng(2024)
        for bit in rng.integers(0, 8 * len(clean), size=400):
            raw = bytearray(clean)
            raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
            try:
                cb = load_codebook(str(path))
            except (SrleakError, ValueError):
                continue
            ka, kb = cb.spec.d1.cols, cb.spec.d2.cols
            assert np.all((cb._Y >= 0) & (cb._Y < ka)), bit
            assert np.all((cb._Z >= 0) & (cb._Z < kb)), bit


class TestKeyBits:
    def test_floor_rule(self):
        assert key_bits(8, 0.25) == 2
        assert key_bits(8, 0.1) == 0
        assert key_bits(10, 0.1) == 1
        assert key_bits(12, 0.06) == 0


class TestLeakageTrend:
    def test_gap_bounded_and_shrinking_along_ladder(self):
        # the exact message count lies between the sphere-covering count and
        # the greedy guarantee at every n; the decrease along (4, 6, 10) pins
        # today's codebooks and is not a guarantee (n = 5 -> 10 rises)
        from srleak.exponents import leakage_exponent_m1

        spec = make_spec(r1=0.06, r2=0.1, R1=1.6, R2=1.6, alpha=0.1)
        lam1 = leakage_exponent_m1(spec)
        gaps = []
        for n in (4, 6, 10):
            cb = build_codebook(spec, n, delta=0.05)
            leak = leakage_exact(cb, "M1")
            lower, upper = covering_count_bounds(spec, n, 0.05)
            assert lower <= round(2**leak) <= upper
            gap = leak / n - lam1
            assert gap >= 0.0
            gaps.append(gap)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps

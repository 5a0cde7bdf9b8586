import itertools
import math
import re
import sys

import numpy as np
import pytest

from srleak.adversary import (
    CONSTANT_TARGET,
    FIRST_SYMBOL_TARGET,
    GuessScheme,
    IDENTITY_TARGET,
    _GuessContext,
    end_to_end_guess_probability,
    end_to_end_lower_bound,
    g1_lower_bound,
    g1_success_probability,
    g2_lower_bound,
    g2_success_probability,
)
from srleak.errors import CapExceededError
from srleak.exponents import RateModel, SystemSpec
from srleak.probcore import Distribution, DistortionMeasure, all_sequences, enumerate_types, kl_divergence
from srleak.typecodec import build_codebook, jep_exact, leakage_exact, load_codebook, save_codebook

H2 = DistortionMeasure.hamming(2)


def make_spec(p=0.3, D1=0.25, D2=0.1, R1=1.0, R2=1.0, r1=0.0, r2=0.0, alpha=0.1):
    return SystemSpec(
        source=Distribution.bernoulli(p), d1=H2, d2=H2,
        D1=D1, D2=D2, R1=R1, R2=R2, r1=r1, r2=r2, alpha=alpha,
    )


class TestSequenceGuessers:
    def test_perfect_reconstruction_n1(self):
        spec = SystemSpec(
            source=Distribution.bernoulli(0.3), d1=H2, d2=H2,
            D1=1e-12, D2=0.0, R1=2.0, R2=2.0, r1=0.0, r2=0.0, alpha=0.1,
        )
        assert g1_success_probability([1], [1], spec) == pytest.approx(1.0)
        assert g2_success_probability([1], [1], [1], spec) == pytest.approx(1.0)

    def test_point_mass_source_probability_one(self):
        spec = make_spec(D1=0.5, D2=0.3)
        # all-zero x: a single sequence in its type, and zero-distortion pair
        assert g1_success_probability([0, 0, 0, 0], [0, 0, 0, 0], spec) > 0.0

    def test_single_symbol_alphabet_probability_one(self):
        # a one-symbol source admits a single joint type and a single
        # sequence, so both guessers are certain
        spec = SystemSpec(
            source=Distribution([1.0]),
            d1=DistortionMeasure([[0.0, 1.0]]),
            d2=DistortionMeasure([[0.0, 1.0]]),
            D1=0.5, D2=0.2, R1=1.0, R2=1.0, r1=0.0, r2=0.0, alpha=0.1,
        )
        assert g1_success_probability([0, 0, 0], [0, 0, 0], spec) == 1.0
        assert g2_success_probability([0, 0, 0], [0, 0, 0], [0, 0, 0], spec) == 1.0

    def test_precondition_errors(self):
        spec = make_spec(D1=0.2, D2=0.1)
        x, far = [0, 0, 0, 0], [1, 1, 1, 1]
        with pytest.raises(ValueError, match="g1 guarantee requires layer 1 to meet D1"):
            g1_success_probability(x, far, spec)
        with pytest.raises(ValueError, match="g2 guarantee requires layer 1 to meet D1"):
            g2_success_probability(x, far, x, spec)
        with pytest.raises(ValueError, match="g2 guarantee requires layer 2 to meet D2"):
            g2_success_probability(x, x, far, spec)
        # R(Bern(1/2), 0.2) = 1 - h(0.2) ~ 0.28 exceeds R1 = 0.1
        x = [0, 1, 0, 1]
        with pytest.raises(ValueError, match="g2 guarantee requires R1 to cover the rate"):
            g2_success_probability(x, x, x, make_spec(D1=0.2, D2=0.1, R1=0.1))
        # one error in four letters is within D1 + 1e-9 per letter but not
        # within 4 D1 + 1e-9 in total, the feasible set's test: refused, not 0
        x, one_off = [1, 0, 0, 0], [0, 0, 0, 0]
        with pytest.raises(ValueError, match="g1 guarantee requires layer 1 to meet D1"):
            g1_success_probability(x, one_off, make_spec(D1=(1 - 2e-9) / 4))
        assert g1_success_probability(x, one_off, make_spec(D1=0.25)) == 0.125
        with pytest.raises(ValueError, match="g2 guarantee requires layer 2 to meet D2"):
            g2_success_probability(x, x, one_off, make_spec(D1=0.25, D2=(1 - 2e-9) / 4))

    def test_feasible_set_count_n2(self):
        # direct enumeration oracle at n=2, D1=D2=0.5
        spec = make_spec(D1=0.5, D2=0.45, R1=2.0)
        ctx = _GuessContext(RateModel(spec))
        x = np.array([0, 1])
        xh1 = np.array([0, 1])
        xh2 = np.array([0, 1])
        feasible = ctx.feasible([xh1, xh2])
        p = g2_success_probability(x, xh1, xh2, spec, ctx=ctx)
        # the true joint type has x = xhat pairs (0,0,0) and (1,1,1)
        from srleak.adversary import _conditional_class_size, _joint_counts

        size = _conditional_class_size(_joint_counts([x, xh1, xh2], [2, 2, 2]))
        assert p == pytest.approx(1.0 / (len(feasible) * size))

    def test_lemma_bounds_exhaustive_g1(self):
        spec = make_spec(D1=0.25, D2=0.1)
        ctx = _GuessContext(RateModel(spec))
        for n in (2, 4):
            seqs = all_sequences(2, n)
            for x in seqs:
                for xh in seqs:
                    if float(H2.matrix[x.astype(int), xh.astype(int)].sum()) / n > spec.D1:
                        continue
                    got = g1_success_probability(x, xh, spec, ctx=ctx)
                    assert got >= g1_lower_bound(x, spec) - 1e-15

    def test_lemma_bounds_exhaustive_g2(self):
        spec = SystemSpec(
            source=Distribution.bernoulli(0.3), d1=H2, d2=H2,
            D1=0.3, D2=0.25, R1=1.0, R2=1.0, r1=0.0, r2=0.0, alpha=0.1,
        )
        ctx = _GuessContext(RateModel(spec))
        n = 4
        seqs = all_sequences(2, n)
        checked = 0
        for x in seqs:
            for xh1 in seqs:
                if float(H2.matrix[x.astype(int), xh1.astype(int)].sum()) / n > spec.D1:
                    continue
                for xh2 in seqs:
                    if float(H2.matrix[x.astype(int), xh2.astype(int)].sum()) / n > spec.D2:
                        continue
                    got = g2_success_probability(x, xh1, xh2, spec, ctx=ctx)
                    assert got >= g2_lower_bound(x, spec) - 1e-15
                    checked += 1
        assert checked > 100


class TestEndToEnd:
    def test_lossless_no_keys_reduces_to_g2(self):
        spec = SystemSpec(
            source=Distribution.bernoulli(0.3), d1=H2, d2=H2,
            D1=1e-12, D2=0.0, R1=3.0, R2=3.0, r1=0.0, r2=0.0, alpha=0.5,
        )
        cb = build_codebook(spec, 2, delta=2.0)
        res = end_to_end_guess_probability(spec, 2, cb, GuessScheme("g2", IDENTITY_TARGET))
        # brute-force oracle: lossless code, known keys; the guesser sees the
        # exact source sequence, so success probability is the in-ball mass
        from srleak.probcore import enumerate_types, kl_divergence, type_class_probability

        expect = sum(
            type_class_probability(t, spec.source)
            for t in enumerate_types(2, 2)
            if kl_divergence(t.empirical(), spec.source) <= spec.alpha + 2.0
        )
        assert res.probability == pytest.approx(expect, abs=1e-12)

    def test_constant_target_always_succeeds(self):
        spec = make_spec(alpha=0.15)
        cb = build_codebook(spec, 4, delta=0.2)
        res = end_to_end_guess_probability(spec, 4, cb, GuessScheme("g2", CONSTANT_TARGET))
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        assert res.p_star == 1.0

    def test_brute_force_oracle_small(self):
        # independent first-principles enumeration at n=2 with 1-bit keys
        spec = make_spec(D1=0.6, D2=0.5, r1=0.5, r2=0.5, alpha=1.2)
        n = 2
        cb = build_codebook(spec, n, delta=0.5)
        res = end_to_end_guess_probability(spec, n, cb, GuessScheme("g2", IDENTITY_TARGET))

        from srleak.adversary import _conditional_class_size, _joint_counts
        from srleak.typecodec import KeyPair, decode, encode

        ctx = _GuessContext(RateModel(spec))
        seqs = all_sequences(2, n)
        logp = np.log(spec.source.probs)
        fallback = (0, 0)  # most likely sequence under Bern(0.3)
        total = 0.0
        for row in seqs:
            px = float(np.exp(logp[row.astype(int)].sum()))
            for k1, k2, g1k, g2k in itertools.product(range(cb.cap1), range(cb.cap2), range(cb.cap1), range(cb.cap2)):
                m = encode(row, KeyPair(k1, k2, cb.bits1, cb.bits2), cb)
                out = decode(*m, KeyPair(g1k, g2k, cb.bits1, cb.bits2), cb)
                if out.erased:
                    if tuple(int(s) for s in row) == fallback:
                        total += px / (cb.cap1 * cb.cap2) ** 2
                    continue
                feas = ctx.feasible([out.xhat1.astype(np.int64), out.xhat2.astype(np.int64)])
                joint = _joint_counts(
                    [row.astype(np.int64), out.xhat1.astype(np.int64), out.xhat2.astype(np.int64)],
                    [2, 2, 2],
                )
                if any(np.array_equal(joint, f) for f in feas):
                    p_seq = 1.0 / (len(feas) * _conditional_class_size(joint))
                    total += px * p_seq / (cb.cap1 * cb.cap2) ** 2
        assert res.probability == pytest.approx(total, abs=1e-12)

    def test_chain_bound_holds_on_instances(self):
        # large alpha keeps every type in the ball (zero error probability)
        # while tau absorbs the type-count slack
        instances = [
            dict(p=0.3, n=4, D1=0.25, D2=0.1, r1=0.0, r2=0.0, alpha=1.6, tau=1.45),
            dict(p=0.3, n=6, D1=0.25, D2=0.1, r1=0.0, r2=0.0, alpha=1.3, tau=1.11),
            dict(p=0.4, n=6, D1=0.3, D2=0.15, r1=0.0, r2=0.0, alpha=1.3, tau=1.11),
            dict(p=0.3, n=6, D1=0.25, D2=0.1, r1=1.0 / 6, r2=1.0 / 6, alpha=1.3, tau=1.11),
            dict(p=0.25, n=4, D1=0.3, D2=0.2, r1=0.25, r2=0.25, alpha=1.7, tau=1.42),
        ]
        for inst in instances:
            spec = make_spec(
                p=inst["p"], D1=inst["D1"], D2=inst["D2"],
                r1=inst["r1"], r2=inst["r2"], alpha=inst["alpha"],
            )
            cb = build_codebook(spec, inst["n"], delta=0.7)
            res = end_to_end_guess_probability(spec, inst["n"], cb, GuessScheme("g2", IDENTITY_TARGET))
            bound = end_to_end_lower_bound(spec, inst["n"], cb, inst["tau"], res.p_star)
            assert bound.valid, (inst, bound.conditions)
            assert res.probability >= bound.value - 1e-15, (inst, res.probability, bound.value)

    def test_payoff_never_exceeds_maximal_leakage(self):
        spec = make_spec(D1=0.3, D2=0.15, r1=0.25, r2=0.25, alpha=0.8)
        n = 4
        cb = build_codebook(spec, n, delta=0.4)
        res = end_to_end_guess_probability(spec, n, cb, GuessScheme("g2", IDENTITY_TARGET))
        leak = leakage_exact(cb, "M1M2")
        assert math.log2(res.probability / res.p_star) <= leak + 1e-9

    def test_mismatched_codebook_refused(self):
        # a codebook is one operating point and blocklength; mixing two is refused
        spec = make_spec(alpha=0.3)
        cb = build_codebook(spec, 4, delta=0.3)
        other = make_spec(alpha=0.3, r1=0.25)
        with pytest.raises(ValueError, match="another spec or blocklength"):
            end_to_end_guess_probability(other, 4, cb)
        with pytest.raises(ValueError, match=r"n = 4, not 5"):
            end_to_end_lower_bound(spec, 5, cb, 0.5, 0.5)
        with pytest.raises(ValueError, match="another spec or blocklength"):
            end_to_end_lower_bound(other, 4, cb, 0.5, 0.5)

    def test_mismatch_names_the_field(self):
        # r1 alone differs: the error names it with both values, not n
        cb = build_codebook(make_spec(alpha=0.3), 4, delta=0.3)
        with pytest.raises(ValueError, match=re.escape(
                "codebook was built for another spec or blocklength (r1 = 0.0, not 0.25)")):
            end_to_end_guess_probability(make_spec(alpha=0.3, r1=0.25), 4, cb)

    def test_candidate_joint_types_beyond_the_cap_are_refused_unbuilt(self, monkeypatch):
        # g2 at n = 4 on a binary Hamming code: the observation (0011, 0111)
        # has reconstruction counts 1, 1 and 2, so its candidates are
        # 2 * 2 * 3 = 12 joint types of 2 x 2 x 2 cells, 96 cells in all
        spec = make_spec(alpha=0.3)
        xhat1, xhat2 = np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1])
        want = _GuessContext(RateModel(spec)).feasible([xhat1, xhat2])
        assert np.array_equal(_GuessContext(RateModel(spec), max_enum=96).feasible([xhat1, xhat2]), want)

        def built(*args, **kwargs):
            raise AssertionError("the candidates were built")

        monkeypatch.setattr("srleak.adversary.type_count_vectors", built)
        message = re.escape("12 candidate joint types x 8 cells exceed the enumeration cap 95")
        with pytest.raises(CapExceededError, match=message):
            _GuessContext(RateModel(spec), max_enum=95).feasible([xhat1, xhat2])
        with pytest.raises(CapExceededError, match=message):
            g2_success_probability(xhat2, xhat1, xhat2, spec, ctx=_GuessContext(RateModel(spec), max_enum=95))

    def test_chain_bound_rejects_nan_tau(self):
        spec = make_spec(alpha=0.3)
        cb = build_codebook(spec, 4, delta=0.3)
        with pytest.raises(ValueError, match="tau"):
            end_to_end_lower_bound(spec, 4, cb, math.nan, 0.5)

    def test_first_symbol_target(self):
        spec = make_spec(alpha=0.3)
        cb = build_codebook(spec, 4, delta=0.3)
        res = end_to_end_guess_probability(spec, 4, cb, GuessScheme("g2", FIRST_SYMBOL_TARGET))
        assert res.p_star == pytest.approx(0.7)
        assert 0.0 <= res.probability <= 1.0
        # at least as good as blind guessing the most likely first symbol
        assert res.probability >= 0.0


    def test_sure_attack_probability_is_clamped_at_one(self):
        # uniform 24 letters, lossless layer 2, no keys: g2 sees the source
        # sequence, and the float sum over 576 sequences overshoots 1 by 1.3e-14
        spec = SystemSpec(
            source=Distribution.uniform(24), d1=DistortionMeasure.hamming(24),
            d2=DistortionMeasure.hamming(24), D1=0.5, D2=0.0, R1=9.0, R2=9.0,
            r1=0.0, r2=0.0, alpha=8.0,
        )
        cb = build_codebook(spec, 2, delta=1.0)
        res = end_to_end_guess_probability(spec, 2, cb, GuessScheme("g2", IDENTITY_TARGET))
        assert res.probability == 1.0
        assert math.log2(res.probability / res.p_star) <= math.log2(1.0 / res.p_star)


def test_type_queries_make_no_scalar_divergence_calls(tmp_path, monkeypatch):
    # a binary point as the benchmark draws them: every type lies more than
    # 1e-6 from both thresholds, so the one vector pass decides every type
    spec = make_spec(p=0.35, D1=0.2, D2=0.1, R1=1.6, R2=1.6, r1=0.15, r2=0.15, alpha=0.1)
    n, delta, tau = 8, 0.05, 0.05
    div = np.array([kl_divergence(t.empirical(), spec.source) for t in enumerate_types(n, 2)])
    for threshold in (spec.alpha + delta, spec.alpha - tau):
        assert np.abs(div - threshold).min() > 1e-6
    cb = build_codebook(spec, n, delta)
    path = str(tmp_path / "book.srcb")
    save_codebook(cb, path)
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "srleak" and hasattr(module, "kl_divergence"):
            original = module.kl_divergence
            monkeypatch.setattr(module, "kl_divergence", lambda q, p, f=original: calls.append(q) or f(q, p))
    runs = {
        "build_codebook": lambda: build_codebook(spec, n, delta),
        "load_codebook": lambda: load_codebook(path),
        "jep_exact": lambda: jep_exact(cb),
        "end_to_end_lower_bound": lambda: end_to_end_lower_bound(spec, n, cb, tau, 0.5),
    }
    for name, run in runs.items():
        run()
        assert len(calls) == 0, f"{name} made {len(calls)} kl_divergence calls"
    assert end_to_end_lower_bound(spec, n, cb, tau, 0.5).conditions["nonempty"]

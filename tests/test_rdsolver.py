import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srleak.errors import CapExceededError
from srleak.probcore import Distribution, DistortionMeasure
from srleak.rdsolver import (
    _LOG_FLOOR,
    _SumRateProblem,
    _xlog2x,
    binary_hamming_sum_rate,
    min_sum_rate,
    min_sum_rate_oracle,
    rd_binary_hamming,
    rd_function,
)


def hb(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


H2 = DistortionMeasure.hamming(2)


class TestRdBinaryHamming:
    def test_p03_d02(self):
        # oracle: hb(0.3) - hb(0.2) evaluated directly
        expect = hb(0.3) - hb(0.2)
        assert expect == pytest.approx(0.1593628043433304, abs=1e-13)
        assert rd_binary_hamming(0.3, 0.2) == pytest.approx(expect, abs=1e-14)

    def test_zero_beyond_min(self):
        assert rd_binary_hamming(0.5, 0.5) == 0.0
        assert rd_binary_hamming(0.2, 0.2) == 0.0

    def test_p04_d015(self):
        expect = hb(0.4) - hb(0.15)
        assert expect == pytest.approx(0.3611102897382672, abs=1e-13)
        assert rd_binary_hamming(0.4, 0.15) == pytest.approx(expect, abs=1e-14)

    def test_d_zero(self):
        assert rd_binary_hamming(0.3, 0.0) == pytest.approx(hb(0.3), abs=1e-14)


class TestRdFunction:
    def test_matches_closed_form_spot(self):
        sol = rd_function(Distribution.bernoulli(0.3), H2, 0.2)
        assert sol.value == pytest.approx(rd_binary_hamming(0.3, 0.2), abs=1e-8)
        assert sol.status == "converged"

    def test_zero_rate_region(self):
        sol = rd_function(Distribution.bernoulli(0.3), H2, 0.4)
        assert sol.value == 0.0
        assert sol.status == "boundary"

    def test_lossless_uniform(self):
        sol = rd_function(Distribution.bernoulli(0.5), H2, 0.0)
        assert sol.value == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_distortion(self):
        with pytest.raises(ValueError):
            rd_function(Distribution.bernoulli(0.5), H2, -0.1)

    def test_optimizer_is_feasible(self):
        q = Distribution([0.2, 0.5, 0.3])
        d = DistortionMeasure.hamming(3)
        sol = rd_function(q, d, 0.15)
        ed = float((q.probs[:, None] * sol.optimizer * d.matrix).sum())
        assert ed <= 0.15 + 1e-7
        m = q.probs @ sol.optimizer
        joint = q.probs[:, None] * sol.optimizer
        mask = joint > 0
        mi = float((joint[mask] * (np.log2(joint[mask]) - np.log2((q.probs[:, None] * m[None, :])[mask]))).sum())
        assert mi == pytest.approx(sol.value, abs=1e-6)

    def test_grid_agreement_binary(self):
        for p in np.linspace(0.1, 0.9, 5):
            for D in np.linspace(0.0, 0.45, 5):
                got = rd_function(Distribution.bernoulli(float(p)), H2, float(D)).value
                assert got == pytest.approx(rd_binary_hamming(float(p), float(D)), abs=1e-6)

    def test_monotone_and_convex_in_d(self):
        q = Distribution([0.5, 0.3, 0.2])
        d = DistortionMeasure.hamming(3)
        grid = np.linspace(0.0, 0.7, 15)
        vals = [rd_function(q, d, float(x)).value for x in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-8
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-7

    def test_zero_distortion_grouping(self):
        # two source symbols share a zero-distortion column: R(0) = 0
        d = DistortionMeasure([[0.0, 1.0], [0.0, 1.0]])
        sol = rd_function(Distribution.bernoulli(0.4), d, 0.0)
        assert sol.value == pytest.approx(0.0, abs=1e-10)

    def test_uniform_ternary_closed_form(self):
        # independent oracle: R(D) = log2(3) - hb(D) - D for the uniform
        # ternary source under the 0/1 measure, up to the zero-rate point
        d3 = DistortionMeasure.hamming(3)
        u3 = Distribution.uniform(3)
        for D in (0.05, 0.2, 0.4, 0.6):
            closed = max(math.log2(3) - hb(D) - D, 0.0)
            assert rd_function(u3, d3, D).value == pytest.approx(closed, abs=1e-8)


def random_instance(rng):
    # Hamming pair with grid-friendly distortion targets: the optimal channel
    # is then representable on the oracle's simplex grid, so a 2e-3 agreement
    # check genuinely validates the solver rather than the grid resolution
    q = Distribution.bernoulli(0.5)
    D2 = float(rng.choice([0.10, 0.15, 0.20, 0.25]))
    D1 = D2 + float(rng.choice([0.05, 0.10, 0.15]))
    R1 = float(rng.uniform(rd_function(q, H2, D2).value, 1.0))
    return q, H2, H2, R1, D1, D2


def harsh_instance(rng):
    # asymmetric measures and real-valued targets: used only for one-sided
    # checks where the oracle is an upper bound
    q = Distribution(rng.dirichlet(np.ones(2)) * 0.9 + 0.05)
    base1 = rng.uniform(0.2, 1.5, size=(2, 2))
    base2 = rng.uniform(0.2, 1.5, size=(2, 2))
    np.fill_diagonal(base1, 0.0)
    np.fill_diagonal(base2, 0.0)
    d1 = DistortionMeasure(base1)
    d2 = DistortionMeasure(base2)
    D1 = float(rng.uniform(0.05, 0.4))
    D2 = float(rng.uniform(0.02, 0.3))
    R1 = float(rng.uniform(rd_function(q, d1, D1).value, 1.0))
    return q, d1, d2, R1, D1, D2


class TestMinSumRate:
    def test_slack_constraints_zero(self):
        q = Distribution.bernoulli(0.3)
        sol = min_sum_rate(q, H2, H2, 1.0, 0.8, 0.6)
        assert sol.value == 0.0
        assert sol.status == "boundary"
        # equal targets, both beyond the zero-rate distortion
        sol = min_sum_rate(q, H2, H2, 1.0, 0.6, 0.6)
        assert sol.value == 0.0

    def test_infeasible_rate_cap(self):
        q = Distribution.bernoulli(0.3)
        sol = min_sum_rate(q, H2, H2, 0.01, 0.1, 0.05)
        assert sol.status == "infeasible"
        assert math.isinf(sol.value)

    def test_successive_refinement_identity(self):
        # tight layer-1 cap: sum rate still equals the one-shot rate at D2
        p, D1, D2 = 0.35, 0.25, 0.1
        R1 = rd_binary_hamming(p, D1)
        sol = min_sum_rate(Distribution.bernoulli(p), H2, H2, R1, D1, D2)
        assert sol.value == pytest.approx(hb(p) - hb(D2), abs=2e-3)

    def test_uniform_ternary_refinability(self):
        d3 = DistortionMeasure.hamming(3)
        u3 = Distribution.uniform(3)
        sol = min_sum_rate(u3, d3, d3, 1.2, 0.3, 0.1)
        closed = math.log2(3) - hb(0.1) - 0.1
        assert sol.value == pytest.approx(closed, abs=2e-3)

    def test_closed_form_helper(self):
        assert binary_hamming_sum_rate(0.35, 1.0, 0.25, 0.1) == pytest.approx(
            hb(0.35) - hb(0.1), abs=1e-14
        )
        assert math.isinf(binary_hamming_sum_rate(0.35, 0.05, 0.25, 0.1))

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            q, d1, d2, R1, D1, D2 = random_instance(rng)
            sol = min_sum_rate(q, d1, d2, R1, D1, D2)
            ref = min_sum_rate_oracle(q, d1, d2, R1, D1, D2, grid=20)
            assert sol.value == pytest.approx(ref, abs=2e-3)
            assert sol.value <= ref + 1e-9

    def test_oracle_dominates_on_harsh_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            q, d1, d2, R1, D1, D2 = harsh_instance(rng)
            sol = min_sum_rate(q, d1, d2, R1, D1, D2)
            ref = min_sum_rate_oracle(q, d1, d2, R1, D1, D2, grid=16)
            assert sol.value <= ref + 1e-9

    def test_dominates_single_layer(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            q, d1, d2, R1, D1, D2 = harsh_instance(rng)
            sol = min_sum_rate(q, d1, d2, R1, D1, D2)
            assert sol.value >= rd_function(q, d2, D2).value - 1e-6

    def test_monotone_in_arguments(self):
        q = Distribution.bernoulli(0.4)
        base = dict(R1=0.6, D1=0.2, D2=0.1)
        v0 = min_sum_rate(q, H2, H2, base["R1"], base["D1"], base["D2"]).value
        assert min_sum_rate(q, H2, H2, 0.9, base["D1"], base["D2"]).value <= v0 + 1e-4
        assert min_sum_rate(q, H2, H2, base["R1"], 0.3, base["D2"]).value <= v0 + 1e-4
        assert min_sum_rate(q, H2, H2, base["R1"], base["D1"], 0.15).value <= v0 + 1e-4

    def test_optimizer_feasible_and_value_consistent(self):
        q = Distribution.bernoulli(0.4)
        sol = min_sum_rate(q, H2, H2, 0.6, 0.2, 0.1)
        w = sol.optimizer
        px = q.probs
        ed1 = float((px[:, None] * w * np.repeat(H2.matrix, 2, axis=1)).sum())
        ed2 = float((px[:, None] * w * np.tile(H2.matrix, (1, 2))).sum())
        assert ed1 <= 0.2 + 1e-7 and ed2 <= 0.1 + 1e-7
        wa = w.reshape(2, 2, 2).sum(axis=2)
        m = px @ wa
        joint = px[:, None] * wa
        mask = joint > 0
        i1 = float((joint[mask] * (np.log2(joint[mask]) - np.log2((px[:, None] * m[None, :])[mask]))).sum())
        assert i1 <= 0.6 + 1e-7


class TestOracle:
    def test_infeasible_sentinel(self):
        q = Distribution.bernoulli(0.4)
        assert math.isinf(min_sum_rate_oracle(q, H2, H2, 0.0, 0.0, 0.0, grid=8))

    def test_slack_zero(self):
        q = Distribution.bernoulli(0.4)
        assert min_sum_rate_oracle(q, H2, H2, 1.0, 0.9, 0.9, grid=8) == pytest.approx(0.0, abs=1e-12)

    def test_guards(self):
        q = Distribution.bernoulli(0.4)
        with pytest.raises(CapExceededError):
            min_sum_rate_oracle(q, H2, H2, 1.0, 0.2, 0.1, grid=25)
        with pytest.raises(CapExceededError):
            min_sum_rate_oracle(
                Distribution.uniform(4), DistortionMeasure.hamming(4), DistortionMeasure.hamming(4),
                1.0, 0.2, 0.1, grid=8,
            )


# ---------------------------------------------------------------------------
# the solver's single evaluation against the per-quantity reference
# ---------------------------------------------------------------------------


def reference_stats(prob: _SumRateProblem, w: np.ndarray):
    """Each quantity on its own, every x log x term summed separately."""
    px = prob.px
    m = px @ w
    joint = px[:, None] * w
    i_joint = float(_xlog2x(joint).sum() - _xlog2x(px).sum() - _xlog2x(m).sum())
    wa = w.reshape(prob.kx, prob.ka, prob.kb).sum(axis=2)
    ma = px @ wa
    ja = px[:, None] * wa
    i1 = float(_xlog2x(ja).sum() - _xlog2x(px).sum() - _xlog2x(ma).sum())
    ed1 = float((px[:, None] * w * prob.d1c).sum())
    ed2 = float((px[:, None] * w * prob.d2c).sum())
    return i_joint, i1, ed1, ed2, m, wa, ma


def reference_grad_scaled(prob: _SumRateProblem, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Lagrangian gradient over px, recomputing both output marginals from w."""
    m = prob.px @ w
    wa = w.reshape(prob.kx, prob.ka, prob.kb).sum(axis=2)
    ma = prob.px @ wa
    g = np.log2(np.maximum(w, _LOG_FLOOR)) - np.log2(np.maximum(m, _LOG_FLOOR))[None, :]
    ga = np.log2(np.maximum(wa, _LOG_FLOOR)) - np.log2(np.maximum(ma, _LOG_FLOOR))[None, :]
    g = g + lam[2] * np.repeat(ga, prob.kb, axis=1)
    return g + lam[0] * prob.d1c + lam[1] * prob.d2c


@st.composite
def evaluation_cases(draw):
    kx, ka, kb = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    px = rng.random(kx) * (rng.random(kx) >= zeros / 2)
    px[rng.integers(kx)] += 0.5
    w = rng.random((kx, ka * kb)) ** 3 * (rng.random((kx, ka * kb)) >= zeros)
    w[np.arange(kx), rng.integers(ka * kb, size=kx)] += 0.1
    w = np.asarray(w / w.sum(axis=1, keepdims=True), order=draw(st.sampled_from("CF")))
    q = Distribution(px / px.sum())

    def measure(cols: int) -> DistortionMeasure:
        d = rng.random((kx, cols))
        d[np.arange(kx), rng.integers(cols, size=kx)] = 0.0
        return DistortionMeasure(d)

    d1, d2 = measure(ka), measure(kb)
    prob = _SumRateProblem(q, d1, d2, float(rng.random()), float(rng.random()), float(rng.random()))
    return prob, w, rng.random(3) * 4.0


def bits(*values: float) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(evaluation_cases())
def test_evaluation_matches_reference_bit_for_bit(case):
    # numpy adds a 2-D array in memory order, so an F-ordered channel (the
    # binary Markov start) sums differently from its C-ordered copy; the
    # fused pass must reproduce each layout's own order
    prob, w, lam = case
    ev = prob.evaluate(w)
    i_joint, i1, ed1, ed2, m, wa, ma = reference_stats(prob, w)
    assert bits(ev.i_joint, ev.i1, ev.ed1, ev.ed2) == bits(i_joint, i1, ed1, ed2)
    for got, want in ((ev.m, m), (ev.wa, wa), (ev.ma, ma)):
        assert got.tobytes() == want.tobytes()
    assert prob.grad_scaled(ev, lam).tobytes() == reference_grad_scaled(prob, w, lam).tobytes()
    assert bits(prob.lagrangian(ev, lam)) == bits(i_joint + lam[0] * ed1 + lam[1] * ed2 + lam[2] * i1)


H3 = DistortionMeasure.hamming(3)
ORDINAL3 = DistortionMeasure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
ERASURE_D1 = DistortionMeasure([[0, 1, 0.5], [1, 0, 0.5]])
P532 = Distribution([0.5, 0.3, 0.2])

PINNED = {
    "uniform-ternary R1=0.7": (
        (Distribution.uniform(3), H3, H3, 0.7, 0.3, 0.1),
        ("1.115111182027134", "boundary", 7226, "0.14053186134700302",
         "5d218900c39e92e1b35b8edcfa6cfc5b443628ec6b9d1dd6ee45f5180c746fbd"),
    ),
    "uniform-ternary R1=1.2": (
        (Distribution.uniform(3), H3, H3, 1.2, 0.3, 0.1),
        ("1.0159669071319564", "boundary", 8801, "0.00013857719972043547",
         "65917f551c209e3a647e94d7ec08fa2f8418aca544545692b0645a75c08d76d4"),
    ),
    "(0.5, 0.3, 0.2) R1=0.55": (
        (P532, H3, H3, 0.55, 0.3, 0.1),
        ("1.008408288163766", "boundary", 7367, "0.14720250967231685",
         "2916c6f09e5ed78c658c6128417003b701bd7944217b1f803adda58bce60bd31"),
    ),
    "ordinal |i-j| R1=0.8": (
        (P532, ORDINAL3, ORDINAL3, 0.8, 0.4, 0.2),
        ("0.667210482996399", "converged", 10105, "6.991433376679623e-08",
         "bfc252fdfe1fde4b1b8140052be54576f268c75ae5d29b9026cafa25ed64a45f"),
    ),
    "binary Markov start (F-ordered) R1=0.3": (
        (Distribution.bernoulli(0.3), H2, H2, 0.3, 0.15, 0.05),
        ("0.5948939421147368", "boundary", 7374, "0.0565139800828206",
         "f9854142e7cbf62ccc735937d8d623954c102219b1838fd8f1e63a776a9ff85e"),
    ),
    "erasure d1 R1=0.6": (
        (Distribution.bernoulli(0.3), ERASURE_D1, H2, 0.6, 0.3, 0.1),
        ("0.41229530247148627", "boundary", 9688, "7.317751361107794e-05",
         "9b50eae140309eb88f6f6da81e34bf5a593aa8219b18db482fc75adce3fbf062"),
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_solver_outputs(name):
    """Today's exact solver outputs, pinned on purpose.

    These record what the dual-ascent solver returns now, wrong ternary
    values included (the true uniform-ternary value is R(D2) = 1.015967 at
    every R1 >= R(D1)), so that a speed-up of the same algorithm is checked
    to change no bit of value, status, iterations, gap or optimizer.  The
    certified solver of ROADMAP item 1 changes them: update the pins there.
    """
    args, (value, status, iterations, gap, digest) = PINNED[name]
    sol = min_sum_rate(*args)
    assert (repr(sol.value), sol.status, sol.iterations, repr(sol.gap)) == (value, status, iterations, gap)
    assert hashlib.sha256(sol.optimizer.tobytes()).hexdigest() == digest

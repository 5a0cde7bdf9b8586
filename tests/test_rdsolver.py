import hashlib
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srleak import rdsolver
from srleak.errors import CapExceededError
from srleak.exponents import RateModel, SystemSpec
from srleak.probcore import Distribution, DistortionMeasure
from srleak.rdsolver import (
    _LOG_FLOOR,
    _MIRROR_ETA0,
    _Eval,
    _normalize_rows,
    _SumRateProblem,
    _xlog2x,
    min_sum_rate,
    min_sum_rate_oracle,
    rd_function,
)

from conftest import rd_binary_hamming


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



# ---------------------------------------------------------------------------
# the certified bracket of rd_function
# ---------------------------------------------------------------------------

# lower <= closed form <= value is checked up to this rounding allowance: the
# closed forms and the bracket ends are each evaluated in floating point
ROUNDING = 1e-12


def assert_certified(q: Distribution, d: DistortionMeasure, D: float, closed: float):
    sol = rd_function(q, d, D)
    assert sol.lower - ROUNDING <= closed <= sol.value + ROUNDING, (sol.lower, closed, sol.value)
    if sol.status == "boundary":
        assert sol.value == sol.lower == sol.gap == 0.0
    else:
        assert sol.status == "converged"
        assert sol.gap == sol.value - sol.lower
        assert sol.gap <= 1e-9
    # the optimizer attains the value and stays within the distortion level
    px, w = q.probs, sol.optimizer
    assert np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert float((px[:, None] * w * d.matrix).sum()) <= D + 1e-12
    m = px @ w
    joint = px[:, None] * w
    mask = joint > 0
    own = float((joint[mask] * (np.log2(joint[mask]) - np.log2((px[:, None] * m[None, :])[mask]))).sum())
    assert own == pytest.approx(sol.value, abs=ROUNDING)
    return sol


def erokhin(q: np.ndarray, D: float) -> float:
    """R(Q, D) = H(Q) - h(D) - D log2(K - 1) under Hamming, for D <= (K - 1) min Q."""
    return float(-(q * np.log2(q)).sum()) - hb(D) - D * math.log2(q.size - 1)


class TestRdBracket:
    def test_binary_grid(self):
        # the acceptance criterion 3 grid
        for p in np.linspace(0.05, 0.95, 20):
            for D in np.linspace(0.0, 0.5, 20):
                q = Distribution.bernoulli(float(p))
                assert_certified(q, H2, float(D), rd_binary_hamming(float(p), float(D)))

    def test_uniform_ternary(self):
        d3 = DistortionMeasure.hamming(3)
        for D in (0.0, 0.01, 0.05, 0.2, 0.4, 0.6, 0.66, 0.7):
            closed = math.log2(3) - hb(D) - D if D < 2 / 3 else 0.0
            assert_certified(Distribution.uniform(3), d3, D, closed)

    @pytest.mark.parametrize("k", [3, 4])
    def test_random_laws_in_the_erokhin_region(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(40):
            q = rng.dirichlet(np.ones(k))
            D = float(rng.uniform(0.01, 1.0)) * (k - 1) * float(q.min())
            assert_certified(Distribution(q), DistortionMeasure.hamming(k), D, erokhin(q, D))

    def test_ordinal_measure_is_certified(self):
        rng = np.random.default_rng(8)
        d = DistortionMeasure([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        for _ in range(20):
            q = Distribution(rng.dirichlet(np.ones(3)))
            D = float(rng.uniform(0.05, 0.9)) * float((q.probs @ d.matrix).min())
            sol = rd_function(q, d, D)
            assert sol.status == "converged" and sol.gap <= 1e-9
            assert float((q.probs[:, None] * sol.optimizer * d.matrix).sum()) <= D + 1e-12

    def test_zero_mass_letters_and_repeated_outputs(self):
        # a type with an empty letter, and an output column repeated
        q = Distribution([0.6, 0.4, 0.0])
        assert_certified(q, DistortionMeasure.hamming(3), 0.1, hb(0.4) - hb(0.1))
        d = DistortionMeasure([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert_certified(Distribution.bernoulli(0.3), d, 0.1, hb(0.3) - hb(0.1))

    def test_zero_distortion_is_certified(self):
        # two source letters share a zero-distortion output: R(0) = H of the groups
        d = DistortionMeasure([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        sol = assert_certified(Distribution([0.2, 0.3, 0.5]), d, 0.0, 1.0)
        assert math.isinf(sol.s)

    def test_exhausted_budget_is_flagged(self, monkeypatch):
        # each source letter has two zero-distortion outputs, so neither
        # level is solved by the first output law
        d = DistortionMeasure([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        q = Distribution([0.5, 0.3, 0.2])
        full = [rd_function(q, d, D) for D in (0.0, 0.05)]
        monkeypatch.setattr("srleak.rdsolver._RD_MAX_ITER", 3)
        for D, ref in zip((0.0, 0.05), full):
            assert ref.status == "converged"
            sol = rd_function(q, d, D)
            assert sol.status == "unconverged"
            assert sol.lower - ROUNDING <= ref.value and ref.lower - ROUNDING <= sol.value

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            rd_function(Distribution.bernoulli(0.3), H2, math.nan)

    def test_support_join_step_pinned(self):
        # found by a seeded search over small laws and integer measures: a
        # letter off the support has the largest c(y), but the Newton step
        # keeps it out, so it joins by the one-letter step of _slope_solve.
        # The bracket is the same on numpy's AVX-512 and baseline kernels
        src, first = inspect.getsourcelines(rdsolver._slope_solve)
        join_line = first + next(i for i, line in enumerate(src) if "e = min(0.5" in line)
        joins = []

        def lines(frame, event, arg):
            if event == "line" and frame.f_lineno == join_line:
                joins.append(frame.f_lineno)
            return lines

        def calls(frame, event, arg):
            return lines if frame.f_code is rdsolver._slope_solve.__code__ else None

        q = Distribution([0.56, 0.33, 0.11])
        d = DistortionMeasure([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 3.0]])
        outer = sys.gettrace()
        sys.settrace(calls)
        try:
            sol = rd_function(q, d, 0.24)
        finally:
            sys.settrace(outer)
        assert joins
        assert (repr(sol.value), repr(sol.lower), sol.status, sol.iterations) == (
            "0.06536337843549989", "0.06536337843532514", "converged", 32)


class TestSumRateInputs:
    @pytest.mark.parametrize("R1, D1, D2", [(0.6, math.nan, 0.1), (0.6, 0.2, math.nan),
                                            (math.nan, 0.2, 0.1)])
    def test_rejects_nan(self, R1, D1, D2):
        with pytest.raises(ValueError):
            min_sum_rate(Distribution.bernoulli(0.4), H2, H2, R1, D1, D2)

    def test_infeasible_below_the_certified_lower_bound_only(self):
        q = Distribution([0.5, 0.3, 0.2])
        d3 = DistortionMeasure.hamming(3)
        rd1 = rd_function(q, d3, 0.3)
        assert min_sum_rate(q, d3, d3, rd1.lower - 2e-9, 0.3, 0.1).status == "infeasible"
        assert min_sum_rate(q, d3, d3, rd1.lower - 5e-10, 0.3, 0.1).status != "infeasible"


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
        q = Distribution.bernoulli(0.35)

        def sum_rate(R1):
            return RateModel(SystemSpec(q, H2, H2, 0.25, 0.1, R1, 1.0, 0.0, 0.0, 0.1)).sum_rate(q)

        assert sum_rate(1.0) == pytest.approx(hb(0.35) - hb(0.1), abs=1e-14)
        assert math.isinf(sum_rate(0.05))

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
        ("1.0159669071318804", "boundary", 7700, "0.031573221008501795",
         "e01ae20981f1e4757ba2cc47dc6f1edca20a8fb5ea42db3839216c592e229b78"),
    ),
    "uniform-ternary R1=1.2": (
        (Distribution.uniform(3), H3, H3, 1.2, 0.3, 0.1),
        ("1.0159669071318507", "boundary", 8821, "0.0001385772026396559",
         "2712e082f7b5e668c09e7ca09e3a70ccb3912a056a17adf5c02486049b5aee53"),
    ),
    "(0.5, 0.3, 0.2) R1=0.55": (
        (P532, H3, H3, 0.55, 0.3, 0.1),
        ("1.008408288382335", "boundary", 7382, "0.14720251055838496",
         "cd2c8bb453fa9ad8689f11761fe87b40039c9629351300823dbc2d4bdbdb3d5c"),
    ),
    "ordinal |i-j| R1=0.8": (
        (P532, ORDINAL3, ORDINAL3, 0.8, 0.4, 0.2),
        ("0.6672104829964265", "converged", 10077, "6.991475109963119e-08",
         "7fb059d8c4d1438f74ecb55041ce923cedb0eeaaa1c6532c7a7098ed010d226d"),
    ),
    "binary Markov start (F-ordered) R1=0.3": (
        (Distribution.bernoulli(0.3), H2, H2, 0.3, 0.15, 0.05),
        ("0.5948939421147368", "boundary", 7374, "0.0565139800828206",
         "f9854142e7cbf62ccc735937d8d623954c102219b1838fd8f1e63a776a9ff85e"),
    ),
    "erasure d1 R1=0.6": (
        (Distribution.bernoulli(0.3), ERASURE_D1, H2, 0.6, 0.3, 0.1),
        ("0.4122953024714864", "boundary", 9677, "7.317751830027142e-05",
         "cb1811481352b6dfc8847aa505e68d651b1716a308260cd28535217f721a714e"),
    ),
}


# the same calls where numpy's float64 log2 and exp2 run its baseline kernel
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on an AVX-512
# machine, or any x86-64 machine without AVX-512); PINNED holds the AVX-512 kernel's
PINNED_BASELINE_KERNEL = {
    "uniform-ternary R1=0.7": (
        "1.1281303814050911", "boundary", 7136, "0.153551060219008",
        "de25cd8d5f3c1ec8d2119eb016e26c2f4a085485a21551bbb246422dd7ab2214"),
    "uniform-ternary R1=1.2": (
        "1.0159669071319368", "boundary", 8817, "0.00013857720596788248",
        "cbfc1e69443c4baee013822cb4098ee7223c7e81e7efab39526f0f2f45d5fd16"),
    "(0.5, 0.3, 0.2) R1=0.55": (
        "1.0084082883823346", "boundary", 7442, "0.14720251150832986",
        "533dd75dba1e92cfab5c51ad9391fbb5841b46acde988e02097ef9f5dda63f15"),
    "ordinal |i-j| R1=0.8": (
        "0.6672104829963408", "converged", 10062, "6.991325640637314e-08",
        "48699d126df290cb75e92c4021cf89a2dfcb3062ace2771239b412b76e372748"),
    "binary Markov start (F-ordered) R1=0.3": (
        "0.5948939421147368", "boundary", 7372, "0.05710205973590099",
        "f9854142e7cbf62ccc735937d8d623954c102219b1838fd8f1e63a776a9ff85e"),
    "erasure d1 R1=0.6": (
        "0.4122953024714864", "boundary", 9676, "7.317750833280012e-05",
        "628035d1d017ce3ddf3b3c079ccbb7f4f3fd523321a1d42c83e2f8125346b699"),
}


def avx512_log_exp() -> bool:
    """Whether numpy dispatches float64 log2 and exp2 to its AVX-512 kernels.

    Read from ``numpy.lib.introspect.opt_func_info`` (numpy >= 2.0); an
    older numpy cannot report its dispatch and is taken to use them.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return True
    info = opt_func_info(func_name="log2|exp2", signature="float64")
    current = [loop["current"] for loops in info.values() for loop in loops.values()]
    return len(current) == 2 and all("X86_V4" in c or "AVX512" in c for c in current)


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_solver_outputs(name):
    """Today's exact solver outputs, pinned on purpose.

    These record what the dual-ascent solver returns now, wrong ternary
    values included (the true uniform-ternary value is R(D2) = 1.015967 at
    every R1 >= R(D1)), so that a speed-up of the same algorithm is checked
    to change no bit of value, status, iterations, gap or optimizer.  The
    solver starts from the product of the two ``rd_function`` channels, so
    any change to those channels moves these pins too (at R1 = 0.7 the
    start alone moves the value by 0.1 bit).  So do the last bits of
    numpy's log2 and exp2, which differ between its AVX-512 and baseline
    kernels: each kernel has its own pin set.  The certified solver of
    ROADMAP item 1 changes them: update the pins there.
    """
    args, pins = PINNED[name]
    value, status, iterations, gap, digest = pins if avx512_log_exp() else PINNED_BASELINE_KERNEL[name]
    sol = min_sum_rate(*args)
    assert (repr(sol.value), sol.status, sol.iterations, repr(sol.gap)) == (value, status, iterations, gap)
    assert hashlib.sha256(sol.optimizer.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the stacked evaluation and line search against their one-at-a-time loops
# ---------------------------------------------------------------------------


def same_eval(a: _Eval, b: _Eval) -> bool:
    """Every field of two evaluations equal, bit for bit."""
    arrays = ((a.w, b.w), (a.m, b.m), (a.wa, b.wa), (a.ma, b.ma))
    return (bits(a.i_joint, a.i1, a.ed1, a.ed2) == bits(b.i_joint, b.i1, b.ed1, b.ed2)
            and all(x.tobytes() == y.tobytes() for x, y in arrays))


@st.composite
def stack_cases(draw):
    """A problem and a stack of 1-30 channels, each row C- or each row F-ordered."""
    prob, w, lam = draw(evaluation_cases())
    size = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ws = _normalize_rows(w * rng.random((size, *w.shape)) ** 2 + 1e-3 * (w > 0))
    if draw(st.booleans()):
        ws = np.ascontiguousarray(ws.transpose(0, 2, 1)).transpose(0, 2, 1)
    return prob, ws, lam


@settings(max_examples=200, deadline=None)
@given(stack_cases())
def test_stacked_evaluation_matches_each_row_bit_for_bit(case):
    prob, ws, _ = case
    rows = prob.evaluate_stack(ws)
    assert len(rows) == len(ws)
    for k, ev in enumerate(rows):
        assert same_eval(ev, prob.evaluate(ws[k])), k


def sequential_line_search(prob, ev, g, eta, tries, eta_min, accept):
    """The backtracking loop the stacked line search reproduces: one candidate at a time."""
    used = 0
    for _ in range(tries):
        cand = prob.evaluate(_normalize_rows(ev.w * np.exp2(-eta * g)))
        used += 1
        if accept(cand):
            return cand, eta, used
        eta *= 0.5
        if eta < eta_min:
            break
    return None, None, used


def sequential_mirror_steps(prob, ev, lam, steps):
    """``_SumRateProblem.mirror_steps`` as a loop over single evaluations."""
    f = prob.lagrangian(ev, lam)
    eta = _MIRROR_ETA0
    used = 0
    for _ in range(steps):
        g = prob.grad_scaled(ev, lam)
        g = g - g.min(axis=1, keepdims=True)
        accepted = False
        for _ in range(30):
            cand = prob.evaluate(_normalize_rows(ev.w * np.exp2(-eta * g)))
            f_cand = prob.lagrangian(cand, lam)
            used += 1
            if f_cand <= f - 1e-15:
                ev, f = cand, f_cand
                eta = min(eta * 1.6, 64.0)
                accepted = True
                break
            eta *= 0.5
            if eta < 1e-14:
                break
        if not accepted:
            break
    return ev, used


@settings(max_examples=150, deadline=None)
@given(evaluation_cases(), st.sampled_from([1e-15, 1e-6, 0.05, math.inf]),
       st.sampled_from([(30, 1e-14), (25, 1e-13)]), st.sampled_from([64.0, 0.5, 1e-11, 2e-14]))
def test_line_search_matches_the_sequential_loop(case, margin, schedule, eta):
    # the mirror steps' test (<=) with the mirror schedule, the polish's (<)
    # with the polish schedule; margin inf rejects every step, so the whole
    # schedule is tried and counted
    prob, w, lam = case
    ev = prob.evaluate(w)
    g = prob.grad_scaled(ev, lam)
    g = g - g.min(axis=1, keepdims=True)
    f = prob.lagrangian(ev, lam)
    tries, eta_min = schedule
    if tries == 30:
        accept = lambda c: prob.lagrangian(c, lam) <= f - margin  # noqa: E731
    else:
        accept = lambda c: prob.lagrangian(c, lam) < f - margin  # noqa: E731
    got, got_eta, got_used = prob.line_search(ev, g, eta, tries, eta_min, accept)
    want, want_eta, want_used = sequential_line_search(prob, ev, g, eta, tries, eta_min, accept)
    assert got_used == want_used
    assert (got is None) == (want is None)
    if want is not None:
        assert same_eval(got, want) and got_eta == want_eta
    elif margin == math.inf:
        halvings = int(math.floor(math.log2(eta / eta_min))) + 1 if eta >= eta_min else 1
        assert got_used == min(tries, halvings)


@pytest.mark.parametrize("problem", [
    (Distribution.uniform(3), H3, H3, 0.9, 0.3, 0.1),
    (P532, ORDINAL3, ORDINAL3, 0.8, 0.4, 0.2),
    (Distribution.bernoulli(0.3), ERASURE_D1, H2, 0.6, 0.3, 0.1),
])
def test_mirror_steps_match_the_sequential_loop(problem):
    # dual rounds from the product start, multipliers growing as the solver's
    # do; each call ends on an all-rejected search or after its 24 steps
    q, d1, d2, R1, D1, D2 = problem
    prob = _SumRateProblem(q, d1, d2, R1, D1, D2)
    w = np.einsum("xa,xb->xab", rd_function(q, d1, D1).optimizer,
                  rd_function(q, d2, D2).optimizer).reshape(prob.kx, prob.cells)
    ev = ref = prob.evaluate(_normalize_rows(np.maximum(w, 1e-30)))
    lam = np.zeros(3)
    for t in range(1, 13):
        ev, used = prob.mirror_steps(ev, lam, 24)
        ref, ref_used = sequential_mirror_steps(prob, ref, lam, 24)
        assert used == ref_used and same_eval(ev, ref), t
        lam = np.maximum(lam + 2.0 / math.sqrt(t) * prob.violations(ev), 0.0)


@settings(max_examples=200, deadline=None)
@given(evaluation_cases())
def test_feasibility_check_matches_the_full_evaluation(case):
    # tolerances at each violation decide the comparison on its last bit
    prob, w, _ = case
    viol = prob.violations(prob.evaluate(w))
    for tol in (*viol.tolist(), float(np.median(viol)), -1.0, 1.0):
        assert prob.feasible(w[None], tol) == [bool(np.all(viol <= tol))], tol


def sequential_bisection(prob, w, w_feas, tol, steps):
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.all(prob.violations(prob.evaluate((1.0 - mid) * w + mid * w_feas)) <= tol):
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=100, deadline=None)
@given(evaluation_cases(), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 4, 5, 60]))
def test_stacked_bisection_matches_the_sequential_loop(case, seed, steps):
    prob, w, _ = case
    rng = np.random.default_rng(seed)
    w_feas = _normalize_rows(rng.random(w.shape) + 1e-3)
    # a tolerance met part of the way from w to w_feas, so both halves occur
    t = float(rng.random())
    tol = float(prob.violations(prob.evaluate((1.0 - t) * w + t * w_feas)).max())
    assert prob.bisect_feasible(w, w_feas, tol, steps) == sequential_bisection(prob, w, w_feas, tol, steps)

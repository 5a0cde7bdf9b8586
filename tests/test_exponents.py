import dataclasses
import json
import math
import sys
import types

import numpy as np
import pytest

from srleak.cli import load_system_spec, main
from srleak.errors import RateConditionError
from srleak.exponents import (
    RateModel,
    _PLATEAU_TOL,
    _brentq,
    _plateau_onset,
    _project_to_ball,
    RegionPoint,
    SystemSpec,
    VERDICT_BETWEEN,
    VERDICT_OUTSIDE,
    binary_ball_interval,
    binary_ball_laws,
    binary_plateau_alpha,
    criterion_radius,
    divergence_ball_cap,
    jep_floors,
    key_rate_thresholds,
    kl_ball_maximize,
    kl_ball_minimize,
    leakage_exponent_m1,
    leakage_floors,
    leakage_plateau_thresholds,
    partial_secrecy_holds,
    region_boundary,
    region_check,
)
from srleak.probcore import (Distribution, DistortionMeasure, binary_entropy, binary_kl, entropy,
                             kl_divergence)
from srleak.rdsolver import min_sum_rate, rd_function

from conftest import binary_hamming_sum_rate, rd_binary_hamming


def hb(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


H2 = DistortionMeasure.hamming(2)


def make_spec(p=0.3, D1=0.2, D2=0.1, R1=1.0, R2=1.0, r1=0.06, r2=0.1, alpha=0.2):
    return SystemSpec(
        source=Distribution.bernoulli(p), d1=H2, d2=H2,
        D1=D1, D2=D2, R1=R1, R2=R2, r1=r1, r2=r2, alpha=alpha,
    )


FIG_SPEC = make_spec()  # p=0.3, D1=0.2, D2=0.1, r1=0.06, r2=0.1


def jep(spec):
    """The (m1, joint inner, joint outer) JEP floors at the spec's alpha, on a fresh model."""
    return jep_floors(RateModel(spec), spec.alpha)


def expected(spec):
    """The three floors under the expected-distortion criterion, on a fresh model."""
    return leakage_floors(RateModel(spec), "expected")


class TestSystemSpec:
    def test_requires_strict_refinement(self):
        with pytest.raises(ValueError):
            make_spec(D1=0.1, D2=0.1)

    def test_requires_nonnegative_rates(self):
        with pytest.raises(ValueError):
            make_spec(r1=-0.1)

    def test_binary_hamming_detection(self):
        assert FIG_SPEC.is_binary_hamming


class TestRateModel:
    # the layer-1 feasibility cut of the binary closed form is the solver's
    # 1e-9, so all three routes give the same sum rate on either side of it
    @pytest.mark.parametrize("shortfall, finite", [(5e-10, True), (2e-9, False)])
    def test_sum_rate_feasibility_cut(self, shortfall, finite):
        p, D1, D2 = 0.3, 0.2, 0.1
        R1 = hb(p) - hb(D1) - shortfall
        model = RateModel(make_spec(p=p, D1=D1, D2=D2, R1=R1, r1=0.0, r2=0.0))
        q = Distribution.bernoulli(p)
        closed = binary_hamming_sum_rate(p, R1, D1, D2)
        solver = min_sum_rate(q, H2, H2, R1, D1, D2).value
        if finite:
            assert model.sum_rate(q) == closed == pytest.approx(0.41230, abs=1e-5)
            assert solver == pytest.approx(0.41230, abs=1e-5)
        else:
            assert math.isinf(model.sum_rate(q)) and math.isinf(closed) and math.isinf(solver)

    def test_closed_form_reads_each_level_entropy_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return binary_entropy(p)

        for name, module in list(sys.modules.items()):
            if name.startswith("srleak") and getattr(module, "binary_entropy", None) is binary_entropy:
                monkeypatch.setattr(module, "binary_entropy", counted)
        model = RateModel(FIG_SPEC)
        # every law lies above both levels, so each rate takes the entropy branch
        for p in np.linspace(0.25, 0.75, 100).tolist():
            q = Distribution.bernoulli(p)
            assert model.rd(q, 1) > 0.0 and model.rd(q, 2) > 0.0
        # one h(q) per rate, plus h(D1) and h(D2) once per model
        assert len(calls) <= 202

    @pytest.mark.parametrize("R1", [1.0, 0.3, 0.0])
    def test_closed_form_matches_the_reference_bit_for_bit(self, R1):
        # D1 = 1/4 and D2 = 1/8 are hit exactly by the grid's min(p, 1 - p)
        D1, D2 = 0.25, 0.125
        model = RateModel(make_spec(D1=D1, D2=D2, R1=R1))
        for p in np.linspace(0.0, 1.0, 33).tolist():
            q = Distribution.bernoulli(p)
            assert model.rd(q, 1) == rd_binary_hamming(p, D1)
            assert model.rd(q, 2) == rd_binary_hamming(p, D2)
            assert model.sum_rate(q) == binary_hamming_sum_rate(p, R1, D1, D2)

    def test_closed_form_level_above_one(self):
        # the entropy of a level above 1 is undefined; that layer's rate is 0 everywhere
        spec = make_spec(D1=1.5)
        model = RateModel(spec)
        assert model.rd(spec.source, 1) == 0.0
        assert model.rd(spec.source, 2) == rd_binary_hamming(0.3, 0.1)

    def test_solver_values_are_cached_per_law(self, monkeypatch):
        d3 = DistortionMeasure.hamming(3)
        spec = SystemSpec(Distribution([0.5, 0.3, 0.2]), d3, d3, 0.3, 0.1, 1.5, 1.5, 0.0, 0.0, 0.1)
        model = RateModel(spec)
        first = model.rd(spec.source, 1)
        monkeypatch.setattr("srleak.exponents.rd_function", None)
        assert model.rd(Distribution([0.5, 0.3, 0.2]), 1) == first
        assert not model.closed_form


class TestBallMaximize:
    def test_degenerate_ball(self):
        p = Distribution.bernoulli(0.3)
        out = kl_ball_maximize(p, 0.0, lambda q: float(q.probs[1]))
        assert out.value == 0.3
        assert out.argopt == p

    def test_entropy_reaches_one(self):
        p = Distribution.bernoulli(0.3)
        alpha = binary_kl(0.5, 0.3) + 0.01
        out = kl_ball_maximize(p, alpha, lambda q: binary_entropy(float(q.probs[1])))
        assert out.value == pytest.approx(1.0, abs=1e-12)
        assert float(out.argopt.probs[1]) == pytest.approx(0.5, abs=1e-6)

    def test_entropy_boundary_when_ball_small(self):
        # oracle: the max sits at the upper boundary root of D_b(q || 0.3) = 0.05
        from scipy.optimize import brentq

        q_hi = brentq(lambda q: binary_kl(q, 0.3) - 0.05, 0.3, 0.5)
        out = kl_ball_maximize(
            Distribution.bernoulli(0.3), 0.05, lambda q: binary_entropy(float(q.probs[1]))
        )
        assert out.value == pytest.approx(hb(q_hi), abs=1e-9)
        assert q_hi < 0.5

    @pytest.mark.parametrize("probs", [[0.7, 0.3], [0.5, 0.3, 0.2]])
    def test_nan_radius_rejected(self, probs):
        # the ball search is where a radius gets checked: NaN passes `alpha < 0`
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            kl_ball_maximize(Distribution(probs), math.nan, entropy)

    def test_interval_roots(self):
        lo, hi = binary_ball_interval(0.3, 0.05)
        assert binary_kl(lo, 0.3) == pytest.approx(0.05, abs=1e-10)
        assert binary_kl(hi, 0.3) == pytest.approx(0.05, abs=1e-10)
        assert lo < 0.3 < hi

    def test_general_alphabet_entropy(self):
        from srleak.probcore import entropy

        p = Distribution([0.5, 0.3, 0.2])
        alpha = 2.0  # ball covers the whole simplex
        out = kl_ball_maximize(p, alpha, entropy)
        assert out.value == pytest.approx(math.log2(3), abs=1e-3)

    def test_ternary_solver_backend_exponent(self):
        # whole-simplex ball: the layer-1 exponent peaks at the uniform law,
        # where the 0/1-measure rate function has a closed form
        d3 = DistortionMeasure.hamming(3)
        spec = SystemSpec(
            source=Distribution([0.5, 0.3, 0.2]), d1=d3, d2=d3,
            D1=0.3, D2=0.1, R1=1.5, R2=1.5, r1=0.0, r2=0.0, alpha=3.0,
        )
        expect = math.log2(3) - hb(0.3) - 0.3
        assert leakage_exponent_m1(spec) == pytest.approx(expect, abs=1e-4)


class TestPinnedSearchSettings:
    # exact reprs of the ball-search, plateau-scan and solver settings; a
    # changed constant shows up here (the solver-backed two moved in their
    # last digits when rd_function became a certified bracket search)
    def test_ternary_coarse_search_m1(self):
        d3 = DistortionMeasure.hamming(3)
        spec = SystemSpec(Distribution([0.5, 0.3, 0.2]), d3, d3, 0.3, 0.1, 1.5, 1.5, 0.05, 0.0, 0.05)
        assert repr(leakage_exponent_m1(spec)) == "0.3447461731786204"

    def test_binary_scan_m1(self):
        # a binary source under a non-Hamming measure takes the interval scan
        erasure = DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
        spec = SystemSpec(Distribution([0.65, 0.35]), erasure, H2, 0.2, 0.1, 1.6, 1.6, 0.0, 0.0, 0.1)
        assert repr(leakage_exponent_m1(spec)) == "0.2780719051126379"

    def test_plateau_thresholds(self):
        assert repr(leakage_plateau_thresholds(RateModel(FIG_SPEC))) == (
            "(0.12576887467401637, 0.12576887467401637)"
        )


def reference_project_to_ball(q: np.ndarray, p: Distribution, alpha: float) -> np.ndarray:
    """The projection as first written: a Distribution and a kl_divergence call per step."""
    qd = Distribution(q / q.sum())
    if kl_divergence(qd, p) <= alpha:
        return qd.probs.copy()
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mix = (1.0 - mid) * qd.probs + mid * p.probs
        if kl_divergence(Distribution(mix), p) <= alpha:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * qd.probs + hi * p.probs


def test_project_to_ball_matches_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    for trial in range(300):
        k = 3 + trial % 3
        p = Distribution(rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
        alpha = float(rng.uniform(0.005, 0.3))
        kind = trial % 4
        if kind == 0:  # a pulled-in vertex, as the general ball search builds it
            q = np.full(k, 1e-9)
            q[rng.integers(k)] = 1.0
        elif kind == 1:  # a random start halfway to p
            q = 0.5 * p.probs + 0.5 * rng.dirichlet(np.ones(k))
        elif kind == 2:  # a point with an exact zero
            q = rng.dirichlet(np.ones(k))
            q[rng.integers(k)] = 0.0
        else:  # an unnormalized point near p, often already inside
            q = p.probs * rng.uniform(0.9, 1.1, size=k) * 3.0
        got = _project_to_ball(q, p, alpha)
        want = reference_project_to_ball(q, p, alpha)
        assert got.tobytes() == want.tobytes(), (trial, q, p.probs, alpha)


def brent_brackets(seed: int, count: int):
    """Seeded ball-boundary root problems (p, alpha, bracket).

    The Bernoulli parameter p is log-uniform near 0 and near 1 or uniform
    in between; alpha sits just below a side's cap (-log2(1 - p) for the
    lower end, -log2(p) for the upper), log-uniform down to 1e-12 times the
    cap, or uniform below it.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            p = float(10.0 ** rng.uniform(-12, -1))
        elif kind == 1:
            p = float(1.0 - 10.0 ** rng.uniform(-12, -1))
        else:
            p = float(rng.uniform(0.01, 0.99))
        for bracket, cap in (((0.0, p), -math.log2(1.0 - p)), ((p, 1.0), -math.log2(p))):
            where = rng.integers(3)
            if where == 0:
                alpha = cap * (1.0 - 10.0 ** rng.uniform(-15, -1))
            elif where == 1:
                alpha = cap * 10.0 ** rng.uniform(-12, 0)
            else:
                alpha = cap * rng.uniform()
            if 0.0 < alpha < cap:
                out.append((p, float(alpha), bracket))
    return out


class TestBrentRoot:
    """The in-module Brent root is scipy's brentq, value for value and error for error."""

    def test_roots_equal_scipy_bit_for_bit(self):
        from scipy.optimize import brentq

        def outcome(solve):
            try:
                return solve()
            except ValueError as exc:
                return str(exc)

        cases = brent_brackets(seed=31, count=2000)
        assert min(p for p, _, _ in cases) < 1e-10 and max(p for p, _, _ in cases) > 1 - 1e-10
        assert min(a for _, a, _ in cases) < 1e-12
        roots = 0
        for p, alpha, (a, b) in cases:
            f = lambda q: binary_kl(q, p) - alpha
            got = outcome(lambda: _brentq(f, a, b, 1e-15))
            want = outcome(lambda: brentq(f, a, b, xtol=1e-15))
            assert got == want, (p, alpha, a, b, got, want)
            roots += isinstance(got, float)
        # the rest are alphas within rounding of the cap, where binary_kl at
        # the bracket end and the cap's closed form differ in the last bits
        assert roots >= 1950

    def test_nan_value_raises_value_error(self):
        with pytest.raises(ValueError, match=r"function value at x=0\.0 is NaN"):
            binary_ball_interval(0.3, math.nan)
        with pytest.raises(ValueError, match=r"function value at x=1\.0 is NaN"):
            _brentq(lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0, 1e-15)

    def test_no_sign_change_raises_value_error(self):
        with pytest.raises(ValueError, match="must have different signs"):
            _brentq(lambda x: x + 1.0, 0.0, 1.0, 1e-15)
        with pytest.raises(ValueError, match="must have different signs"):
            _brentq(lambda x: -x - 1.0, 0.0, 1.0, 1e-15)

    def test_iteration_cap_raises_runtime_error(self):
        # a step with no root: each secant step is a bisection of a 2e300-wide
        # bracket, which 100 halvings cannot shrink to the tolerance
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            _brentq(lambda x: -1.0 if x < 1.0 else 1.0, -1e300, 1e300, 1e-15)

    def test_endpoint_roots_return_the_endpoint(self):
        assert _brentq(lambda x: x, 0.0, 1.0, 1e-15) == 0.0
        assert _brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-15) == 1.0

    def test_radii_within_rounding_of_a_cap(self):
        # the cap's closed form and binary_kl at the end of the side differ in
        # the last bits; a radius between the two once left the root a bracket
        # without a sign change
        whole_side = 0
        for p, alpha, (a, _) in brent_brackets(seed=31, count=2000):
            end = 0.0 if a == 0.0 else 1.0
            if alpha >= binary_kl(end, p):
                whole_side += 1
                assert binary_ball_interval(p, alpha)[int(end)] == end, (p, alpha)
        assert whole_side == 22
        lo, hi = binary_ball_interval(0.9941893105705301, 0.008407503244129269)
        assert hi == 1.0
        assert binary_kl(lo, 0.9941893105705301) == pytest.approx(0.008407503244129269, abs=1e-12)

    def test_whole_interval_and_tiny_radius(self):
        assert binary_ball_interval(0.3, math.inf) == (0.0, 1.0)
        assert binary_ball_interval(0.3, 1e-40) == (0.3, 0.3)

    def test_radii_within_rounding_of_zero(self):
        # alpha ~1e-16 around a small p: on the whole side [0, p] or [p, 1]
        # Brent's method once ran out of iterations; the Pinsker bracket
        # |q - p| <= sqrt(alpha ln 2) solves each to rounding
        tiny = [(p, alpha) for p, alpha, _ in brent_brackets(seed=31, count=2000)
                if alpha < 1e-14 and p < 1e-4]
        assert len(tiny) >= 8
        for p, alpha in tiny:
            lo, hi = binary_ball_interval(p, alpha)
            assert lo <= p <= hi
            for q in (lo, hi):
                assert abs(binary_kl(q, p) - alpha) <= 1e-15, (p, alpha, q)


class TestBallInterval:
    """A binary model solves the ball's Bernoulli interval once per radius."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def counted(p, alpha):
            calls.append(alpha)
            return binary_ball_interval(p, alpha)

        monkeypatch.setattr("srleak.exponents.binary_ball_interval", counted)
        return calls

    def test_one_interval_per_radius_and_model(self, spy):
        model = RateModel(FIG_SPEC)
        jep_floors(model, 0.1)
        assert spy == [0.1]  # the layer-1 check and three floors share it
        jep_floors(model, 0.1)
        key_rate_thresholds(model, 0.1)
        assert spy == [0.1]
        jep_floors(model, 0.05)
        assert spy == [0.1, 0.05]
        jep_floors(RateModel(FIG_SPEC), 0.1)  # no interval outlives its model
        assert spy == [0.1, 0.05, 0.1]

    def test_radius_zero_and_nan_solve_no_interval(self, spy):
        model = RateModel(FIG_SPEC)
        assert model.ball_max(model.m1, 0.0) == model.m1(FIG_SPEC.source)
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            model.ball_max(model.m1, math.nan)
        assert spy == []

    @pytest.mark.parametrize("spec", [
        FIG_SPEC,
        SystemSpec(Distribution([0.65, 0.35]), DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
                   H2, 0.2, 0.1, 1.6, 1.6, 0.0, 0.0, 0.1),
    ], ids=["hamming", "erasure-d1"])
    def test_searches_equal_the_uninformed_search(self, spec):
        # the rate gap between the layers, not the joint objectives: the erasure
        # spec's would call the sum-rate solver, ~0.5 s per law
        model = RateModel(spec)
        for a in (0.01, 0.1, 2.0):
            for f in (model.m1, lambda q: model.rd(q, 2) - model.rd(q, 1)):
                want = kl_ball_maximize(spec.source, a, f, entropy_monotone=model.closed_form)
                got = model.ball_search(f, a)
                assert (got.value, got.argopt) == (want.value, want.argopt)
            want = kl_ball_minimize(spec.source, a, model.m1, entropy_monotone=model.closed_form).value
            assert model.ball_min(model.m1, a) == want


def reference_closed_form_search(spec, objective, alpha, sign=1.0):
    """The closed-form ball search as first written: each candidate a fresh
    ``Distribution.bernoulli`` of q_lo, q_hi, p and the clamped 1/2, scored
    in that order from best = p with ``>``; ``sign`` -1 gives the minimum.
    Returns (value, argopt)."""
    if alpha == 0.0:
        return objective(spec.source), spec.source
    pb = float(spec.source.probs[1])
    q_lo, q_hi = binary_ball_interval(pb, alpha)

    def f(q):
        return sign * objective(Distribution.bernoulli(q))

    if q_hi - q_lo < 1e-15:
        return sign * f(pb), Distribution.bernoulli(pb)
    best_q, best_v = pb, -math.inf
    for cand in (q_lo, q_hi, pb, min(max(0.5, q_lo), q_hi)):
        cv = f(cand)
        if cv > best_v:
            best_q, best_v = cand, cv
    return sign * best_v, Distribution.bernoulli(best_q)


def closed_form_objectives(spec):
    """The spec's model, and name -> (the model's objective, the same
    objective from the conftest closed forms, sign of the search): the three
    floors and the layer-1 rate are maximized, the two key-threshold
    objectives minimized."""
    model = RateModel(spec)

    def rd1(q):
        return rd_binary_hamming(float(q.probs[1]), spec.D1)

    def total(q):
        return binary_hamming_sum_rate(float(q.probs[1]), spec.R1, spec.D1, spec.D2)

    def pos(x):
        return x if x > 0.0 else 0.0

    return model, {
        "m1": (model.m1, lambda q: pos(rd1(q) - spec.r1), 1.0),
        "joint": (model.joint, lambda q: pos(rd1(q) - spec.r1) + pos(total(q) - rd1(q) - spec.r2), 1.0),
        "joint_outer": (model.joint_outer, lambda q: pos(total(q) - spec.r1 - spec.r2), 1.0),
        "rd1": (lambda q: model.rd(q, 1), rd1, 1.0),
        "key1": (lambda q: model.rd(q, 1), rd1, -1.0),
        "key2": (lambda q: model.sum_rate(q) - model.rd(q, 1), lambda q: total(q) - rd1(q), -1.0),
    }


def law_table_cases():
    rng = np.random.default_rng(20)
    seeded = [(round(float(rng.uniform(0.05, 0.95)), 6), float(10 ** rng.uniform(-4, 0.5)),
               float(rng.choice([1.0, 0.3])), *np.round(rng.uniform(0.0, 0.3, 2), 6).tolist())
              for _ in range(12)]
    # radius 0; intervals narrower than 1e-15 (1e-40 gives (p, p)); intervals
    # reaching 0 (p = 0.3, alpha 1), 1 (p = 0.8, alpha 1) and both (alpha 3)
    edges = [(0.3, 0.0, 1.0, 0.06, 0.1), (0.3, 1e-40, 1.0, 0.06, 0.1), (0.3, 1e-31, 1.0, 0.06, 0.1),
             (0.3, 1.0, 1.0, 0.06, 0.1), (0.8, 1.0, 0.3, 0.06, 0.1), (0.3, 3.0, 1.0, 0.0, 0.0),
             (0.8, 3.0, 0.3, 0.2, 0.05)]
    return seeded + edges


class TestBinaryLawTable:
    """A closed-form model scores one table of candidate laws per radius and
    computes each law's rates once, with the search's old results bit for bit."""

    @pytest.mark.parametrize("p, alpha, R1, r1, r2", law_table_cases())
    def test_searches_equal_fresh_candidates_bit_for_bit(self, p, alpha, R1, r1, r2):
        spec = make_spec(p=p, R1=R1, r1=r1, r2=r2)
        model, objectives = closed_form_objectives(spec)
        for name, (objective, reference, sign) in objectives.items():
            want = reference_closed_form_search(spec, reference, alpha, sign)
            if sign > 0:
                got = model.ball_search(objective, alpha)
                assert (got.value, got.argopt) == want, name
                assert model.ball_max(objective, alpha) == want[0], name
            else:
                assert model.ball_min(objective, alpha) == want[0], name
        want = tuple(reference_closed_form_search(spec, objectives[k][1], alpha, -1.0)[0]
                     for k in ("key1", "key2"))
        assert key_rate_thresholds(model, alpha) == want

    def test_table_order_and_edges(self):
        lo, hi = binary_ball_interval(0.3, 0.1)
        assert binary_ball_laws(0.3, 0.1) == tuple(Distribution.bernoulli(q) for q in (lo, hi, 0.3, hi))
        # 1/2 inside the ball, and an interval reaching 0 and 1
        lo, hi = binary_ball_interval(0.3, 0.2)
        assert lo < 0.5 < hi
        assert [float(q.probs[1]) for q in binary_ball_laws(0.3, 0.2)] == [lo, hi, 0.3, 0.5]
        assert [float(q.probs[1]) for q in binary_ball_laws(0.3, 3.0)] == [0.0, 1.0, 0.3, 0.5]
        # radius 0 and a radius within rounding of it hold the center alone
        assert binary_ball_interval(0.3, 0.0) == (0.3, 0.3)
        for alpha in (0.0, 1e-40):
            assert binary_ball_laws(0.3, alpha) == (Distribution.bernoulli(0.3),)

    def test_given_laws_are_scored_as_given(self):
        # the table's own law objects come back as the argopt, and a one-law
        # table is scored alone
        p = Distribution.bernoulli(0.3)
        laws = binary_ball_laws(0.3, 0.1)
        seen = []

        def objective(q):
            seen.append(q)
            return float(q.probs[1])

        out = kl_ball_maximize(p, 0.1, objective, entropy_monotone=True, laws=laws)
        assert seen == list(laws) and all(a is b for a, b in zip(seen, laws))
        assert out.argopt is laws[1] and out.value == float(laws[1].probs[1])
        seen.clear()
        center = (Distribution.bernoulli(0.3),)
        out = kl_ball_maximize(p, 1e-40, objective, entropy_monotone=True, laws=center)
        assert seen == list(center) and out.argopt is center[0]

    def test_only_the_latest_radius_keeps_its_table(self, monkeypatch):
        radii = []

        def counted(p, alpha):
            radii.append(alpha)
            return binary_ball_interval(p, alpha)

        monkeypatch.setattr("srleak.exponents.binary_ball_interval", counted)
        model = RateModel(FIG_SPEC)
        for alpha in (0.1, 0.1, 0.0, 0.1, 0.05, 0.1):
            jep_floors(model, alpha)
        # radius 0 searches no table; returning to a radius builds its table again
        assert radii == [0.1, 0.05, 0.1]

    def test_one_entropy_per_law_over_a_sweep(self, monkeypatch, tmp_path):
        calls = []

        def counted(p):
            calls.append(p)
            return binary_entropy(p)

        monkeypatch.setattr("srleak.exponents.binary_entropy", counted)
        path, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps({
            "source": [0.7, 0.3], "d1": {"hamming": True}, "d2": {"hamming": True},
            "D1": 0.2, "D2": 0.1, "R1": 1.0, "R2": 1.0, "r1": 0.06, "r2": 0.1, "alpha": 0.1,
        }))
        assert main(["sweep", "--spec", str(path), "--alpha-range", "0:0.3:200", "--out", str(out)]) == 0
        laws = {0.3} | {float(q.probs[1]) for a in np.linspace(0.0, 0.3, 200)[1:].tolist()
                        for q in binary_ball_laws(0.3, a)}
        # h(D1) and h(D2) once for the command's model, then each law at most once
        assert calls[:2] == [0.2, 0.1]
        assert len(calls[2:]) == len(set(calls[2:])) and set(calls[2:]) <= laws


def reference_plateau_onset(f, cap):
    """The plateau onset as first written, the oracle of the binary search:
    a 200-point log-spaced scan of the nondecreasing curve f, then a
    bisection to 1e-8 on the predicate "f within a relative 5e-13 of f(cap)"."""
    plateau = f(cap)
    eps = 5e-13 * max(1.0, abs(plateau))
    if f(0.0) >= plateau - eps:
        return 0.0
    alphas = np.logspace(math.log10(1e-6), math.log10(cap), 200)
    hit = cap
    lo = 0.0
    for a in alphas:
        if f(float(a)) >= plateau - eps:
            hit = float(a)
            break
        lo = float(a)
    hi = hit
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if f(mid) >= plateau - eps:
            hi = mid
        else:
            lo = mid
    return hi


def scan_thresholds(model):
    """Both plateau onsets from the reference scan, with the library's layer-1 check."""
    cap = divergence_ball_cap(model.spec.source)
    m1 = reference_plateau_onset(lambda a: model.ball_max(model.m1, a), cap)
    try:
        model.require_layer1_rate(cap)
    except RateConditionError:
        return m1, None
    return m1, reference_plateau_onset(lambda a: model.ball_max(model.joint, a), cap)


def assert_onsets_agree(got, want):
    for g, w in zip(got, want):
        if w is None or w == 0.0:
            assert g == w
        else:
            assert g == pytest.approx(w, abs=1e-8)


class TestPlateauOracle:
    """The one-search binary plateau onset against the alpha scan."""

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.3, 0.45, 0.62, 0.8])
    @pytest.mark.parametrize("r1, r2", [(0.0, 0.0), (0.06, 0.1), (0.2, 0.3), (0.02, 0.6)])
    def test_binary_hamming_grid(self, p, r1, r2):
        model = RateModel(make_spec(p=p, r1=r1, r2=r2))
        got = leakage_plateau_thresholds(model)
        assert_onsets_agree(got, scan_thresholds(RateModel(model.spec)))
        for onset in got:
            if onset:  # the curve is not flat: 1/2 reaches it, and so do laws ~sqrt(5e-13) nearer p
                assert 0.0 <= binary_plateau_alpha(p) - onset <= 1e-5

    def test_flat_topped_joint_curve(self):
        # r1 exceeds every R(Q, D1), so the joint curve is R(Q, D2) - R(Q, D1) - r2,
        # constant once min(q, 1 - q) >= D1: the onset is D_b(0.2 || 0.15), not D_b(0.5 || 0.15)
        spec = make_spec(p=0.15, D1=0.2, D2=0.1, r1=0.3, r2=0.05)
        got = leakage_plateau_thresholds(RateModel(spec))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(binary_kl(0.2, 0.15), abs=1e-8)
        assert got[1] < binary_plateau_alpha(0.15) - 0.4
        assert_onsets_agree(got, scan_thresholds(RateModel(spec)))

    @pytest.fixture
    def stand_in(self, monkeypatch):
        """Cheap solver stand-ins for a binary non-Hamming spec: R(Q, D) is a
        parabola in Q(1) peaked at 0.4 + D, or at 0.2 and 0.8 when bimodal."""
        shape = {"bimodal": False}

        def rd(q, d, D):
            x = float(q.probs[1])
            dist = min(abs(x - 0.2), abs(x - 0.8)) if shape["bimodal"] else abs(x - 0.4 - D)
            return types.SimpleNamespace(value=1.0 - D - dist**2)

        def sum_rate(q, d1, d2, R1, D1, D2, _rd=None):
            need = rd(q, d1, D1).value
            return types.SimpleNamespace(value=math.inf if R1 < need - 1e-9 else rd(q, d2, D2).value)

        monkeypatch.setattr("srleak.exponents.rd_function", rd)
        monkeypatch.setattr("srleak.exponents.min_sum_rate", sum_rate)
        return shape

    @pytest.mark.parametrize("bimodal", [False, True])
    @pytest.mark.parametrize("p, r1, r2", [(0.35, 0.05, 0.05), (0.7, 0.1, 0.0), (0.5, 0.0, 0.2)])
    def test_solver_backed_branch(self, stand_in, bimodal, p, r1, r2):
        stand_in["bimodal"] = bimodal
        erasure = DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
        spec = SystemSpec(Distribution.bernoulli(p), erasure, H2, 0.23, 0.1, 1.5, 1.5, r1, r2, 0.1)
        model = RateModel(spec)
        assert not model.closed_form
        got = leakage_plateau_thresholds(model)
        assert got[0] > 0.0 and got[1] is not None
        assert_onsets_agree(got, scan_thresholds(RateModel(spec)))

    def test_erasure_m1_onset(self, monkeypatch):
        # the real rate-distortion solver; R1 below the whole-simplex maximum of
        # R(Q, D1) (0.1187) fails the layer-1 check at the cap, so the joint
        # curve is None and the sum-rate solver never runs
        def no_sum_rate(*args):
            raise AssertionError("min_sum_rate called")

        monkeypatch.setattr("srleak.exponents.min_sum_rate", no_sum_rate)
        erasure = DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])
        spec = SystemSpec(Distribution([0.65, 0.35]), erasure, H2, 0.3, 0.1, 0.1, 1.0, 0.05, 0.05, 0.03)
        model = RateModel(spec)
        onset, joint = leakage_plateau_thresholds(model)
        assert joint is None
        plateau = model.ball_max(model.m1, divergence_ball_cap(spec.source))
        floor = plateau - 5e-13 * max(1.0, plateau)
        assert model.ball_max(model.m1, onset + 1e-8) >= floor
        assert model.ball_max(model.m1, onset - 1e-6) < floor


class TestBallMinimize:
    def test_keyrate_threshold_r1(self):
        # published sanity value: 0.162 for Bern(0.4), D1 = 0.2, alpha = 0.03
        spec = make_spec(p=0.4, D1=0.2, D2=0.15, alpha=0.03)
        t1, t2 = key_rate_thresholds(RateModel(spec), spec.alpha)
        assert t1 == pytest.approx(0.162, abs=1e-3)
        assert t2 == pytest.approx(0.112, abs=1e-3)

    def test_alpha_zero(self):
        p = Distribution.bernoulli(0.4)
        out = kl_ball_minimize(p, 0.0, lambda q: binary_entropy(float(q.probs[1])))
        assert out.value == pytest.approx(hb(0.4), abs=1e-14)


class TestLeakageExponents:
    def test_m1_plateau_value(self):
        # converged value 1 - hb(0.2) - 0.06 once the ball holds q = 0.5
        spec = make_spec(alpha=binary_plateau_alpha(0.3) + 0.05)
        expect = 1.0 - hb(0.2) - 0.06
        assert expect == pytest.approx(0.2180719051126377, abs=1e-12)
        assert leakage_exponent_m1(spec) == pytest.approx(expect, abs=1e-9)

    def test_m1_clamped_to_zero(self):
        spec = make_spec(r1=2.0)
        assert leakage_exponent_m1(spec) == 0.0

    def test_m1_alpha_zero(self):
        spec = make_spec(r1=0.0, alpha=0.0)
        assert leakage_exponent_m1(spec) == pytest.approx(hb(0.3) - hb(0.2), abs=1e-12)

    def test_joint_plateau_value(self):
        spec = make_spec(alpha=binary_plateau_alpha(0.3) + 0.05)
        expect = 1.0 - hb(0.1) - 0.16
        assert expect == pytest.approx(0.3710044064107188, abs=1e-12)
        _, inner, outer = jep(spec)
        assert inner == pytest.approx(expect, abs=1e-9)
        assert outer == pytest.approx(expect, abs=1e-9)

    def test_joint_clamped(self):
        spec = make_spec(r1=2.0, r2=2.0)
        _, inner, outer = jep(spec)
        assert inner == 0.0
        assert outer == 0.0

    def test_rate_precondition_enforced(self):
        spec = make_spec(R1=0.05)
        with pytest.raises(RateConditionError):
            jep(spec)

    def test_outer_never_exceeds_inner(self):
        for r1, r2 in [(0.0, 0.0), (0.06, 0.1), (0.3, 0.05), (0.5, 0.5)]:
            spec = make_spec(r1=r1, r2=r2)
            _, inner, outer = jep(spec)
            assert outer <= inner + 1e-9

    def test_monotone_in_alpha(self):
        vals1, vals2 = [], []
        for a in np.linspace(0.0, 0.3, 31):
            spec = make_spec(alpha=float(a))
            vals1.append(leakage_exponent_m1(spec))
            vals2.append(jep(spec)[1])
        for seq in (vals1, vals2):
            for x, y in zip(seq, seq[1:]):
                assert y >= x - 1e-9

    def test_floor_effect(self):
        astar = binary_plateau_alpha(0.3)
        ref = leakage_exponent_m1(make_spec(alpha=astar))
        for a in (astar + 0.01, astar + 0.1, astar + 1.0):
            assert leakage_exponent_m1(make_spec(alpha=float(a))) == pytest.approx(ref, abs=1e-6)

    def test_nonincreasing_in_r1(self):
        vals = [leakage_exponent_m1(make_spec(r1=float(r))) for r in np.linspace(0, 0.4, 9)]
        for x, y in zip(vals, vals[1:]):
            assert y <= x + 1e-12

    def test_solver_backend_agrees(self):
        spec = make_spec(alpha=0.05)
        fast = leakage_exponent_m1(spec)
        slow = kl_ball_maximize(
            spec.source, spec.alpha,
            lambda q: max(rd_function(q, H2, spec.D1).value - spec.r1, 0.0),
        ).value
        assert slow == pytest.approx(fast, abs=2e-3)

    def test_successive_refinability_transfer(self):
        # outer joint exponent equals the single-layer exponent of the
        # aggregated operating point (R1+R2, r1+r2) at the finer distortion
        spec = make_spec(alpha=0.08)
        merged = make_spec(
            D1=0.1, D2=0.05, R1=spec.R1 + spec.R2, R2=0.0,
            r1=spec.r1 + spec.r2, r2=0.0, alpha=0.08,
        )
        assert jep(spec)[2] == pytest.approx(
            leakage_exponent_m1(merged), abs=2e-3
        )


class TestExpectedDistortion:
    def test_omega1_value(self):
        spec = make_spec(alpha=0.0)
        o1, o2, o2_out = expected(spec)
        assert o1 == pytest.approx(hb(0.3) - hb(0.2) - 0.06, abs=1e-12)

    def test_huge_keys_zero(self):
        spec = make_spec(r1=2.0, r2=2.0)
        assert expected(spec) == (0.0, 0.0, 0.0)

    def test_rate_preconditions(self):
        with pytest.raises(RateConditionError):
            expected(make_spec(R1=0.05))
        # layer-1 margin fine but the total rate sits below the two-layer
        # minimum 1 - hb(0.1) = 0.531 for the uniform source
        with pytest.raises(RateConditionError):
            expected(make_spec(R1=0.4, R2=0.05, p=0.5))

    def test_consistency_at_alpha_zero(self):
        spec = make_spec(alpha=0.0)
        o1, o2, _ = expected(spec)
        assert leakage_exponent_m1(spec) == pytest.approx(o1, abs=1e-9)
        assert jep(spec)[1] == pytest.approx(o2, abs=1e-9)

    def test_uniform_source_matches_jep(self):
        # with a uniform binary source the ball maximum sits at the center,
        # so the two criteria give identical exponents for every alpha
        for a in (0.01, 0.05, 0.1, 0.5, 1.0):
            spec = make_spec(p=0.5, alpha=float(a))
            o1, o2, _ = expected(spec)
            assert leakage_exponent_m1(spec) == pytest.approx(o1, abs=1e-9)
            assert jep(spec)[1] == pytest.approx(o2, abs=1e-9)


class TestPlateau:
    def test_binary_closed_form(self):
        # oracle: D_b(0.5 || 0.3) = 0.5 log2(25/21)
        expect = 0.5 * math.log2(25.0 / 21.0)
        assert binary_plateau_alpha(0.3) == pytest.approx(expect, abs=1e-15)
        a1, a2 = leakage_plateau_thresholds(RateModel(FIG_SPEC))
        assert a1 == pytest.approx(expect, abs=1e-6)
        assert a2 == pytest.approx(expect, abs=1e-6)

    def test_uniform_source_zero(self):
        a1, a2 = leakage_plateau_thresholds(RateModel(make_spec(p=0.5)))
        assert a1 == 0.0 and a2 == 0.0

    # the general-alphabet scan on synthetic nondecreasing curves: every
    # solver curve a test checks is flat from 0 or reaches its plateau
    # before the first scan radius, 1e-6
    def test_scan_onset_of_a_flat_curve(self):
        assert _plateau_onset(lambda a: 0.75, 2.0) == 0.0

    @pytest.mark.parametrize("onset", [0.3, 1.7])
    def test_scan_onset_past_the_first_radius(self, onset):
        calls = []

        def f(a):
            calls.append(a)
            return 0.25 + min(a, onset)

        got = _plateau_onset(f, 2.0)
        assert got == pytest.approx(onset, abs=_PLATEAU_TOL)
        assert sum(a < onset for a in calls) > 2  # the scan missed before it hit


class TestRegion:
    def test_boundary_point_inside(self):
        spec = make_spec(alpha=0.1)
        b = region_boundary(RateModel(spec), "jep")
        verdict = region_check(b, RegionPoint(b.lambda1, b.lambda2_in))
        assert verdict == "inside_inner"

    def test_below_m1_bound_outside(self):
        spec = make_spec(alpha=0.1)
        b = region_boundary(RateModel(spec), "jep")
        verdict = region_check(b, RegionPoint(max(b.lambda1 - 0.01, 0.0), 5.0))
        assert verdict == "outside_outer"

    def test_between_the_inner_and_outer_joint_floors(self):
        # r1 above the layer-1 rate clamps the inner floor's first term at 0,
        # while the outer floor subtracts all of r1
        spec = make_spec(r1=0.5, r2=0.0)
        b = region_boundary(RateModel(spec), "jep")
        assert b.lambda2_in > b.lambda2_out + 0.2 and not b.matched
        for l2 in (b.lambda2_out, 0.5 * (b.lambda2_in + b.lambda2_out)):
            assert region_check(b, RegionPoint(b.lambda1, l2)) == VERDICT_BETWEEN
        assert region_check(b, RegionPoint(b.lambda1, b.lambda2_out - 0.01)) == VERDICT_OUTSIDE

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="leakage budgets"):
            RegionPoint(math.nan, 0.5)
        with pytest.raises(ValueError, match="leakage budgets"):
            RegionPoint(0.5, math.nan)

    def test_matched_region_has_no_between(self):
        spec = make_spec(p=0.4, D1=0.2, D2=0.15, alpha=0.03, r1=0.1, r2=0.1)
        assert partial_secrecy_holds(RateModel(spec), spec.alpha)
        b = region_boundary(RateModel(spec), "jep")
        assert b.matched

    def test_partial_secrecy_false_when_r1_large(self):
        spec = make_spec(p=0.4, D1=0.2, D2=0.15, alpha=0.03, r1=0.2, r2=0.1)
        assert not partial_secrecy_holds(RateModel(spec), spec.alpha)

    def test_zero_keys_always_match(self):
        spec = make_spec(r1=0.0, r2=0.0, alpha=0.15)
        assert partial_secrecy_holds(RateModel(spec), spec.alpha)
        assert partial_secrecy_holds(RateModel(spec), 0.0)

    def test_inner_outer_match_when_conditions_hold(self):
        spec = make_spec(p=0.4, D1=0.2, D2=0.15, alpha=0.03, r1=0.1, r2=0.1)
        _, inner, outer = jep(spec)
        assert inner == pytest.approx(outer, abs=1e-6)


class TestSharedRateModel:
    """One alpha-free model serves every radius of a command loop.

    Cheap deterministic stand-ins replace the solvers so the ternary
    (solver-backed) path runs in milliseconds.
    """

    SPEC = {
        "source": [0.36, 0.33, 0.31], "d1": {"hamming": True}, "d2": {"hamming": True},
        "D1": 0.3, "D2": 0.1, "R1": 1.5, "R2": 1.5, "r1": 0.05, "r2": 0.1, "alpha": 0.01,
    }

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"solver": 0, "model": 0, "check": 0}

        def rd(q, d, D):
            counts["solver"] += 1
            return types.SimpleNamespace(value=max(entropy(q) - binary_entropy(D) - D, 0.0))

        def sum_rate(q, d1, d2, R1, D1, D2, _rd=None):
            counts["solver"] += 1
            need = rd(q, d1, D1).value
            return types.SimpleNamespace(value=math.inf if R1 < need - 1e-9 else rd(q, d2, D2).value)

        init, check = RateModel.__init__, RateModel.require_layer1_rate

        def counted_init(self, spec):
            counts["model"] += 1
            init(self, spec)

        def counted_check(self, alpha):
            counts["check"] += 1
            check(self, alpha)

        monkeypatch.setattr("srleak.exponents.rd_function", rd)
        monkeypatch.setattr("srleak.exponents.min_sum_rate", sum_rate)
        monkeypatch.setattr(RateModel, "__init__", counted_init)
        monkeypatch.setattr(RateModel, "require_layer1_rate", counted_check)
        return counts

    def test_sweep_rows_equal_the_public_calls(self, counts, tmp_path):
        path, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps(self.SPEC))
        assert main(["sweep", "--spec", str(path), "--alpha-range", "0:0.02:3", "--out", str(out)]) == 0
        assert (counts["model"], counts["check"]) == (1, 3)
        rows = [line for line in out.read_text().splitlines() if line[0].isdigit()]
        spec = load_system_spec(str(path))
        assert len(rows) == 3
        for row in rows:
            a, *floors = (float(v) for v in row.split(","))
            s = dataclasses.replace(spec, alpha=a)
            assert floors == [leakage_exponent_m1(s), *jep(s)[1:]]

    def test_no_model_outlives_a_call(self, counts):
        d3 = DistortionMeasure.hamming(3)
        spec = SystemSpec(Distribution(self.SPEC["source"]), d3, d3, 0.3, 0.1, 1.5, 1.5, 0.05, 0.1, 0.01)
        calls = []
        for _ in range(2):
            before = counts["solver"]
            leakage_exponent_m1(spec)
            calls.append(counts["solver"] - before)
        assert calls[0] == calls[1] > 0

    def test_exponents_fields_equal_the_library_calls(self, counts, tmp_path):
        # near-uniform source: the plateau onset falls below the scan's first
        # radius, which keeps the ternary plateau scan short
        path, out = tmp_path / "spec.json", tmp_path / "exponents.json"
        path.write_text(json.dumps(dict(self.SPEC, source=[0.3334, 0.3333, 0.3333])))
        assert main(["exponents", "--spec", str(path), "--out", str(out)]) == 0
        assert counts["model"] == 1
        data = json.loads(out.read_text())
        spec = load_system_spec(str(path))
        a1, a2 = leakage_plateau_thresholds(RateModel(spec))
        t1, t2 = key_rate_thresholds(RateModel(spec), spec.alpha)
        want = {
            "plateau_alpha": {"m1": a1, "joint": a2},
            "key_rate_thresholds": {"r1": t1, "r2": t2},
            "partial_secrecy": {},
        }
        for c in ("jep", "expected"):
            want[c] = dict(zip(("m1", "joint_inner", "joint_outer"), leakage_floors(RateModel(spec), c)))
            want["partial_secrecy"][c] = partial_secrecy_holds(RateModel(spec), criterion_radius(spec, c))
        assert data == want

    @pytest.mark.parametrize("source, d1", [
        ([0.7, 0.3], H2),
        ([0.65, 0.35], DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])),
        ([0.36, 0.33, 0.31], DistortionMeasure.hamming(3)),
    ], ids=["binary-hamming", "erasure-d1", "ternary"])
    def test_expected_floors_are_the_radius_zero_ball(self, counts, source, d1):
        p = Distribution(source)
        d2 = DistortionMeasure.hamming(p.alphabet_size)
        spec = SystemSpec(p, d1, d2, 0.3, 0.1, 1.0, 1.0, 0.05, 0.05, 0.03)
        assert criterion_radius(spec, "expected") == 0.0
        assert leakage_floors(RateModel(spec), "expected") == jep_floors(RateModel(spec), 0.0)

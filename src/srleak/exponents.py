"""Leakage exponents and region queries.

The asymptotic normalized-leakage floor of the two-layer encrypted coding
scheme is governed by maximizations over the divergence ball
{Q : D(Q || P) <= alpha}:

* layer 1: max over the ball of {R(Q, D1) - r1}^+,
* both layers, inner bound: max of
  {R(Q, D1) - r1}^+ + {R(Q, R1, D1, D2) - R(Q, D1) - r2}^+,
* both layers, outer bound: max of {R(Q, R1, D1, D2) - r1 - r2}^+.

Under the expected-distortion reliability criterion the ball degenerates to
the point {P} and the same three clamped expressions apply.  ``RateModel``
defines them once and takes the radius per ball search, so one model serves
every query of a command; ``criterion_radius`` maps each criterion to its
radius.

For binary sources under Hamming distortion every inner quantity has a
closed form, so ball extremizations reduce to exact one-dimensional searches
over the Bernoulli parameter interval cut out by the divergence constraint.
General alphabets fall back to multi-start ascent inside the ball plus a
deterministic simplex grid.  Every search setting is a module constant sized
for solver-backed objectives, which cost milliseconds per evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import RateConditionError
from .probcore import (
    Distribution,
    DistortionMeasure,
    binary_entropy,
    binary_kl,
    kl_divergence,
    type_count_vectors,
)
from .rdsolver import RdSolution, is_binary_hamming, min_sum_rate, rd_function

Criterion = Literal["jep", "expected"]

VERDICT_INSIDE = "inside_inner"
VERDICT_BETWEEN = "between"
VERDICT_OUTSIDE = "outside_outer"

# ball search: points of the binary interval scan, random starts, ascent
# steps and simplex-grid denominator of the general search, and its seed
_SCAN_POINTS = 41
_STARTS = 6
_ASCENT_STEPS = 12
_GRID_RESOLUTION = 12
_SEED = 0
_GOLDEN_ITERS = 90

# Brent root of the binary ball boundary: scipy's default relative tolerance
# and iteration cap, so the roots match scipy.optimize.brentq bit for bit
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100

# plateau detection: the relative distance from the terminal value that
# counts as reached, and for alphabets beyond binary the log-spaced scan
# points and the bisection width on alpha
_PLATEAU_VALUE_EPS = 5e-13
_PLATEAU_SCAN_POINTS = 200
_PLATEAU_TOL = 1e-8


@dataclass(frozen=True)
class SystemSpec:
    """Full description of a two-layer cipher-coding operating point."""

    source: Distribution
    d1: DistortionMeasure
    d2: DistortionMeasure
    D1: float
    D2: float
    R1: float
    R2: float
    r1: float
    r2: float
    alpha: float

    def __post_init__(self) -> None:
        if self.d1.rows != self.source.alphabet_size or self.d2.rows != self.source.alphabet_size:
            raise ValueError("distortion matrices must match the source alphabet")
        scalars = (self.D1, self.D2, self.R1, self.R2, self.r1, self.r2, self.alpha)
        if not all(math.isfinite(v) for v in scalars):
            raise ValueError("distortion levels, rates and alpha must be finite")
        if not self.D2 < self.D1:
            raise ValueError("the refinement target D2 must be strictly below D1")
        if min(self.D2, self.R1, self.R2, self.r1, self.r2) < 0:
            raise ValueError("distortion levels and rates must be nonnegative")
        if self.alpha < 0:
            raise ValueError("the reliability exponent alpha must be nonnegative")
        if not self.source.full_support:
            raise ValueError("the source must have full support")

    @property
    def is_binary_hamming(self) -> bool:
        return is_binary_hamming(self.d1, self.d2)


@dataclass(frozen=True)
class RegionPoint:
    """A pair of normalized leakage budgets (bits per symbol)."""

    L1: float
    L2: float

    def __post_init__(self) -> None:
        if not (self.L1 >= 0 and self.L2 >= 0):
            raise ValueError("leakage budgets must be nonnegative")


@dataclass(frozen=True)
class RegionBoundary:
    lambda1: float
    lambda2_in: float
    lambda2_out: float
    matched: bool

    def __post_init__(self) -> None:
        if self.lambda2_out > self.lambda2_in + 1e-9:
            raise ValueError("outer-bound exponent cannot exceed the inner one")


@dataclass(frozen=True)
class BallOptimum:
    value: float
    argopt: Distribution


def _pos(x: float) -> float:
    return x if x > 0.0 else 0.0


# ---------------------------------------------------------------------------
# divergence-ball extremization
# ---------------------------------------------------------------------------


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in [xa, xb] by Brent's method, step for step scipy's brentq.c.

    The bracket bookkeeping, the interpolate/extrapolate steps and the
    tolerance delta = (xtol + rtol |x|) / 2 are those of
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)``, with signs compared as
    C's signbit does, so the roots are equal to scipy's bit for bit.  So is
    the error contract: a NaN function value or a bracket without a sign
    change raises ValueError, running out of iterations RuntimeError.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def negative(v: float) -> bool:
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def binary_ball_interval(p: float, alpha: float) -> tuple[float, float]:
    """The Bernoulli-parameter interval {q : D_b(q || p) <= alpha}.

    A side reaches its end of [0, 1] when alpha is at least the root
    function's own value there.  Otherwise its root lies within Pinsker's
    distance sqrt(alpha ln 2) of p, where D_b(q || p) >= 2 alpha: that
    bracket, clipped to [0, 1], changes sign and keeps Brent's method off
    the long flat stretch between a tiny ball and the far end of the side.
    """
    if alpha <= 0.0:
        return p, p

    def f(q: float) -> float:
        return binary_kl(q, p) - alpha

    # a bracket end whose computed value is not positive (a radius within
    # rounding of zero, or NaN) falls back on the whole side
    reach = math.sqrt(alpha * math.log(2.0))
    a, b = max(0.0, p - reach), min(1.0, p + reach)
    a = a if f(a) > 0.0 else 0.0
    b = b if f(b) > 0.0 else 1.0
    lo = 0.0 if alpha >= binary_kl(0.0, p) else _brentq(f, a, p, 1e-15)
    hi = 1.0 if alpha >= binary_kl(1.0, p) else _brentq(f, p, b, 1e-15)
    return float(lo), float(hi)


def _golden_refine(f: Callable[[float], float], lo: float, hi: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-15:
            break
    x = 0.5 * (a + b)
    return x, f(x)


def binary_ball_laws(p: float, alpha: float) -> tuple[Distribution, ...]:
    """The candidate laws of a binary ball search at radius alpha, in search order.

    The ends q_lo and q_hi of ``binary_ball_interval(p, alpha)``, the center
    p, and the entropy maximizer 1/2 clamped into [q_lo, q_hi]; the center
    alone when the interval is narrower than 1e-15.
    """
    q_lo, q_hi = binary_ball_interval(p, alpha)
    if q_hi - q_lo < 1e-15:
        return (Distribution.bernoulli(p),)
    return tuple(Distribution.bernoulli(q) for q in (q_lo, q_hi, p, min(max(0.5, q_lo), q_hi)))


def _binary_scan(
    p: Distribution,
    alpha: float,
    objective: Callable[[Distribution], float],
) -> tuple[tuple[Distribution, ...], Distribution, float]:
    """The binary ball's candidate laws, and the best law and value of a
    41-point scan plus golden refinement over their interval (none when
    the ball holds P alone)."""
    laws = binary_ball_laws(float(p.probs[1]), alpha)
    if len(laws) == 1:
        return laws, laws[0], -math.inf

    def f(qv: float) -> float:
        return objective(Distribution.bernoulli(qv))

    qs = np.linspace(float(laws[0].probs[1]), float(laws[1].probs[1]), _SCAN_POINTS)
    vals = [f(float(qv)) for qv in qs]
    k = int(np.argmax(vals))
    best_q, best_v = float(qs[k]), vals[k]
    a = float(qs[max(k - 1, 0)])
    b = float(qs[min(k + 1, _SCAN_POINTS - 1)])
    if b > a:
        xq, xv = _golden_refine(f, a, b)
        if xv > best_v:
            best_q, best_v = xq, xv
    return laws, Distribution.bernoulli(best_q), best_v


def _project_to_ball(q: np.ndarray, p: Distribution, alpha: float) -> np.ndarray:
    """Pull q toward p along the mixture line until it enters the ball.

    An 80-step bisection on the weight of p, with D(. || p) evaluated on the
    raw arrays against one precomputed log2 p.
    """
    qn = q / q.sum()
    log_p = np.log2(p.probs)
    mask = qn > 0
    if float((qn[mask] * (np.log2(qn[mask]) - log_p[mask])).sum()) <= alpha:
        return qn
    lo, hi = 0.0, 1.0  # weight on p; every mix with weight > 0 has full support
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        mix = (1.0 - mid) * qn + mid * p.probs
        if float((mix * (np.log2(mix) - log_p)).sum()) <= alpha:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * qn + hi * p.probs


def _ball_max_general(
    p: Distribution,
    alpha: float,
    objective: Callable[[Distribution], float],
) -> BallOptimum:
    best_q = p.probs.copy()
    best_v = objective(p)
    k = p.alphabet_size

    candidates: list[np.ndarray] = []
    if k <= 3:
        # every composition of the grid denominator, ascending lexicographic
        for g in type_count_vectors(_GRID_RESOLUTION, k)[::-1] / _GRID_RESOLUTION:
            gq = np.maximum(g, 1e-12)
            gq /= gq.sum()
            if kl_divergence(Distribution(gq), p) <= alpha:
                candidates.append(gq)
    rng = np.random.default_rng(_SEED)
    for _ in range(_STARTS):
        direction = rng.dirichlet(np.ones(k))
        candidates.append(_project_to_ball(0.5 * p.probs + 0.5 * direction, p, alpha))
    for i in range(k):
        vertex = np.full(k, 1e-9)
        vertex[i] = 1.0
        candidates.append(_project_to_ball(vertex / vertex.sum(), p, alpha))

    for q0 in candidates:
        v0 = objective(Distribution(q0))
        if v0 > best_v:
            best_q, best_v = q0, v0

    # finite-difference mirror ascent from the best candidate, projected back
    q = best_q.copy()
    step = 0.25
    for _ in range(_ASCENT_STEPS):
        base = objective(Distribution(q))
        grad = np.zeros(k)
        eps = 1e-6
        for i in range(k):
            bump = q.copy()
            bump[i] += eps
            bump /= bump.sum()
            grad[i] = (objective(Distribution(_project_to_ball(bump, p, alpha))) - base) / eps
        cand = q * np.exp(step * (grad - grad.max()))
        cand = _project_to_ball(cand / cand.sum(), p, alpha)
        cv = objective(Distribution(cand))
        if cv > base + 1e-14:
            q = cand
            if cv > best_v:
                best_q, best_v = cand, cv
            step = min(step * 1.5, 4.0)
        else:
            step *= 0.5
            if step < 1e-10:
                break
    return BallOptimum(best_v, Distribution(best_q))


def kl_ball_maximize(
    p: Distribution,
    alpha: float,
    objective: Callable[[Distribution], float],
    *,
    laws: tuple[Distribution, ...] | None = None,
) -> BallOptimum:
    """Maximize a scalar objective over {Q : D(Q || P) <= alpha}.

    ``laws`` are candidate laws known to hold the objective's maximum over
    the ball: they are scored in order, the first strictly greatest wins,
    and nothing else is evaluated.  For an objective monotone in the binary
    entropy, ``binary_ball_laws(P(1), alpha)`` is such a table.  Without
    them, binary alphabets use an interval search over the Bernoulli
    parameters of the ball, ``binary_ball_interval(P(1), alpha)``: a
    41-point scan plus golden-section refinement, then the candidate laws
    of ``binary_ball_laws(P(1), alpha)`` (the interval ends, P and the law
    nearest 1/2), scored in that order; an interval narrower than 1e-15
    scores P alone.  Larger alphabets use projected ascent from the best of
    six seeded random starts, the vertices pulled into the ball and, for
    ternary alphabets, the in-ball points of the denominator-12 simplex
    grid; the search is deterministic.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    if not p.full_support:
        raise ValueError("the ball center must have full support")
    if alpha == 0.0:
        return BallOptimum(objective(p), p)
    if laws is not None:
        best, best_v = laws[0], -math.inf
    elif p.alphabet_size == 2:
        laws, best, best_v = _binary_scan(p, alpha, objective)
    else:
        return _ball_max_general(p, alpha, objective)
    # a later law replaces the best only when strictly greater
    for law in laws:
        cv = objective(law)
        if cv > best_v:
            best, best_v = law, cv
    return BallOptimum(best_v, best)


def kl_ball_minimize(
    p: Distribution,
    alpha: float,
    objective: Callable[[Distribution], float],
    *,
    laws: tuple[Distribution, ...] | None = None,
) -> BallOptimum:
    """Minimize a scalar objective over the divergence ball (mirror of maximize)."""
    out = kl_ball_maximize(p, alpha, lambda q: -objective(q), laws=laws)
    return BallOptimum(-out.value, out.argopt)


# ---------------------------------------------------------------------------
# the rate model of an operating point
# ---------------------------------------------------------------------------


class RateModel:
    """R(Q, D1), R(Q, D2), the sum rate R(Q, R1, D1, D2) and the leakage objectives of a spec.

    A binary source under Hamming measures is successively refinable, so
    R(q, D) = h(q) - h(D) below D = min(q, 1 - q), else 0, and the sum rate
    is R(q, D2) once R1 reaches R(q, D1); such a closed-form model computes
    the two layer rates of each law once, from one h(q), and every objective
    reads them.  Any other spec calls the solvers, once per candidate law:
    the sum-rate solver reuses the model's R(Q, D1) and R(Q, D2) solutions.
    A closed-form model also keeps the candidate laws of the ball radius it
    last searched (``binary_ball_laws``) and passes them to the ball search,
    so every search in a run at one radius scores the same law objects.
    """

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        self.closed_form = spec.is_binary_hamming
        # layer -> (measure, level, h(level)); a level of 1/2 or more is never below
        # min(q, 1 - q), so its rate is 0 and its h (undefined above 1) is never read
        self._layers = {
            layer: (d, D, binary_entropy(D) if self.closed_form and D < 0.5 else None)
            for layer, d, D in ((1, spec.d1, spec.D1), (2, spec.d2, spec.D2))
        }
        self._rd: dict[tuple[bytes, int], RdSolution] = {}
        self._sum: dict[bytes, float] = {}
        # closed form: Bernoulli parameter -> (R(q, D1), R(q, D2))
        self._rates: dict[float, tuple[float, float]] = {}
        self._laws: dict[float, tuple[Distribution, ...]] = {}

    def _rd_solution(self, q: Distribution, layer: int) -> RdSolution:
        key = (q.probs.tobytes(), layer)
        if key not in self._rd:
            d, D, _ = self._layers[layer]
            self._rd[key] = rd_function(q, d, D)
        return self._rd[key]

    def _binary_rates(self, q: Distribution) -> tuple[float, float]:
        p = float(q.probs[1])
        rates = self._rates.get(p)
        if rates is None:
            m = min(p, 1.0 - p)
            # D2 < D1, so when D2 is not below m neither rate reads h(q)
            h = binary_entropy(p) if self.spec.D2 < m else 0.0
            rates = self._rates[p] = tuple(
                0.0 if D >= m else max(h - h_D, 0.0) for _, D, h_D in self._layers.values()
            )
        return rates

    def rd(self, q: Distribution, layer: int) -> float:
        """R(Q, D_layer) under the spec's measure for that layer."""
        if self.closed_form:
            return self._binary_rates(q)[layer - 1]
        return self._rd_solution(q, layer).value

    def sum_rate(self, q: Distribution) -> float:
        """Two-layer minimum sum rate; inf when R1 is below R(Q, D1)."""
        spec = self.spec
        if self.closed_form:
            rd1, rd2 = self._binary_rates(q)
            return math.inf if spec.R1 < rd1 - 1e-9 else rd2
        key = q.probs.tobytes()
        if key not in self._sum:
            self._sum[key] = min_sum_rate(q, spec.d1, spec.d2, spec.R1, spec.D1, spec.D2,
                                          _rd=lambda layer: self._rd_solution(q, layer)).value
        return self._sum[key]

    def m1(self, q: Distribution) -> float:
        return _pos(self.rd(q, 1) - self.spec.r1)

    def joint(self, q: Distribution) -> float:
        rd1 = self.rd(q, 1)
        return _pos(rd1 - self.spec.r1) + _pos(self.sum_rate(q) - rd1 - self.spec.r2)

    def joint_outer(self, q: Distribution) -> float:
        return _pos(self.sum_rate(q) - self.spec.r1 - self.spec.r2)

    def _ball_laws(self, alpha: float) -> tuple[Distribution, ...] | None:
        # closed-form rate objectives are monotone in the binary entropy, so the
        # ball's candidate laws hold every extremum; they are built once per run
        # of searches at one radius (a nonpositive or NaN radius never reaches
        # them).  Only the latest radius's table is kept: a sweep never returns
        # to a radius, and would otherwise hold all its tables until its model goes
        if not (self.closed_form and alpha > 0.0):
            return None
        if alpha not in self._laws:
            self._laws = {alpha: binary_ball_laws(float(self.spec.source.probs[1]), alpha)}
        return self._laws[alpha]

    def ball_search(self, objective: Callable[[Distribution], float], alpha: float) -> BallOptimum:
        return kl_ball_maximize(self.spec.source, alpha, objective, laws=self._ball_laws(alpha))

    def ball_max(self, objective: Callable[[Distribution], float], alpha: float) -> float:
        return self.ball_search(objective, alpha).value

    def ball_min(self, objective: Callable[[Distribution], float], alpha: float) -> float:
        return kl_ball_minimize(self.spec.source, alpha, objective, laws=self._ball_laws(alpha)).value

    def require_layer1_rate(self, alpha: float) -> None:
        """Raise unless R1 exceeds the ball maximum of R(Q, D1) at radius alpha."""
        ball_max = max_rd_over_ball(self, alpha)
        if not self.spec.R1 > ball_max - 1e-12:
            raise RateConditionError(
                f"layer-1 rate {self.spec.R1} must strictly exceed the ball maximum "
                f"of the rate-distortion function at radius {alpha:g} ({ball_max:.6f})"
            )


def max_rd_over_ball(model: RateModel, alpha: float) -> float:
    """Largest layer-1 rate-distortion value over the divergence ball."""
    return model.ball_max(lambda q: model.rd(q, 1), alpha)


def jep_floors(model: RateModel, alpha: float) -> tuple[float, float, float]:
    """The layer-1, joint inner and joint outer floors at radius alpha."""
    model.require_layer1_rate(alpha)
    return tuple(model.ball_max(f, alpha) for f in (model.m1, model.joint, model.joint_outer))


def leakage_exponent_m1(spec: SystemSpec) -> float:
    """Normalized maximal-leakage exponent of the first message.

    A one-shot call: it builds its own model, which no later call reuses.
    """
    model = RateModel(spec)
    return model.ball_max(model.m1, spec.alpha)


def criterion_radius(spec: SystemSpec, criterion: Criterion) -> float:
    """The divergence-ball radius of a reliability criterion.

    Joint excess-distortion probability uses the spec's alpha; expected
    distortion uses the ball of radius zero, the source itself.
    """
    if criterion == "jep":
        return spec.alpha
    if criterion == "expected":
        return 0.0
    raise ValueError(f"unknown criterion {criterion!r}")


def leakage_floors(model: RateModel, criterion: Criterion) -> tuple[float, float, float]:
    """The three leakage floors under a reliability criterion.

    Both criteria maximize the same objectives over the criterion's ball.
    Expected distortion also requires the strict two-layer sum-rate margin
    at P, checked after the layer-1 rate.
    """
    floors = jep_floors(model, criterion_radius(model.spec, criterion))
    if criterion == "expected":
        spec = model.spec
        total = model.sum_rate(spec.source)
        if not spec.R1 + spec.R2 > total - 1e-12:
            raise RateConditionError(
                f"sum rate {spec.R1 + spec.R2} must strictly exceed the two-layer minimum {total:.6f}"
            )
    return floors


def divergence_ball_cap(p: Distribution) -> float:
    """An alpha beyond which the divergence ball is the whole simplex."""
    return float(math.log2(1.0 / float(p.probs.min())) + 1e-9)


def leakage_plateau_thresholds(model: RateModel) -> tuple[float, float | None]:
    """Smallest alphas beyond which the two leakage exponents stop growing.

    Each exponent curve is nondecreasing in alpha and reaches its terminal
    value, the objective's maximum G over the whole simplex, once the ball
    holds a law whose objective is within a relative 5e-13 of G.
    For a binary source the onset is therefore the smallest D_b(q || p)
    over such laws q: one search over the whole interval [0, 1] gives G,
    and a bisection on q finds the nearest such law on each side of p
    (``_binary_plateau_onset``).  Under Hamming measures this is the
    divergence from the entropy maximizer, D_b(0.5 || p), to within the
    tolerance's resolution (laws about sqrt(5e-13) from 1/2 reach G),
    unless the curve is flat everywhere (0) or has a flat top (less).
    Larger alphabets scan the curve instead: 200 log-spaced radii, then a
    bisection to 1e-8 on alpha (``_plateau_onset``); the curves are flat
    (quadratic) at the onset, so that alpha resolution is roughly the
    square root of the 5e-13.
    The joint curve needs the layer-1 rate condition on every ball it
    visits.  It is checked once, at the cap radius whose ball is the whole
    simplex, and the joint threshold is None when it fails there.
    """
    cap = divergence_ball_cap(model.spec.source)

    def onset(objective: Callable[[Distribution], float]) -> float:
        if model.spec.source.alphabet_size == 2:
            return _binary_plateau_onset(model, objective, cap)
        return _plateau_onset(lambda a: model.ball_max(objective, a), cap)

    m1 = onset(model.m1)
    try:
        model.require_layer1_rate(cap)
    except RateConditionError:
        return m1, None
    return m1, onset(model.joint)


def _binary_plateau_onset(
    model: RateModel, objective: Callable[[Distribution], float], cap: float
) -> float:
    """Smallest radius whose ball holds a law within the plateau tolerance of G.

    G is the ball maximum at ``cap``, the whole interval [0, 1].  The laws
    that reach it are bracketed on each side of p: for a closed-form
    objective, nondecreasing in the binary entropy, they form an interval
    around 1/2, so the bracket is (p, 1/2); otherwise the brackets come
    from the 41-point grid of [0, 1] and the search's maximiser.  Each
    bracket is bisected on q to machine precision, and the smaller
    divergence of the reaching ends wins.
    """
    p = float(model.spec.source.probs[1])
    top = model.ball_search(objective, cap)
    floor = top.value - _PLATEAU_VALUE_EPS * max(1.0, abs(top.value))
    if model.ball_max(objective, 0.0) >= floor:
        return 0.0

    def reaches(q: float) -> bool:
        return objective(Distribution.bernoulli(q)) >= floor

    if model.closed_form:
        brackets = [(p, 0.5)]
    else:
        known = sorted({*np.linspace(0.0, 1.0, _SCAN_POINTS).tolist(), float(top.argopt.probs[1])})
        hits = [q for q in known if reaches(q)]
        brackets = []
        right = [q for q in hits if q > p]
        if right:
            hit = min(right)
            brackets.append((max([p] + [q for q in known if q < hit]), hit))
        left = [q for q in hits if q < p]
        if left:
            hit = max(left)
            brackets.append((min([p] + [q for q in known if q > hit]), hit))
    best = math.inf
    for miss, hit in brackets:
        if binary_kl(miss, p) >= best:
            continue  # every law of this bracket is farther from p than the best found
        while (mid := 0.5 * (miss + hit)) not in (miss, hit):
            if reaches(mid):
                hit = mid
            else:
                miss = mid
        best = min(best, binary_kl(hit, p))
    return best


def _plateau_onset(f: Callable[[float], float], cap: float) -> float:
    """Smallest radius where the nondecreasing curve f reaches its value at cap."""
    plateau = f(cap)
    eps = _PLATEAU_VALUE_EPS * max(1.0, abs(plateau))
    if f(0.0) >= plateau - eps:
        return 0.0
    alphas = np.logspace(math.log10(1e-6), math.log10(cap), _PLATEAU_SCAN_POINTS)
    hit = cap
    lo = 0.0
    for a in alphas:
        if f(float(a)) >= plateau - eps:
            hit = float(a)
            break
        lo = float(a)
    hi = hit
    while hi - lo > _PLATEAU_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) >= plateau - eps:
            hi = mid
        else:
            lo = mid
    return hi


def binary_plateau_alpha(p: float) -> float:
    """Closed-form plateau threshold for a Bernoulli(p) source, Hamming pair."""
    return binary_kl(0.5, p)


def region_boundary(model: RateModel, criterion: Criterion) -> RegionBoundary:
    """The two-threshold boundary of the achievable leakage region."""
    l1, l2_in, l2_out = leakage_floors(model, criterion)
    return RegionBoundary(l1, l2_in, l2_out, matched=abs(l2_in - l2_out) <= 1e-9)


def region_check(boundary: RegionBoundary, point: RegionPoint) -> str:
    """Classify a leakage pair against the inner and outer region bounds."""
    eps = 1e-12
    if point.L1 >= boundary.lambda1 - eps and point.L2 >= boundary.lambda2_in - eps:
        return VERDICT_INSIDE
    if point.L1 >= boundary.lambda1 - eps and point.L2 >= boundary.lambda2_out - eps:
        return VERDICT_BETWEEN
    return VERDICT_OUTSIDE


def partial_secrecy_holds(model: RateModel, alpha: float) -> bool:
    """True when the key rates are small enough that inner and outer bounds match.

    This requires, for every Q in the divergence ball of radius alpha,
    r1 <= R(Q, D1) and r2 <= R(Q, R1, D1, D2) - R(Q, D1).  The expected-
    distortion criterion checks the same conditions at P alone, radius zero.
    """
    return keys_within_thresholds(model.spec, key_rate_thresholds(model, alpha))


def keys_within_thresholds(spec: SystemSpec, thresholds: tuple[float, float]) -> bool:
    """True when both key rates are at most their matching thresholds."""
    return spec.r1 <= thresholds[0] + 1e-12 and spec.r2 <= thresholds[1] + 1e-12


def key_rate_thresholds(model: RateModel, alpha: float) -> tuple[float, float]:
    """Largest key rates for which the inner and outer regions coincide at radius alpha."""
    t1 = model.ball_min(lambda q: model.rd(q, 1), alpha)
    t2 = model.ball_min(lambda q: model.sum_rate(q) - model.rd(q, 1), alpha)
    return t1, t2

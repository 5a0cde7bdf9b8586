"""Rate-distortion optimization primitives.

Two convex programs over test channels:

* ``rd_function``: the rate-distortion function R(Q, D) as a certified
  bracket.  Each distortion multiplier (slope) beta is one convex solve
  over the output law: a few Blahut-Arimoto steps, then Newton steps on the
  support.  An Illinois secant on beta replaces any bisection and stops as
  soon as the two bounds meet: Blahut's lower bound, valid for any output
  law and slope, and the I(X; Y) of a channel whose average distortion is
  exactly D, the mix of the two channels that bracket D.  ``value`` is
  that upper bound, attained by the returned ``optimizer``; ``lower`` is
  the best lower bound; ``gap = value - lower``; status "converged" means
  the gap is at most 1e-9, "unconverged" that the search stopped first
  (iteration budget or multiplier resolution), and "boundary" that D is at
  or above the zero-rate distortion.
* ``min_sum_rate``: the smallest total description rate of a two-layer
  refinement code whose first layer is capped at R1 and whose two
  reconstructions meet distortion targets D1 and D2.  Solved by dual ascent
  on the three constraint multipliers with inner exponentiated-gradient
  (mirror-descent) steps on each conditional row, followed by an
  exact-penalty polish and a feasibility repair, so the reported value is
  always attained by the returned feasible channel.  Each candidate channel
  is evaluated once (``_SumRateProblem.evaluate_stack``: both rates, both
  distortions and the output marginals, from one x log x pass); the
  Lagrangian, the constraint violations, the gradient and the Frank-Wolfe
  gap all read that record.  The mirror steps and the polish share one
  backtracking line search (``_SumRateProblem.line_search``) that evaluates
  its step sizes as stacks of candidates, the first two together and the
  rest of the schedule in one more stack, and takes the first accepted one
  in schedule order; the repair bisection checks only feasibility, four of
  its steps per stack.  Every row is summed in its own memory order, so
  values, iteration counts and optimizers are those of the one-at-a-time
  loops, bit for bit.

A brute-force simplex-grid oracle (``min_sum_rate_oracle``) validates the
solver on tiny instances.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DimensionError
from .probcore import Distribution, DistortionMeasure, type_count_vectors

_LOG_FLOOR = 1e-300

# rd_function: certified bracket width, Blahut gap that ends one slope
# solve, Blahut-Arimoto warm-up steps, largest multiplier of the doubling
# search in units of one over the largest distortion, and iteration budget
_RD_TOL = 1e-9
_SLOPE_TOL = 1e-13
_BA_WARMUP = 12
_BETA_SPAN = 2.0**40
_RD_MAX_ITER = 10_000
# min_sum_rate: dual-ascent rounds, mirror steps per round, penalty-polish
# steps, total iteration budget, and the first mirror step size
_OUTER_ITERS = 220
_INNER_STEPS = 24
_POLISH_STEPS = 900
_SUM_MAX_ITER = 100_000
_MIRROR_ETA0 = 0.5
# min_sum_rate_oracle: grid channels it may search, grid rows per batch
_ORACLE_MAX_POINTS = 2e8
_ORACLE_CHUNK = 128


@dataclass
class RdSolution:
    """R(Q, D) bracketed: lower <= R(Q, D) <= value, gap = value - lower.

    ``value`` is the I(X; Y) of ``optimizer``, whose average distortion is
    at most D (to rounding); ``lower`` is Blahut's bound at the distortion
    multiplier ``s`` (inf for the zero-distortion solve).  ``status`` is
    "converged" when gap <= 1e-9, "unconverged" when the search stopped
    first, and "boundary" on the zero-rate branch.
    """

    value: float
    optimizer: np.ndarray
    status: str
    iterations: int
    gap: float
    lower: float
    s: float


@dataclass
class SumRateSolution:
    value: float
    optimizer: np.ndarray
    status: str
    iterations: int
    gap: float


def _xlog2x(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, a * np.log2(np.maximum(a, _LOG_FLOOR)), 0.0)


def _mutual_information(px: np.ndarray, w: np.ndarray) -> float:
    """I(X; Y) in bits for source px and channel rows w."""
    m = px @ w
    joint = px[:, None] * w
    return float(_xlog2x(joint).sum() - _xlog2x(px).sum() - _xlog2x(m).sum())


def _normalize_rows(w: np.ndarray) -> np.ndarray:
    """Each row (last axis) of w scaled to sum 1; a stack of channels row by row."""
    s = np.add.reduce(w, axis=-1, keepdims=True)
    return w / np.maximum(s, _LOG_FLOOR)


def _flat(a: np.ndarray) -> np.ndarray:
    """The stack a (..., r, c) with each r x c matrix flattened in its own memory order.

    ``ndarray.sum`` adds a C- or F-ordered matrix in memory order, so a sum
    along the last axis of the result equals that matrix's own sum bit for bit.
    """
    *lead, r, c = a.shape
    if r > 1 and c > 1 and a.strides[-2] < a.strides[-1]:
        a = a.swapaxes(-2, -1)
    return a.reshape(*lead, r * c)


# one solved multiplier: its average distortion and its channel on the support rows
_Point = namedtuple("_Point", "beta dist w")


def _psd_solve(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve h x = b for a small positive semidefinite h.

    An LDL^T elimination in numpy, not ``numpy.linalg``: the first LAPACK
    call maps about 0.8 MB of code, which every process's peak RSS would
    carry.  A pivot below 1e-12 of the largest diagonal entry marks a flat
    direction: one with a slope in b (above rounding) gets the floor as its
    pivot, a long step the caller's line search cuts at the boundary; one
    without a slope is left alone.
    """
    a = h.copy()
    y = b.copy()
    n = y.size
    floor = max(1e-12 * float(a.diagonal().max()), _LOG_FLOOR)
    for k in range(n):
        if a[k, k] <= floor:
            a[k, k] = floor
            if abs(y[k]) <= 1e-15:
                y[k] = 0.0
        col = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(col, a[k, k + 1:])
        y[k + 1:] -= col * y[k]
        a[k + 1:, k] = col
    x = y / a.diagonal()
    for k in range(n - 2, -1, -1):
        x[k] -= a[k + 1:, k] @ x[k + 1:]
    return x


def _slope_solve(
    qs: np.ndarray,
    kern: np.ndarray,
    r: np.ndarray,
    warmup: int,
    budget: int,
) -> tuple[np.ndarray, float, float, int]:
    """Minimise F(r) = -sum_x q(x) log2 (kern @ r)(x) over output laws r.

    With c(y) = sum_x q(x) kern(x, y) / (kern @ r)(x), the negative
    gradient of F in nats, Blahut-Arimoto steps r <- r c pick the support;
    Newton steps then solve the KKT system on it.  A step that drives a
    letter to zero drops it, and a letter off the support whose c(y)
    exceeds the support's joins it.  Every move lowers F, except a full
    Newton step once F is flat to rounding.  Stops
    once Blahut's gap log2 max_y c(y), an upper bound on F(r) - min F, is
    at most ``_SLOPE_TOL``, or when ``budget`` steps are spent.  Returns
    (r, F(r) in bits, gap, steps).
    """
    def nats(x: np.ndarray) -> float:  # F(x) in nats, inf off its domain
        vx = kern @ x
        return -float(qs @ np.log(vx)) if vx.min() > 0 else math.inf

    steps = 0
    for _ in range(min(warmup, budget)):
        r = r * ((qs / (kern @ r)) @ kern)
        r /= r.sum()
        steps += 1
    r = np.where(r > 1e-12 * r.max(), r, 0.0)
    r /= r.sum()
    while True:
        v = kern @ r
        c = (qs / v) @ kern
        gap = math.log2(c.max())
        if gap <= _SLOPE_TOL or steps >= budget:
            break
        steps += 1
        f = -float(qs @ np.log(v))
        on = r > 0
        off = np.flatnonzero(~on)
        join = -1
        if off.size and c[off].max() > c[on].max():
            # the best letter off the support joins the Newton step
            join = int(off[c[off].argmax()])
            on[join] = True
        idx = np.flatnonzero(on)
        a = kern[:, idx]
        h = ((a * (qs / (v * v))[:, None])[:, :, None] * a[:, None, :]).sum(axis=0)
        # Newton step in the plane sum(step) = 0: the Hessian and gradient
        # projected on it, plus the all-ones direction at the Hessian's scale
        h -= h.sum(axis=0) / idx.size
        h -= h.sum(axis=1, keepdims=True) / idx.size
        h += np.trace(h) / idx.size**2
        step = _psd_solve(h, c[idx] - c[idx].sum() / idx.size)
        if join >= 0 and step[np.count_nonzero(on[:join])] <= 0:
            # the Newton model keeps it out: it joins at the mass of one
            # Newton step on F((1 - e) r + e 1_y), halved until F drops
            e = min(0.5, (c[join] - 1.0) / float(qs @ ((kern[:, join] - v) / v) ** 2))
            while e > 1e-15:
                cand = (1.0 - e) * r
                cand[join] += e
                if nats(cand) < f:
                    r = cand
                    break
                e *= 0.5
            continue
        decrement = float(c[idx] @ step)
        neg = step < 0
        ratio = np.where(neg, -1.0 * r[idx] / np.where(neg, step, -1.0), math.inf)
        reach = float(ratio.min())

        def moved(t: float) -> np.ndarray:
            x = r.copy()
            x[idx] += t * step
            if t == reach:  # the blocking letters leave the support
                x[idx[ratio <= reach]] = 0.0
            return np.maximum(x, 0.0)

        new = None
        if reach >= 1.0 and decrement < 1e-12:
            new = moved(1.0)  # quadratic convergence: F is flat to rounding here
        else:
            # Armijo backtracking; a step blocked by the boundary also tries
            # stopping halfway, and keeps whichever lowers F more
            t = min(1.0, reach)
            while new is None and t >= 1e-12:
                trials = [moved(t)] + ([moved(0.5 * t)] if t == reach else [])
                fs = [nats(x) for x in trials]
                k = int(np.argmin(fs))
                if fs[k] <= f - 1e-4 * t * (0.5 if k else 1.0) * decrement:
                    new = trials[k]
                t *= 0.5
        # otherwise one Blahut-Arimoto step, which never increases F
        r = r * c if new is None else new
        r /= r.sum()
    f = -float(qs @ np.log2(v))
    return r, f, gap, steps


def _channel(kern: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The test channel W(y | x) = r(y) kern(x, y) / (kern @ r)(x)."""
    return _normalize_rows(kern * r[None, :])


def _full_channel(keep: np.ndarray, dmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The channel on every source letter: zero-mass letters go to a zero-distortion output."""
    if keep.all():
        return w
    full = np.zeros_like(dmat)
    full[keep] = w
    absent = np.flatnonzero(~keep)
    full[absent, dmat[absent].argmin(axis=1)] = 1.0
    return full


def _certified(value: float, lower: float) -> str:
    return "converged" if value - lower <= _RD_TOL else "unconverged"


def _rd_zero_distortion(qs: np.ndarray, dm: np.ndarray) -> tuple[float, float, np.ndarray, int]:
    """R(Q, 0) from the slope solve with the indicator kernel 1[d = 0], the beta -> inf limit.

    Returns (value, lower, channel, iterations); the channel has zero
    distortion, and lower is Blahut's bound F(r) - log2 max_y c(y).
    """
    kern = (dm <= 0).astype(np.float64)
    r0 = np.full(dm.shape[1], 1.0 / dm.shape[1])
    r, f, gap, it = _slope_solve(qs, kern, r0, _BA_WARMUP, _RD_MAX_ITER)
    w = _channel(kern, r)
    return max(_mutual_information(qs, w), 0.0), f - gap, w, it


def rd_function(
    q: Distribution,
    d: DistortionMeasure,
    D: float,
) -> RdSolution:
    """Rate-distortion function R(Q, D) in bits, as a certified bracket.

    Each distortion multiplier beta is one convex solve (``_slope_solve``);
    its Blahut bound F_beta(r) - log2 max_y c(y) - beta D is a lower bound
    on R(Q, D) for any output law r.  An Illinois secant on beta, started
    from a doubling search, brackets D between the distortions of two
    solved channels; their mix with average distortion exactly D is
    feasible, and its I(X; Y) is the upper bound.  The search stops once
    the upper bound is within ``_RD_TOL`` of the best lower bound.  Levels
    up to 1e-14 are solved as D = 0, and levels at or above the zero-rate
    distortion return the single-output channel with status "boundary".
    """
    if d.rows != q.alphabet_size:
        raise DimensionError("rd_function: source alphabet does not match distortion rows")
    if not D >= 0:
        raise ValueError("rd_function: distortion level must be a nonnegative number")
    keep = q.probs > 0
    qs = q.probs[keep]
    dm = d.matrix[keep]

    if D <= 1e-14:
        value, lower, w, it = _rd_zero_distortion(qs, dm)
        status = _certified(value, lower)
        return RdSolution(value, _full_channel(keep, d.matrix, w), status, it,
                          value - lower, lower, math.inf)

    col_dist = qs @ dm
    d_max = float(col_dist.min())
    zero_rate = np.zeros_like(dm)
    zero_rate[:, int(col_dist.argmin())] = 1.0
    if D >= d_max - 1e-14:
        return RdSolution(0.0, _full_channel(keep, d.matrix, zero_rate), "boundary", 0,
                          0.0, 0.0, 0.0)

    # lo and hi bracket D from above and below; beta = 0 is the zero-rate end
    lo, hi = _Point(0.0, d_max, zero_rate), None
    g_lo = g_hi = 0.0
    last = ""
    lower, s = 0.0, 0.0
    value, best = math.inf, zero_rate
    r = np.full(dm.shape[1], 1.0 / dm.shape[1])
    warmup = _BA_WARMUP
    beta = beta0 = 1.0 / float(dm.max())
    it = 0
    while it < _RD_MAX_ITER:
        kern = np.exp2(-beta * dm)
        r, f, gap, used = _slope_solve(qs, kern, r, warmup, _RD_MAX_ITER - it)
        warmup = 0
        it += used
        if f - gap - beta * D > lower:
            lower, s = f - gap - beta * D, beta
        w = _channel(kern, r)
        pt = _Point(beta, float((qs[:, None] * w * dm).sum()), w)
        # Illinois: an end kept twice in a row has its log-distortion halved
        g = math.log(max(pt.dist, _LOG_FLOOR) / D)
        if pt.dist > D:
            lo, g_lo = pt, g
            if last == "lo":
                g_hi *= 0.5
            last = "lo"
        else:
            hi, g_hi = pt, g
            if last == "hi":
                g_lo *= 0.5
            last = "hi"
        if hi is None:
            if beta >= _BETA_SPAN * beta0:
                break
            beta *= 2.0
            continue
        # the chord between the bracketing channels meets E d = D
        t = (lo.dist - D) / (lo.dist - hi.dist)
        mix = (1.0 - t) * lo.w + t * hi.w
        mix_rate = _mutual_information(qs, mix)
        if mix_rate < value:
            value, best = mix_rate, mix
        if value - lower <= _RD_TOL or hi.beta - lo.beta <= 1e-15 * hi.beta:
            break
        beta = (lo.beta * g_hi - hi.beta * g_lo) / (g_hi - g_lo)
        if not lo.beta < beta < hi.beta:
            beta = 0.5 * (lo.beta + hi.beta)

    if hi is None:
        # the multiplier cap was reached above D: fall back on the zero-distortion channel
        _, _, w0, used = _rd_zero_distortion(qs, dm)
        it += used
        t = (lo.dist - D) / lo.dist
        best = (1.0 - t) * lo.w + t * w0
        value = _mutual_information(qs, best)
    value = max(value, 0.0)
    status = _certified(value, lower)
    return RdSolution(value, _full_channel(keep, d.matrix, best), status, it,
                      value - lower, lower, s)


_HAMMING2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def is_binary_hamming(d1: DistortionMeasure, d2: DistortionMeasure) -> bool:
    """True when both layers use the binary Hamming measure (so the source is binary)."""
    return np.array_equal(d1.matrix, _HAMMING2) and np.array_equal(d2.matrix, _HAMMING2)


# ---------------------------------------------------------------------------
# two-layer sum-rate program
# ---------------------------------------------------------------------------


# one evaluated channel: the solver reads both rates, both distortions and the marginals from it
_Eval = namedtuple("_Eval", "w i_joint i1 ed1 ed2 m wa ma")

# the line search evaluates its first two step sizes as one stack (accepted
# steps almost always take one of them) and the rest of its schedule as another
_SEARCH_HEAD = 2
# the repair bisection checks this many of its steps as one stack of 2^levels - 1 channels
_BISECT_LEVELS = 4


class _SumRateProblem:
    """Workspace for min I(X; Y1, Y2) under two distortion caps and a layer-1 rate cap."""

    def __init__(self, q: Distribution, d1: DistortionMeasure, d2: DistortionMeasure,
                 R1: float, D1: float, D2: float) -> None:
        if d1.rows != q.alphabet_size or d2.rows != q.alphabet_size:
            raise DimensionError("min_sum_rate: distortion rows must match the source alphabet")
        self.px = q.probs
        self.kx = q.alphabet_size
        self.ka = d1.cols
        self.kb = d2.cols
        self.cells = self.ka * self.kb
        # per-cell distortion tables, cell index = a * kb + b
        self.d1c = np.repeat(d1.matrix, self.kb, axis=1)
        self.d2c = np.tile(d2.matrix, (1, self.ka))
        self.dc = np.stack((self.d1c, self.d2c))
        self.R1 = R1
        self.D1 = D1
        self.D2 = D2
        self.h_px = float(_xlog2x(self.px).sum())

    def _constraint_parts(self, ws: np.ndarray):
        """The joint laws, layer-1 channels and output laws, and both distortions, of a stack."""
        px = self.px
        joint = px[:, None] * ws
        wa = np.add.reduce(ws.reshape(len(ws), self.kx, self.ka, self.kb), axis=3)
        ed1, ed2 = np.add.reduce(_flat(joint[:, None] * self.dc), axis=2).T.tolist()
        return joint, wa, px @ wa, ed1, ed2

    def _rates(self, t: np.ndarray, cut: int) -> list[float]:
        """I(X; Y) of each row of t: x log x terms of a joint law up to ``cut``, then of its output law."""
        h = self.h_px
        return [s - h - s_out for s, s_out in zip(np.add.reduce(t[:, :cut], axis=1).tolist(),
                                                  np.add.reduce(t[:, cut:], axis=1).tolist())]

    def evaluate_stack(self, ws: np.ndarray) -> list[_Eval]:
        """Every quantity the solver reads, for each channel of a (B, kx, cells) stack.

        One x log x pass over all four laws.  Each row sum adds one channel's
        terms in that channel's memory order, so row k equals
        ``evaluate(ws[k])`` and the sum of each term on its own, bit for bit.
        """
        joint, wa, ma, ed1, ed2 = self._constraint_parts(ws)
        m = self.px @ ws
        t = _xlog2x(np.concatenate((_flat(joint), m, _flat(self.px[:, None] * wa), ma), axis=1))
        split = (self.kx + 1) * self.cells
        i_joint = self._rates(t[:, :split], self.kx * self.cells)
        i1 = self._rates(t[:, split:], self.kx * self.ka)
        return [_Eval(*row) for row in zip(ws, i_joint, i1, ed1, ed2, m, wa, ma)]

    def evaluate(self, w: np.ndarray) -> _Eval:
        return self.evaluate_stack(w[None])[0]

    def feasible(self, ws: np.ndarray, tol: float) -> list[bool]:
        """``all(violations(evaluate(w)) <= tol)`` for each channel w of a stack, without I(X; Y1 Y2)."""
        _, wa, ma, ed1, ed2 = self._constraint_parts(ws)
        i1 = self._rates(_xlog2x(np.concatenate((_flat(self.px[:, None] * wa), ma), axis=1)),
                         self.kx * self.ka)
        return [e1 - self.D1 <= tol and e2 - self.D2 <= tol and r - self.R1 <= tol
                for e1, e2, r in zip(ed1, ed2, i1)]

    def bisect_feasible(self, w: np.ndarray, w_feas: np.ndarray, tol: float, steps: int) -> float:
        """The end ``hi`` of a bisection on the weight t of (1 - t) w + t w_feas, started from [0, 1].

        Each step halves [lo, hi] and keeps the half whose ``hi`` end is
        feasible.  ``_BISECT_LEVELS`` steps at a time are checked as one
        stack: every midpoint those steps can reach, in heap order (node i
        has the halves 2i + 1 below and 2i + 2 above its midpoint).
        """
        lo, hi = 0.0, 1.0
        while steps > 0:
            levels = min(_BISECT_LEVELS, steps)
            mids, ends = [], [(lo, hi)]
            for _ in range(levels):
                halves = []
                for a, b in ends:
                    mid = 0.5 * (a + b)
                    mids.append(mid)
                    halves += [(a, mid), (mid, b)]
                ends = halves
            t = np.array(mids)[:, None, None]
            ok = self.feasible((1.0 - t) * w + t * w_feas, tol)
            node = 0
            for _ in range(levels):
                if ok[node]:
                    hi, node = mids[node], 2 * node + 1
                else:
                    lo, node = mids[node], 2 * node + 2
            steps -= levels
        return hi

    def violations(self, ev: _Eval) -> np.ndarray:
        return np.array([ev.ed1 - self.D1, ev.ed2 - self.D2, ev.i1 - self.R1])

    def lagrangian(self, ev: _Eval, lam: np.ndarray) -> float:
        return ev.i_joint + lam[0] * ev.ed1 + lam[1] * ev.ed2 + lam[2] * ev.i1

    def grad_scaled(self, ev: _Eval, lam: np.ndarray) -> np.ndarray:
        """Gradient of the Lagrangian divided by the row weights px."""
        g = np.log2(np.maximum(ev.w, _LOG_FLOOR)) - np.log2(np.maximum(ev.m, _LOG_FLOOR))[None, :]
        ga = np.log2(np.maximum(ev.wa, _LOG_FLOOR)) - np.log2(np.maximum(ev.ma, _LOG_FLOOR))[None, :]
        g = g + lam[2] * np.repeat(ga, self.kb, axis=1)
        g = g + lam[0] * self.d1c + lam[1] * self.d2c
        return g

    def fw_gap(self, ev: _Eval, lam: np.ndarray) -> float:
        """Frank-Wolfe gap of the Lagrangian at ev.w; certifies a dual lower bound."""
        g = self.grad_scaled(ev, lam)
        per_row = (g * ev.w).sum(axis=1) - g.min(axis=1)
        return float((self.px * per_row).sum())

    def line_search(self, ev: _Eval, g: np.ndarray, eta: float, tries: int, eta_min: float,
                    accept: Callable[[_Eval], bool]) -> tuple[_Eval | None, float, int]:
        """The first exponentiated-gradient step from ev.w that ``accept`` takes.

        The step sizes are those of a loop that halves eta after each
        rejected step: eta, eta/2, ... for at most ``tries`` steps, ending
        before a size below ``eta_min``.  They are evaluated as two stacks,
        the first ``_SEARCH_HEAD`` sizes and then the rest, and the first
        step accepted in schedule order wins.  Returns (the accepted
        evaluation or None, its step size, the steps that loop would have
        evaluated).
        """
        def halvings():
            e = eta
            for _ in range(tries):
                yield e
                e *= 0.5
                if e < eta_min:
                    return

        schedule = halvings()
        start = 0
        for size in (_SEARCH_HEAD, tries):
            chunk = list(itertools.islice(schedule, size))
            if not chunk:
                break
            neg = np.array([-e for e in chunk])[:, None, None]
            for k, cand in enumerate(self.evaluate_stack(_normalize_rows(ev.w * np.exp2(neg * g)))):
                if accept(cand):
                    return cand, chunk[k], start + k + 1
            start += len(chunk)
        return None, 0.0, start

    def mirror_steps(self, ev: _Eval, lam: np.ndarray, steps: int) -> tuple[_Eval, int]:
        """Backtracking exponentiated-gradient descent on the Lagrangian."""
        f = self.lagrangian(ev, lam)
        eta = _MIRROR_ETA0
        used = 0
        for _ in range(steps):
            g = self.grad_scaled(ev, lam)
            g = g - g.min(axis=1, keepdims=True)
            cand, eta, tried = self.line_search(ev, g, eta, 30, 1e-14,
                                                lambda c: self.lagrangian(c, lam) <= f - 1e-15)
            used += tried
            if cand is None:
                break
            ev, f = cand, self.lagrangian(cand, lam)
            eta = min(eta * 1.6, 64.0)
        return ev, used


def _binary_hamming_markov_start(px: np.ndarray, D1: float, D2: float) -> np.ndarray | None:
    """Two-layer test channel achieving both layer rates for a binary source.

    Builds the chain Y1 -> Y2 -> X with independent flips: Y1 ~ Bern(pi1),
    Y2 = Y1 xor Bern(xi), X = Y2 xor Bern(D2).  Both (X, Y1) and (X, Y2) are
    then the one-shot optimal test channels at D1 and D2, so the start is
    feasible even when the layer-1 cap is tight.
    """
    p = float(px[1])
    if not (0.0 < D2 <= D1 < min(p, 1.0 - p)) or D2 >= 0.5:
        return None
    pi1 = (p - D1) / (1.0 - 2.0 * D1)
    xi = (D1 - D2) / (1.0 - 2.0 * D2)
    if not (0.0 < pi1 < 1.0 and 0.0 <= xi < 0.5):
        return None
    pa = np.array([1.0 - pi1, pi1])
    bsc = lambda e: np.array([[1.0 - e, e], [e, 1.0 - e]])
    joint = pa[:, None, None] * bsc(xi)[:, :, None] * bsc(D2)[None, :, :]  # (a, b, x)
    w = joint.transpose(2, 0, 1) / px[:, None, None]
    return w.reshape(2, 4)


def min_sum_rate(
    q: Distribution,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    R1: float,
    D1: float,
    D2: float,
    *,
    _rd: Callable[[int], RdSolution] | None = None,
) -> SumRateSolution:
    """Minimum sum rate of a two-layer refinement code, in bits.

    Minimizes I(X; Y1, Y2) over joint test channels subject to
    E[d1(X, Y1)] <= D1, E[d2(X, Y2)] <= D2 and I(X; Y1) <= R1.  Returns an
    infeasible sentinel (value = inf) when the layer-1 cap is below the
    rate-distortion function at D1, since the constraint set is then empty.
    ``_rd(layer)``, internal, returns ``rd_function`` at that layer's
    measure and level: ``RateModel`` hands in the solutions it keeps.
    """
    if not (D1 >= 0 and D2 >= 0):
        raise ValueError("min_sum_rate: distortion levels must be nonnegative numbers")
    if not R1 >= 0:
        raise ValueError("min_sum_rate: rate cap must be a nonnegative number")
    prob = _SumRateProblem(q, d1, d2, R1, D1, D2)
    px = prob.px

    if _rd is None:
        _rd = lambda layer: rd_function(q, d1, D1) if layer == 1 else rd_function(q, d2, D2)
    rd1 = _rd(1)
    if R1 < rd1.lower - 1e-9:
        empty = np.zeros((prob.kx, prob.cells))
        return SumRateSolution(math.inf, empty, "infeasible", rd1.iterations, math.inf)

    # zero-rate fast path: one reconstruction pair satisfies both caps
    col1 = px @ d1.matrix
    col2 = px @ d2.matrix
    if col1.min() <= D1 + 1e-14 and col2.min() <= D2 + 1e-14:
        w = np.zeros((prob.kx, prob.cells))
        w[:, int(col1.argmin()) * prob.kb + int(col2.argmin())] = 1.0
        return SumRateSolution(0.0, w, "boundary", 0, 0.0)

    # feasible product reference: layer-1 RD channel times layer-2 RD channel
    rd2 = _rd(2)
    w_feas = np.einsum("xa,xb->xab", rd1.optimizer, rd2.optimizer).reshape(prob.kx, prob.cells)
    w_feas = _normalize_rows(np.maximum(w_feas, 1e-30))

    feas_tol = 1e-9
    ev_feas = prob.evaluate(w_feas)
    feas_ok = bool(np.all(prob.violations(ev_feas) <= feas_tol))

    def repaired(ev: _Eval) -> _Eval | None:
        if np.all(prob.violations(ev) <= feas_tol):
            return ev
        if not feas_ok:
            return None
        hi = prob.bisect_feasible(ev.w, w_feas, feas_tol, 60)
        return prob.evaluate((1.0 - hi) * ev.w + hi * w_feas)

    best_value = math.inf
    best_w = w_feas

    def offer(ev: _Eval) -> None:
        nonlocal best_value, best_w
        r = repaired(ev)
        if r is not None and r.i_joint < best_value:
            best_value, best_w = r.i_joint, r.w

    binary = is_binary_hamming(d1, d2) and q.full_support
    w = _binary_hamming_markov_start(px, D1, D2) if binary else None
    if w is None:
        w = w_feas
    ev = prob.evaluate(_normalize_rows(np.maximum(w, 1e-12)))
    offer(ev_feas)
    offer(ev)

    lam = np.zeros(3)
    phi_best = -math.inf
    total = 0
    prev_phi = -math.inf
    stall = 0
    for t in range(1, _OUTER_ITERS + 1):
        ev, used = prob.mirror_steps(ev, lam, _INNER_STEPS)
        total += used
        viol = prob.violations(ev)
        phi = prob.lagrangian(ev, lam) - prob.fw_gap(ev, lam) - float(
            lam[0] * D1 + lam[1] * D2 + lam[2] * R1
        )
        phi_best = max(phi_best, phi)
        if t % 8 == 0:
            offer(ev)
        step = 2.0 / math.sqrt(t)
        lam = np.maximum(lam + step * viol, 0.0)
        if abs(phi - prev_phi) < 1e-9:
            stall += 1
            if stall > 20 and t > 60:
                break
        else:
            stall = 0
        prev_phi = phi
        if total > _SUM_MAX_ITER:
            break

    # exact-penalty polish from the dual iterate
    rho = float(max(10.0, 4.0 * lam.max() + 4.0))

    def f_pen(ev: _Eval) -> float:
        return ev.i_joint + rho * float(np.maximum(prob.violations(ev), 0.0).sum())

    def grad_pen(ev: _Eval) -> np.ndarray:
        lam_eff = rho * (prob.violations(ev) > 0).astype(np.float64)
        return prob.grad_scaled(ev, lam_eff)

    f = f_pen(ev)
    eta = 0.25
    for _ in range(_POLISH_STEPS):
        g = grad_pen(ev)
        g = g - g.min(axis=1, keepdims=True)
        cand, eta, tried = prob.line_search(ev, g, eta, 25, 1e-13, lambda c: f_pen(c) < f - 1e-15)
        total += tried
        if cand is None:
            break
        ev, f = cand, f_pen(cand)
        eta = min(eta * 1.5, 32.0)
        if total % 40 == 0:
            offer(ev)
        if total > _SUM_MAX_ITER:
            break

    offer(ev)

    gap = best_value - phi_best if math.isfinite(phi_best) else math.inf
    status = "converged" if gap <= 1e-5 or best_value <= 1e-9 else "boundary"
    return SumRateSolution(float(max(best_value, 0.0)), best_w, status, total, float(max(gap, 0.0)))


def min_sum_rate_oracle(
    q: Distribution,
    d1: DistortionMeasure,
    d2: DistortionMeasure,
    R1: float,
    D1: float,
    D2: float,
    grid: int = 20,
) -> float:
    """Brute-force upper bound on ``min_sum_rate`` over a simplex grid.

    Every conditional row is restricted to the grid with the given
    denominator; the minimum objective among feasible grid channels is
    returned (inf when none is feasible).  Only binary sources with at most
    three reconstruction letters per layer are supported; a combinatorial
    guard refuses anything larger.
    """
    if q.alphabet_size != 2 or d1.cols > 3 or d2.cols > 3:
        raise CapExceededError("oracle only supports binary sources and at most 3 reconstructions")
    if grid > 24:
        raise CapExceededError("oracle only supports grid denominators up to 24")
    if d1.rows != q.alphabet_size or d2.rows != q.alphabet_size:
        raise DimensionError("min_sum_rate_oracle: distortion rows must match the source")
    kx, ka, kb = q.alphabet_size, d1.cols, d2.cols
    cells = ka * kb
    # every conditional row on the grid, lexicographically descending
    rows = type_count_vectors(grid, cells) / grid
    m_rows = rows.shape[0]
    if float(m_rows) ** kx > _ORACLE_MAX_POINTS:
        raise CapExceededError(
            f"{m_rows}^{kx} grid channels exceed the oracle cap of {_ORACLE_MAX_POINTS:g}"
        )
    px = q.probs
    d1c = np.repeat(d1.matrix, kb, axis=1)
    d2c = np.tile(d2.matrix, (1, ka))

    h_rows = -_xlog2x(rows).sum(axis=1)
    rows_a = rows.reshape(m_rows, ka, kb).sum(axis=2)
    h_rows_a = -_xlog2x(rows_a).sum(axis=1)
    ed1_rows = rows @ d1c.T  # (m, kx)
    ed2_rows = rows @ d2c.T
    skip_i1 = R1 >= math.log2(ka) - 1e-12

    best = math.inf
    for start in range(0, m_rows, _ORACLE_CHUNK):
        sl = slice(start, min(start + _ORACLE_CHUNK, m_rows))
        r0 = rows[sl]
        ed1 = px[0] * ed1_rows[sl, 0][:, None] + px[1] * ed1_rows[:, 1][None, :]
        ed2 = px[0] * ed2_rows[sl, 0][:, None] + px[1] * ed2_rows[:, 1][None, :]
        mask = (ed1 <= D1 + 1e-12) & (ed2 <= D2 + 1e-12)
        if not mask.any():
            continue
        m = px[0] * r0[:, None, :] + px[1] * rows[None, :, :]
        hm = -_xlog2x(m).sum(axis=2)
        obj = hm - (px[0] * h_rows[sl][:, None] + px[1] * h_rows[None, :])
        if not skip_i1:
            ma = px[0] * rows_a[sl][:, None, :] + px[1] * rows_a[None, :, :]
            hma = -_xlog2x(ma).sum(axis=2)
            i1 = hma - (px[0] * h_rows_a[sl][:, None] + px[1] * h_rows_a[None, :])
            mask &= i1 <= R1 + 1e-12
        if mask.any():
            best = min(best, float(obj[mask].min()))
    return best

"""Independent reference values and output checks for the benchmark.

Nothing here imports srleak.  The references are closed forms:

* binary source, Hamming measures: R(p, D) = h(p) - h(D) for D < min(p, 1-p),
  the divergence ball is a Bernoulli-parameter interval, and every leakage
  objective is nondecreasing in h(q), so each ball maximum sits at the
  interval point closest to 1/2 and each minimum at the far end;
* K-ary source, Hamming measures, D <= (K-1) * p_min: R(Q, D) =
  H(Q) - h(D) - D log2(K-1), and the ball's entropy maximiser lies on the
  tilted family Q ~ P^s, s in [0, 1];
* Hamming sources are successively refinable (Equitz and Cover 1991), so
  the two-layer minimum sum rate equals R(Q, D2) whenever R1 >= R(Q, D1);
* the exact error probability of the built code is the source mass of the
  types outside the widened ball.

A check returns a list of ``Failure``.  A failure whose kind is listed in
``KNOWN_DEFECTS`` still counts against the operation, but it does not make
the run incorrect: it is a wrong number the repository already documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

SUM_RATE = "sum_rate_above_refinable"
KNOWN_DEFECTS = {
    SUM_RATE: "min_sum_rate exceeds R(Q, D2) although R1 >= R(Q, D1) (ROADMAP item 2)",
}

RATE_TOL = 1e-6       # rd_function against a closed form
SUM_TOL = 1e-4        # min_sum_rate against R(Q, D2); the defect is ~0.1 bit
BALL_TOL = 1e-7       # binary ball search against the exact interval optimum
SOLVER_BALL_TOL = 1e-3  # coarse general-alphabet ball search may fall short
PLATEAU_TOL = 1e-4    # plateau onset is resolved to ~sqrt(5e-13) in alpha
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str

    @property
    def known(self) -> bool:
        return self.kind in KNOWN_DEFECTS


def _fail(out: list, kind: str, message: str) -> None:
    out.append(Failure(kind, message))


def _close(out: list, name: str, got, want: float, tol: float) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        _fail(out, "value", f"{name}: got {got!r}, want {want!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy(q) -> float:
    return -sum(x * math.log2(x) for x in q if x > 0.0)


def kl(q, p) -> float:
    return sum(a * math.log2(a / b) for a, b in zip(q, p) if a > 0.0)


def bkl(q: float, p: float) -> float:
    return kl((1.0 - q, q), (1.0 - p, p))


def rd_hamming(q, D: float) -> float:
    """R(Q, D) under Hamming distortion, valid for D <= (K-1) * min(Q)."""
    k = len(q)
    if D >= 1.0 - max(q):
        return 0.0
    return max(entropy(q) - h2(D) - D * math.log2(k - 1), 0.0)


def pos(x: float) -> float:
    return x if x > 0.0 else 0.0


# ---------------------------------------------------------------------------
# binary Hamming exponents
# ---------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of a function that is positive at lo and nonpositive at hi."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def ball_interval(p: float, alpha: float) -> tuple[float, float]:
    """{q : D_b(q || p) <= alpha} as an interval of Bernoulli parameters."""
    if alpha <= 0.0:
        return p, p
    lo = 0.0 if bkl(0.0, p) <= alpha else _bisect(lambda q: bkl(q, p) - alpha, 0.0, p)
    hi = 1.0 if bkl(1.0, p) <= alpha else 1.0 - _bisect(
        lambda t: bkl(1.0 - t, p) - alpha, 0.0, 1.0 - p
    )
    return lo, hi


@dataclass(frozen=True)
class BinaryPoint:
    p: float
    D1: float
    D2: float
    r1: float
    r2: float
    alpha: float

    def rates(self, q: float) -> tuple[float, float]:
        return rd_hamming((1.0 - q, q), self.D1), rd_hamming((1.0 - q, q), self.D2)

    def floors(self, q: float) -> tuple[float, float, float]:
        """(lambda1, lambda2 inner, lambda2 outer) evaluated at one source law."""
        a, b = self.rates(q)
        l1 = pos(a - self.r1)
        return l1, l1 + pos(b - a - self.r2), pos(b - self.r1 - self.r2)

    def ball(self, alpha: float | None = None) -> tuple[float, float]:
        return ball_interval(self.p, self.alpha if alpha is None else alpha)

    def jep_floors(self, alpha: float | None = None) -> tuple[float, float, float]:
        lo, hi = self.ball(alpha)
        return self.floors(min(max(0.5, lo), hi))

    def key_thresholds(self) -> tuple[float, float]:
        lo, hi = self.ball()
        far = lo if abs(lo - 0.5) >= abs(hi - 0.5) else hi
        a, b = self.rates(far)
        return a, b - a

    def plateau(self) -> tuple[float, float]:
        """Alpha where each jep floor stops growing (0 when it never grows)."""
        start, end = self.floors(self.p), self.floors(0.5)
        onset = bkl(0.5, self.p)
        return (
            onset if end[0] > start[0] + 1e-12 else 0.0,
            onset if end[1] > start[1] + 1e-12 else 0.0,
        )


def _verdict(b: tuple[float, float, float], L1: float, L2: float) -> str | None:
    """Region verdict, or None when a budget sits on a boundary."""
    l1, l2in, l2out = b
    if min(abs(L1 - l1), abs(L2 - l2in), abs(L2 - l2out)) < 1e-6:
        return None
    if L1 >= l1 and L2 >= l2in:
        return "inside_inner"
    if L1 >= l1 and L2 >= l2out:
        return "between"
    return "outside_outer"


def check_binary_rd(pt: BinaryPoint, out: dict) -> list[Failure]:
    f: list[Failure] = []
    a, b = pt.rates(pt.p)
    _close(f, "rd_at_D1", out.get("rd_at_D1"), a, RATE_TOL)
    _close(f, "rd_at_D2", out.get("rd_at_D2"), b, RATE_TOL)
    _close(f, "two_layer_sum_rate", out.get("two_layer_sum_rate"), b, RATE_TOL)
    return f


def check_binary_exponents(pt: BinaryPoint, out: dict) -> list[Failure]:
    f: list[Failure] = []
    for crit, want in (("jep", pt.jep_floors()), ("expected", pt.floors(pt.p))):
        for key, w in zip(("m1", "joint_inner", "joint_outer"), want):
            _close(f, f"{crit}.{key}", out[crit][key], w, BALL_TOL)
    pa = pt.plateau()
    _close(f, "plateau_alpha.m1", out["plateau_alpha"]["m1"], pa[0], PLATEAU_TOL)
    _close(f, "plateau_alpha.joint", out["plateau_alpha"]["joint"], pa[1], PLATEAU_TOL)
    t1, t2 = pt.key_thresholds()
    _close(f, "key_rate_thresholds.r1", out["key_rate_thresholds"]["r1"], t1, BALL_TOL)
    _close(f, "key_rate_thresholds.r2", out["key_rate_thresholds"]["r2"], t2, BALL_TOL)
    a, b = pt.rates(pt.p)
    for crit, (m1, m2) in (("jep", (t1, t2)), ("expected", (a, b - a))):
        if min(abs(pt.r1 - m1), abs(pt.r2 - m2)) < 1e-9:
            continue
        want = pt.r1 <= m1 and pt.r2 <= m2
        if out["partial_secrecy"][crit] is not want:
            _fail(f, "value", f"partial_secrecy.{crit}: got {out['partial_secrecy'][crit]}, want {want}")
    return f


def check_binary_sweep(pt: BinaryPoint, text: str, stop: float = 0.3, steps: int = 200) -> list[Failure]:
    """A ``sweep --alpha-range 0:<stop>:<steps>`` CSV against the exact floors."""
    f: list[Failure] = []
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not rows or rows[0] != "alpha,lambda1,lambda2,lambda2_out":
        return [Failure("format", "sweep: missing CSV header")]
    body = [[float(v) for v in r.split(",")] for r in rows[1:]]
    if len(body) != steps:
        return [Failure("format", f"sweep: {len(body)} rows, want {steps}")]
    for i, row in enumerate(body):
        a = row[0]
        _close(f, f"sweep alpha[{i}]", a, stop * i / (steps - 1), 1e-12)
        for name, got, w in zip(("lambda1", "lambda2", "lambda2_out"), row[1:], pt.jep_floors(a)):
            _close(f, f"sweep {name} at alpha={a:.6g}", got, w, BALL_TOL)
    return f


def check_region(want: tuple[float, float, float], out: dict, L1: float, L2: float,
                 sum_rate=None) -> list[Failure]:
    """Region output against a reference boundary.

    ``sum_rate`` is ``(R(Q, D1), R(Q, D2), r1, r2)`` on a successively
    refinable source: a boundary that is exactly what a too-high sum rate
    would give is reported as the known sum-rate defect.
    """
    f: list[Failure] = []
    b = out["boundary"]
    got = (b["lambda1"], b["lambda2_in"], b["lambda2_out"])
    _close(f, "boundary.lambda1", got[0], want[0], RATE_TOL)
    joint: list[Failure] = []
    _close(joint, "boundary.lambda2_in", got[1], want[1], RATE_TOL)
    _close(joint, "boundary.lambda2_out", got[2], want[2], RATE_TOL)
    if joint and sum_rate is not None and not f:
        rd1, rd2, r1, r2 = sum_rate
        implied = got[2] + r1 + r2
        consistent = abs(got[1] - (got[0] + pos(implied - rd1 - r2))) <= RATE_TOL
        if got[2] > 0.0 and consistent and implied > rd2 + SUM_TOL:
            joint = [Failure(SUM_RATE, f"region boundary implies sum rate {implied:.6f} "
                                       f"> R(Q, D2) = {rd2:.6f}")]
    f += joint
    if b["matched"] is not (abs(got[1] - got[2]) <= 1e-9):
        _fail(f, "value", "boundary.matched disagrees with the printed boundary")
    expect = _verdict(got, L1, L2)
    if expect is not None and out["verdict"] != expect:
        _fail(f, "value", f"verdict {out['verdict']!r} disagrees with the printed boundary ({expect!r})")
    return f


def check_reproduce(rc: int, text: str) -> list[Failure]:
    if rc != 0 or "FAIL" in text:
        return [Failure("exit", f"reproduce exited {rc}")]
    return []


# ---------------------------------------------------------------------------
# ternary (K-ary) Hamming
# ---------------------------------------------------------------------------


def max_entropy_in_ball(p, alpha: float) -> list[float]:
    """Entropy maximiser over {Q : D(Q || P) <= alpha}, on the family Q ~ P^(1-t)."""
    k = len(p)
    uniform = [1.0 / k] * k
    if kl(uniform, p) <= alpha:
        return uniform

    def tilt(t: float) -> list[float]:
        w = [x ** (1.0 - t) for x in p]
        s = sum(w)
        return [x / s for x in w]

    return tilt(_bisect(lambda s: alpha - kl(tilt(s), p), 0.0, 1.0))


def check_ternary_rd(p, D1: float, D2: float, R1: float, out: dict) -> list[Failure]:
    f: list[Failure] = []
    a, b = rd_hamming(p, D1), rd_hamming(p, D2)
    _close(f, "rd_at_D1", out.get("rd_at_D1"), a, RATE_TOL)
    _close(f, "rd_at_D2", out.get("rd_at_D2"), b, RATE_TOL)
    s = out.get("two_layer_sum_rate")
    if R1 >= a and s is not None and math.isfinite(s):
        if s > b + SUM_TOL:
            _fail(f, SUM_RATE, f"two_layer_sum_rate {s:.6f} > R(Q, D2) = {b:.6f} at R1 = {R1:g}")
        elif s < b - SUM_TOL:
            _fail(f, "value", f"two_layer_sum_rate {s:.6f} below R(Q, D2) = {b:.6f}")
    elif R1 >= a:
        _fail(f, "value", f"two_layer_sum_rate {s!r} is not finite at feasible R1 = {R1:g}")
    return f


def check_ternary_m1(p, alpha: float, D1: float, r1: float, value: float) -> list[Failure]:
    want = pos(rd_hamming(max_entropy_in_ball(p, alpha), D1) - r1)
    if not want - SOLVER_BALL_TOL <= value <= want + RATE_TOL:
        return [Failure("value", f"leakage_exponent_m1 {value!r}, want {want!r} (-{SOLVER_BALL_TOL:g})")]
    return []


# ---------------------------------------------------------------------------
# exact codes
# ---------------------------------------------------------------------------


def types(n: int, k: int):
    for head in product(range(n + 1), repeat=k - 1):
        if sum(head) <= n:
            yield head + (n - sum(head),)


def type_prob(counts, p) -> float:
    n = sum(counts)
    c = math.factorial(n)
    for x in counts:
        c //= math.factorial(x)
    return c * math.prod(px**x for px, x in zip(p, counts))


def in_ball_types(n: int, p, threshold: float) -> frozenset:
    return frozenset(t for t in types(n, len(p)) if kl([c / n for c in t], p) <= threshold)


def ball_margin(n: int, p, threshold: float) -> float:
    """Distance of the nearest type divergence to the ball threshold."""
    return min(abs(kl([c / n for c in t], p) - threshold) for t in types(n, len(p)))


def out_of_ball_mass(n: int, p, threshold: float) -> float:
    return sum(type_prob(t, p) for t in types(n, len(p)) if kl([c / n for c in t], p) > threshold)


def check_simulate(n: int, p, threshold: float, bits: tuple[int, int], samples: int,
                   rc: int, text: str) -> list[Failure]:
    if rc != 0:
        return [Failure("exit", f"simulate exited {rc}")]
    out = json.loads(text)
    f: list[Failure] = []
    if out["n"] != n or out["key_bits"] != list(bits):
        _fail(f, "value", f"n/key_bits {out['n']}/{out['key_bits']}, want {n}/{list(bits)}")
    jep = out["jep"]["exact"]
    want = out_of_ball_mass(n, p, threshold)
    _close(f, "jep.exact", jep, want, 1e-12)
    if out["jep"]["bound_holds"] is not True:
        _fail(f, "value", f"jep.bound_holds is {out['jep']['bound_holds']!r}")
    leak = out["leakage_bits"]
    for key in ("m1_paths_agree", "joint_paths_agree"):
        if leak[key] is not True:
            _fail(f, "value", f"leakage_bits.{key} is {leak[key]!r}")
    for key in ("covering_verified", "oracle_enabled"):
        if out["invariants"][key] is not True:
            _fail(f, "value", f"invariants.{key} is {out['invariants'][key]!r}")
    mc = out["jep"]["monte_carlo"]
    if samples == 0:
        if mc is not None:
            _fail(f, "value", f"monte_carlo {mc!r} without samples")
    else:
        band = MC_SIGMAS * math.sqrt(want * (1.0 - want) / samples) + 1e-12
        if mc is None or abs(mc - want) > band:
            _fail(f, "value", f"monte_carlo {mc!r} outside {want:.6f} +- {band:.2g}")
    return f


def check_adversary(p, n: int, target: str, rc: int, text: str) -> list[Failure]:
    if rc != 0:
        return [Failure("exit", f"adversary exited {rc}")]
    out = json.loads(text)
    f: list[Failure] = []
    _close(f, "p_star", out["p_star"], max(p) ** n if target == "identity" else max(p), 1e-12)
    if not 0.0 <= out["probability"] <= 1.0 + 1e-12:
        _fail(f, "value", f"probability {out['probability']!r} outside [0, 1]")
    if out["chain_bound"]["valid"] is not True:
        _fail(f, "value", f"chain bound not valid: {out['chain_bound']['conditions']}")
    elif out["meets_bound"] is not True:
        _fail(f, "value", f"probability {out['probability']!r} below the chain bound "
                          f"{out['chain_bound']['value']!r}")
    return f

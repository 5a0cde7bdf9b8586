"""Guessing attacks against the two-layer encrypted code.

The attacker observes the public messages, guesses both keys uniformly,
decodes with the guessed keys, recovers a source-sequence candidate with a
type-based randomized guesser, and finally guesses the target function of
the source by the maximum-posterior rule.

The sequence guessers are exactly computable: stage one draws uniformly
from the set of joint types that are consistent with the observed
reconstructions and the distortion (and, for the refined guesser, rate)
constraints; stage two draws uniformly from the conditional type class of
the drawn joint type.  Success probabilities follow from counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import CapExceededError
from .exponents import RateModel, SystemSpec
from .probcore import (
    Distribution,
    all_sequences,
    enumerate_types,
    kl_divergence,
    type_count_vectors,
)
from .typecodec import (
    CoverCodebook,
    KeyPair,
    decode,
    decode_layer1,
    encode,
    jep_exact,
)


# ---------------------------------------------------------------------------
# guess targets (the function of the source the attacker wants)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuessTarget:
    """A deterministic function of the source sequence.

    ``apply`` maps a sequence to the target value; the maximum-posterior
    guess given a recovered sequence candidate is simply ``apply`` of the
    candidate, with ties impossible for deterministic targets.
    """

    name: str
    apply: Callable[[tuple[int, ...]], object]

    def p_star(self, source: Distribution, n: int) -> float:
        if self.name == "identity":
            return float(source.probs.max()) ** n
        if self.name == "first":
            return float(source.probs.max())
        if self.name == "constant":
            return 1.0
        raise ValueError(f"no closed-form most-likely value for target {self.name!r}")

    def prior_guess(self, source: Distribution, n: int) -> object:
        """Maximum-prior guess, used when the sequence stage yields nothing:
        the target of the most likely sequence."""
        return self.apply(tuple([int(source.probs.argmax())] * n))


IDENTITY_TARGET = GuessTarget("identity", lambda x: x)
FIRST_SYMBOL_TARGET = GuessTarget("first", lambda x: x[0])
CONSTANT_TARGET = GuessTarget("constant", lambda x: 0)


@dataclass(frozen=True)
class GuessScheme:
    """Attack configuration: uniform key guess, one sequence guesser, one target."""

    guesser: str = "g2"
    target: GuessTarget = IDENTITY_TARGET

    def __post_init__(self) -> None:
        if self.guesser not in ("g1", "g2"):
            raise ValueError("guesser must be 'g1' or 'g2'")


# ---------------------------------------------------------------------------
# type-based sequence guessers
# ---------------------------------------------------------------------------


def _joint_counts(seqs: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    cells = np.ravel_multi_index([np.asarray(s, dtype=np.int64) for s in seqs], sizes)
    return np.bincount(cells, minlength=math.prod(sizes)).reshape(sizes)


def _candidate_joints(cands: np.ndarray, observed: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Joint counts of each candidate row with the observed sequences, flattened: (m, cells)."""
    m = cands.shape[0]
    cells = math.prod(sizes)
    obs_cell = np.ravel_multi_index([np.asarray(o, dtype=np.int64) for o in observed], sizes[1:])
    # cell of (candidate r, position t), offset by r * cells so one bincount counts every row
    cell = cands.astype(np.int64) * (cells // sizes[0]) + obs_cell
    cell += np.arange(m, dtype=np.int64)[:, None] * cells
    return np.bincount(cell.ravel(), minlength=m * cells).reshape(m, cells)


def _rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each int64 row occurs in ``table``, by exact byte comparison."""
    def as_bytes(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.int64)
        return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    return np.isin(as_bytes(rows), as_bytes(table))


def _avg_distortion(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(d[x, y].sum()) / len(x)


def _conditional_class_size(joint: np.ndarray) -> int:
    """Number of x-sequences completing the observed marginal to this joint type."""
    obs = joint.sum(axis=0)
    out = 1
    for idx in np.ndindex(obs.shape):
        cell = int(obs[idx])
        if cell == 0:
            continue
        block = math.factorial(cell)
        for cx in joint[(slice(None),) + idx]:
            block //= math.factorial(int(cx))
        out *= block
    return out


class _GuessContext:
    """Caches type enumerations and feasible sets across guessing queries.

    One context serves both guessers: the single-layer guesser observes
    ``[xhat1]``, the refined guesser ``[xhat1, xhat2]``.
    """

    def __init__(self, model: RateModel) -> None:
        self.spec = model.spec
        self.model = model
        self.kx = self.spec.source.alphabet_size
        self.sizes = [self.kx, self.spec.d1.cols, self.spec.d2.cols]
        self._joint_types: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._feasible: dict[tuple[int, bytes], np.ndarray] = {}

    def joint_types(self, n: int, cells: int) -> tuple[np.ndarray, np.ndarray]:
        """All joint types as one (types, cells) array, in enumeration order,
        with each type's marginal over the reconstruction cells (summed over x)."""
        key = (n, cells)
        if key not in self._joint_types:
            joints = type_count_vectors(n, cells)
            marginals = joints.reshape(len(joints), self.kx, cells // self.kx).sum(axis=1)
            self._joint_types[key] = joints, marginals
        return self._joint_types[key]

    def feasible(self, observed: list[np.ndarray]) -> np.ndarray:
        """Joint types (kx, ka[, kb]) with the observed reconstructions' type that
        meet D1 and, when both layers are observed, D2 and the layer-1 rate, in
        enumeration order."""
        n = len(observed[0])
        sizes = self.sizes[: len(observed) + 1]
        obs = _joint_counts(observed, sizes[1:])
        key = (len(observed), obs.tobytes())
        if key in self._feasible:
            return self._feasible[key]
        spec = self.spec
        joints, marginals = self.joint_types(n, math.prod(sizes))
        joints = joints[(marginals == obs.ravel()).all(axis=1)].reshape(-1, *sizes)
        x_xhat1 = joints.sum(axis=tuple(range(3, joints.ndim)))
        joints = joints[_loads(x_xhat1, spec.d1.matrix) <= n * spec.D1 + 1e-9]
        if len(observed) == 2:
            joints = joints[_loads(joints.sum(axis=2), spec.d2.matrix) <= n * spec.D2 + 1e-9]
            # the layer-1 rate depends on the x-type alone: rate each distinct one once
            x_types, which = np.unique(joints.sum(axis=(2, 3)), axis=0, return_inverse=True)
            rate_ok = [self.model.rd(Distribution(t / n), 1) <= spec.R1 + 1e-9 for t in x_types]
            joints = joints[np.array(rate_ok, dtype=bool)[which.reshape(-1)]]
        self._feasible[key] = joints
        return joints


def _loads(joints: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Total distortion of each (kx, k) joint type: the sum of (joint * d), per joint."""
    return (joints * d).reshape(len(joints), d.size).sum(axis=1)


def _success_probability(x, observed: list, ctx: _GuessContext) -> float:
    """Exact probability that the guesser observing one or two layers recovers x."""
    spec = ctx.spec
    name = f"g{len(observed)}"
    x = np.asarray(x, dtype=np.int64)
    observed = [np.asarray(o, dtype=np.int64) for o in observed]
    for layer, (xhat, d, D) in enumerate(zip(observed, (spec.d1, spec.d2), (spec.D1, spec.D2)), 1):
        if _avg_distortion(d.matrix, x, xhat) > D + 1e-9:
            raise ValueError(f"{name} guarantee requires layer {layer} to meet D{layer}")
    if len(observed) == 2:
        q_x = Distribution(np.bincount(x, minlength=ctx.kx).astype(np.float64) / len(x))
        if ctx.model.rd(q_x, 1) > spec.R1 + 1e-9:
            raise ValueError("g2 guarantee requires R1 to cover the rate of the observed type")
    feasible = ctx.feasible(observed)
    true_joint = _joint_counts([x, *observed], ctx.sizes[: len(observed) + 1])
    if not any(np.array_equal(true_joint, f) for f in feasible):
        return 0.0
    size = _conditional_class_size(true_joint)
    return float(Fraction(1, len(feasible) * size))


def g1_success_probability(
    x, xhat1, spec: SystemSpec, *, ctx: _GuessContext | None = None
) -> float:
    """Exact probability that the single-layer guesser recovers x from xhat1."""
    return _success_probability(x, [xhat1], ctx or _GuessContext(RateModel(spec)))


def g2_success_probability(
    x, xhat1, xhat2, spec: SystemSpec, *, ctx: _GuessContext | None = None
) -> float:
    """Exact probability that the refined guesser recovers x from both layers."""
    return _success_probability(x, [xhat1, xhat2], ctx or _GuessContext(RateModel(spec)))


def _entropy_of_counts(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def g1_lower_bound(x, spec: SystemSpec) -> float:
    """Stated pointwise lower bound for the single-layer guesser."""
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    kx, ka = spec.source.alphabet_size, spec.d1.cols
    counts = np.bincount(x, minlength=kx).astype(np.int64)
    q = Distribution(counts.astype(np.float64) / n)
    b1 = (n + 1.0) ** (-(kx * ka * (kx + 1)))
    return b1 * 2.0 ** (-n * (_entropy_of_counts(counts, n) - RateModel(spec).rd(q, 1)))


def g2_lower_bound(x, spec: SystemSpec) -> float:
    """Stated pointwise lower bound for the refined guesser."""
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    counts = np.bincount(x, minlength=kx).astype(np.int64)
    q = Distribution(counts.astype(np.float64) / n)
    b2 = (n + 1.0) ** (-(kx * ka * kb))
    return b2 * 2.0 ** (-n * (_entropy_of_counts(counts, n) - RateModel(spec).sum_rate(q)))


# ---------------------------------------------------------------------------
# end-to-end attack on the built code
# ---------------------------------------------------------------------------


def _require_codebook_matches(spec: SystemSpec, n: int, cb: CoverCodebook) -> None:
    """Refuse a codebook built for another operating point or blocklength."""
    if spec != cb.spec or n != cb.n:
        raise ValueError(f"codebook was built for another spec or blocklength (n = {cb.n}, not {n})")


@dataclass
class EndToEndResult:
    probability: float
    p_star: float
    scheme: GuessScheme
    stages: dict = field(default_factory=dict)


def end_to_end_guess_probability(
    spec: SystemSpec,
    n: int,
    cb: CoverCodebook,
    scheme: GuessScheme = GuessScheme(),
    *,
    max_enum: int = 1 << 22,
) -> EndToEndResult:
    """Exact success probability of the full key-guess / decode / guess chain.

    Enumerates every source sequence, true key pair, and guessed key pair;
    the sequence-guess distribution is computed in closed form per decoded
    reconstruction pair; the final stage applies the target's
    maximum-posterior rule to the sequence candidate.
    """
    _require_codebook_matches(spec, n, cb)
    ctx = _GuessContext(cb.model)
    kx = spec.source.alphabet_size
    work = kx**n * (cb.cap1 * cb.cap2) ** 2
    if work > max_enum:
        raise CapExceededError(f"{work} chain evaluations exceed the cap {max_enum}")
    seqs = all_sequences(kx, n)
    logp = np.log(np.maximum(spec.source.probs, 1e-300))
    seq_prob = np.exp(logp[seqs].sum(axis=1))
    key_prob = 1.0 / (cb.cap1 * cb.cap2)

    # per decoded pair: target-value mass under the sequence guesser
    mass_cache: dict[bytes, dict[object, float]] = {}

    def guess_mass(observed: list[np.ndarray]) -> dict[object, float]:
        key = b"".join(o.tobytes() for o in observed)
        if key in mass_cache:
            return mass_cache[key]
        observed = [np.asarray(o, dtype=np.int64) for o in observed]
        feasible = ctx.feasible(observed)
        sizes = ctx.sizes[: len(observed) + 1]
        out: dict[object, float] = {}
        if len(feasible):
            joints = _candidate_joints(seqs, observed, sizes)
            matched = _rows_in(joints, feasible.reshape(len(feasible), -1))
            # only matched candidates contribute, in lexicographic order
            for c in np.flatnonzero(matched):
                p = 1.0 / (len(feasible) * _conditional_class_size(joints[c].reshape(sizes)))
                u = scheme.target.apply(tuple(int(s) for s in seqs[c]))
                out[u] = out.get(u, 0.0) + p
        mass_cache[key] = out
        return out

    fallback = scheme.target.prior_guess(spec.source, n)
    total = 0.0
    for row, px in zip(seqs, seq_prob):
        if px == 0.0:
            continue
        u_true = scheme.target.apply(tuple(int(s) for s in row))
        fallback_hit = 1.0 if fallback == u_true else 0.0
        row_total = 0.0
        for k1 in range(cb.cap1):
            for k2 in range(cb.cap2):
                true_keys = KeyPair(k1, k2, cb.bits1, cb.bits2)
                m1, m2 = encode(row, true_keys, cb)
                for g1k in range(cb.cap1):
                    for g2k in range(cb.cap2):
                        guessed = KeyPair(g1k, g2k, cb.bits1, cb.bits2)
                        if scheme.guesser == "g1":
                            xh1, erased = decode_layer1(m1, guessed, cb)
                            observed = [xh1]
                        else:
                            out = decode(m1, m2, guessed, cb)
                            observed, erased = [out.xhat1, out.xhat2], out.erased
                        mass = None if erased else guess_mass(observed)
                        if not mass:
                            # the sequence stage produced no candidate: the
                            # attacker still answers with the prior maximizer
                            hit = fallback_hit
                        else:
                            hit = mass.get(u_true, 0.0)
                        row_total += key_prob * key_prob * hit
        total += float(px) * row_total
    p_star = scheme.target.p_star(spec.source, n)
    return EndToEndResult(total, p_star, scheme, {"sequences": len(seqs)})


@dataclass
class ChainBound:
    value: float
    valid: bool
    conditions: dict


def end_to_end_lower_bound(
    spec: SystemSpec, n: int, cb: CoverCodebook, tau: float, p_star: float
) -> ChainBound:
    """The chained converse lower bound for the refined attack.

    Valid once the blocklength is large enough that (i) the per-type success
    discount factor is at least one half, detected as n*(tau - b3) >= 1 with
    b3 the normalized type-count exponent, and (ii) the built code meets its
    reliability target.  Both conditions are reported, never assumed.
    """
    if math.isnan(tau):
        raise ValueError("tau must be a number")
    _require_codebook_matches(spec, n, cb)
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    b2 = (n + 1.0) ** (-(kx * ka * kb))
    b4 = (n + 1.0) ** (-kx) * b2
    b3 = (kx / n) * math.log2(n + 1.0)
    candidates = [
        t for t in enumerate_types(n, kx)
        if kl_divergence(t.empirical(), spec.source) <= spec.alpha - tau
    ]
    half_ok = n * (tau - b3) >= 1.0
    jep = jep_exact(cb)
    jep_ok = jep <= 2.0 ** (-n * spec.alpha) + 1e-15
    if not candidates:
        return ChainBound(0.0, False, {"nonempty": False, "half_ok": half_ok, "jep_ok": jep_ok})
    best = max(cb.model.sum_rate(t.empirical()) for t in candidates)
    value = 0.5 * b4 * p_star * 2.0 ** (n * (best - spec.r1 - spec.r2))
    return ChainBound(
        value,
        bool(half_ok and jep_ok),
        {"nonempty": True, "half_ok": half_ok, "jep_ok": jep_ok, "jep": jep},
    )

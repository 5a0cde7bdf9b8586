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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import CapExceededError
from .exponents import RateModel, SystemSpec
from .probcore import (
    Distribution,
    all_sequences,
    entropy,
    type_count_vectors,
    types_within,
)
from .typecodec import (
    DEFAULT_ENUM_CAP,
    CoverCodebook,
    KeyPair,
    _group_rows,
    codebook_mismatch,
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


def _candidate_joints(
    seqs: np.ndarray, cands: np.ndarray, obs_cell: np.ndarray, sizes: list[int], start: int, stop: int
) -> np.ndarray:
    """Joint counts of rows ``start:stop`` of the (observation x candidate)
    table, flattened: (stop - start, cells).

    Row r pairs observation ``r // len(cands)`` with the sequence
    ``seqs[cands[r % len(cands)]]``; ``obs_cell[o]`` is observation o's cell
    among the reconstruction cells ``sizes[1:]`` at each position.
    """
    rows, cells = stop - start, math.prod(sizes)
    o, k = np.divmod(np.arange(start, stop, dtype=np.int64), cands.size)
    # cell of (row r, position t), offset by r * cells so one bincount counts every row
    cell = seqs[cands[k]].astype(np.int64)
    cell *= cells // sizes[0]
    cell += obs_cell[o]
    cell += np.arange(rows, dtype=np.int64)[:, None] * cells
    return np.bincount(cell.ravel(), minlength=rows * cells).reshape(rows, cells)


def _rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each int64 row occurs in ``table``, by exact byte comparison."""
    def as_bytes(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.int64)
        return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    return np.isin(as_bytes(rows), as_bytes(table))


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
    """Caches feasible sets across guessing queries.

    One context serves both guessers: the single-layer guesser observes
    ``[xhat1]``, the refined guesser ``[xhat1, xhat2]``.  A query whose
    candidate joint types (compositions of the observed counts, times cells
    per type) exceed ``max_enum`` is refused before they are built.
    """

    def __init__(self, model: RateModel, max_enum: int = DEFAULT_ENUM_CAP) -> None:
        self.spec = model.spec
        self.model = model
        self.max_enum = max_enum
        self.kx = self.spec.source.alphabet_size
        self.sizes = [self.kx, self.spec.d1.cols, self.spec.d2.cols]
        self._feasible: dict[tuple[int, bytes], np.ndarray] = {}

    def rate_ok(self, q: Distribution) -> bool:
        """Whether R1 covers R(Q, D1) within 1e-9.  R(Q, D1) <= H(Q), so an
        entropy below ``R1 - 1e-9`` answers without the solver, as the build's
        own rate check does."""
        return entropy(q) < self.spec.R1 - 1e-9 or self.model.rd(q, 1) <= self.spec.R1 + 1e-9

    def meets(self, x_xhat: np.ndarray, layer: int, n: int) -> np.ndarray:
        """Whether each n-letter joint type of x and the layer's reconstruction,
        (types, kx, k), keeps its total distortion within n times the layer's level."""
        d, level = (self.spec.d1, self.spec.D1) if layer == 1 else (self.spec.d2, self.spec.D2)
        return (x_xhat * d.matrix).reshape(len(x_xhat), d.matrix.size).sum(axis=1) <= n * level + 1e-9

    def feasible(self, observed: list[np.ndarray]) -> np.ndarray:
        """Joint types (kx, ka[, kb]) with the observed reconstructions' type that
        meet D1 and, when both layers are observed, D2 and the layer-1 rate, in
        lexicographically descending order.

        The candidates split each nonzero observed count over x in every way:
        the product of its compositions, counted before any is built, and held
        on the nonzero cells alone until the filters and the sort are done."""
        n = len(observed[0])
        sizes = self.sizes[: len(observed) + 1]
        obs = _joint_counts(observed, sizes[1:]).ravel()
        key = (len(observed), obs.tobytes())
        if key in self._feasible:
            return self._feasible[key]
        kx, cells = self.kx, np.flatnonzero(obs)
        counts = obs[cells].tolist()
        ways = [math.comb(c + kx - 1, kx - 1) for c in counts]
        rows = math.prod(ways)
        if rows * kx * obs.size > self.max_enum:
            raise CapExceededError(f"{rows} candidate joint types x {kx * obs.size} cells "
                                   f"exceed the enumeration cap {self.max_enum}")
        split = np.empty((rows, kx, cells.size), dtype=np.int64)
        outer = 1
        for i, (c, m) in enumerate(zip(counts, ways)):
            pick = np.tile(np.repeat(np.arange(m), rows // (outer * m)), outer)
            split[:, :, i] = type_count_vectors(c, kx)[pick]
            outer *= m
        # each layer's (x, reconstruction) marginal: the split times a cell -> letter one-hot
        letters = np.unravel_index(cells, sizes[1:])
        split = split[self.meets(split @ np.eye(sizes[1], dtype=np.int64)[letters[0]], 1, n)]
        if len(observed) == 2:
            split = split[self.meets(split @ np.eye(sizes[2], dtype=np.int64)[letters[1]], 2, n)]
            # the layer-1 rate depends on the x-type alone: rate each distinct one once
            x_types, which = np.unique(split.sum(axis=2), axis=0, return_inverse=True)
            rate_ok = [self.rate_ok(Distribution(t / n)) for t in x_types]
            split = split[np.array(rate_ok, dtype=bool)[which.reshape(-1)]]
        # the cells left out are zero in every candidate, so they cannot change the order
        split = split[np.lexsort(-split.reshape(len(split), kx * cells.size).T[::-1])]
        joints = np.zeros((len(split), kx, obs.size), dtype=np.int64)
        joints[:, :, cells] = split
        self._feasible[key] = joints = joints.reshape(len(split), *sizes)
        return joints


def _success_probability(x, observed: list, ctx: _GuessContext) -> float:
    """Exact probability that the guesser observing one or two layers recovers x."""
    name = f"g{len(observed)}"
    x = np.asarray(x, dtype=np.int64)
    observed = [np.asarray(o, dtype=np.int64) for o in observed]
    # the feasible set's own filters, so the true joint type is always in it
    for layer, xhat in enumerate(observed, 1):
        if not ctx.meets(_joint_counts([x, xhat], [ctx.kx, ctx.sizes[layer]])[None], layer, len(x))[0]:
            raise ValueError(f"{name} guarantee requires layer {layer} to meet D{layer}")
    if len(observed) == 2:
        q_x = Distribution(np.bincount(x, minlength=ctx.kx).astype(np.float64) / len(x))
        if not ctx.rate_ok(q_x):
            raise ValueError("g2 guarantee requires R1 to cover the rate of the observed type")
    feasible = ctx.feasible(observed)
    size = _conditional_class_size(_joint_counts([x, *observed], ctx.sizes[: len(observed) + 1]))
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


def g1_lower_bound(x, spec: SystemSpec) -> float:
    """Stated pointwise lower bound for the single-layer guesser."""
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    kx, ka = spec.source.alphabet_size, spec.d1.cols
    q = Distribution(np.bincount(x, minlength=kx) / n)
    b1 = (n + 1.0) ** (-(kx * ka * (kx + 1)))
    return b1 * 2.0 ** (-n * (entropy(q) - RateModel(spec).rd(q, 1)))


def g2_lower_bound(x, spec: SystemSpec) -> float:
    """Stated pointwise lower bound for the refined guesser."""
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    q = Distribution(np.bincount(x, minlength=kx) / n)
    b2 = (n + 1.0) ** (-(kx * ka * kb))
    return b2 * 2.0 ** (-n * (entropy(q) - RateModel(spec).sum_rate(q)))


# ---------------------------------------------------------------------------
# end-to-end attack on the built code
# ---------------------------------------------------------------------------


def _require_codebook_matches(spec: SystemSpec, n: int, cb: CoverCodebook) -> None:
    """Refuse a codebook built for another operating point or blocklength."""
    if (mismatch := codebook_mismatch(cb, spec, n)) is not None:
        raise ValueError(f"codebook was built for another spec or blocklength ({mismatch})")


@dataclass
class EndToEndResult:
    probability: float
    p_star: float


# cells of the attack chain's working arrays: the decoded observations held
# at once (int8), and one chunk of (observation x candidate) joint rows,
# counted as rows times the larger of n and the joint cells (int64)
_OBS_CELLS = 1 << 16
_JOINT_CELLS = 1 << 13


class _ChainGuesser:
    """The attack chain's type-based guesser, run on many decoded observations at once.

    Only candidates whose x-type is the x-marginal of a feasible joint type
    can match, so each observed type pairs its observations with those
    candidates alone, in lexicographic order.
    """

    def __init__(self, ctx: _GuessContext, seqs: np.ndarray, target: GuessTarget) -> None:
        self.ctx, self.seqs, self.target = ctx, seqs, target
        # x-types as rows of symbol counts, matched whole: no packing to overflow
        self._x_type = np.stack([np.count_nonzero(seqs == s, axis=1) for s in range(ctx.kx)], axis=1)
        self._draw: dict[bytes, float] = {}

    def masses(self, observed: np.ndarray, wanted: list) -> tuple[np.ndarray, np.ndarray]:
        """Per observation ``observed[e]`` ((m, layers, n): ``[xhat1]`` or
        ``[xhat1, xhat2]`` per row), the guesser's probability of a candidate
        with the target value ``wanted[e]``, and whether any candidate
        matches at all.

        A matched candidate is drawn with probability
        ``1 / (|feasible| * class size)``; the draws of one (observation,
        value) are summed in candidate order, across chunks of at most
        ``_JOINT_CELLS`` cells.
        """
        ctx, seqs = self.ctx, self.seqs
        m, layers, n = observed.shape
        sizes = ctx.sizes[: layers + 1]
        cells, obs_cells = math.prod(sizes), math.prod(sizes[1:])
        # per row, each position's reconstruction cell and the row's type (its cell counts)
        obs_cell = np.ravel_multi_index(tuple(observed.transpose(1, 0, 2).astype(np.int64)), sizes[1:])
        offset = np.arange(m, dtype=np.int64)[:, None] * obs_cells
        obs_type = np.bincount((obs_cell + offset).ravel(), minlength=m * obs_cells).reshape(m, obs_cells)
        # distinct observations, sorted by type
        order, starts = _group_rows(np.hstack([obs_type, obs_cell]))
        which = np.empty(m, dtype=np.int64)
        which[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=m))
        first = order[starts]
        d_type = obs_type[first]
        type_lo = np.flatnonzero(np.concatenate([[True], (d_type[1:] != d_type[:-1]).any(axis=1)]))
        # the (observation, value) masses asked for, summed as matches come
        values: dict = {}
        u = np.array([values.setdefault(v, len(values)) for v in wanted], dtype=np.int64)
        queries, inverse = np.unique(which * len(values) + u, return_inverse=True)
        mass = np.zeros(queries.size)
        found = np.zeros(starts.size, dtype=bool)
        step = max(1, _JOINT_CELLS // max(n, cells))
        for lo, hi in zip(type_lo.tolist(), type_lo[1:].tolist() + [starts.size]):
            feasible = ctx.feasible(list(observed[first[lo]].astype(np.int64)))
            flat = feasible.reshape(len(feasible), cells)
            cands = np.flatnonzero(_rows_in(self._x_type, flat.reshape(len(flat), ctx.kx, -1).sum(axis=2)))
            block = obs_cell[first[lo:hi]]
            for start in range(0, (hi - lo) * cands.size, step):
                stop = min(start + step, (hi - lo) * cands.size)
                joints = _candidate_joints(seqs, cands, block, sizes, start, stop)
                hit = np.flatnonzero(_rows_in(joints, flat))
                if hit.size == 0:
                    continue
                o, k = np.divmod(start + hit, cands.size)
                found[lo + o] = True
                p = np.array([self._draw_of(j, len(flat), sizes) for j in joints[hit]])
                v = np.array([values.get(self.target.apply(tuple(s)), -1)
                              for s in seqs[cands[k]].tolist()], dtype=np.int64)
                key = (lo + o) * len(values) + v
                pos = np.minimum(np.searchsorted(queries, key), queries.size - 1)
                asked = np.flatnonzero((v >= 0) & (queries[pos] == key))
                # bincount adds in input order: the running sums, then this chunk's draws
                mass = np.bincount(np.concatenate([np.arange(queries.size), pos[asked]]),
                                   weights=np.concatenate([mass, p[asked]]), minlength=queries.size)
        return mass[inverse], found[which]

    def _draw_of(self, joint: np.ndarray, n_feasible: int, sizes: list[int]) -> float:
        key = joint.tobytes()
        if key not in self._draw:
            self._draw[key] = 1.0 / (n_feasible * _conditional_class_size(joint.reshape(sizes)))
        return self._draw[key]


def end_to_end_guess_probability(
    spec: SystemSpec,
    n: int,
    cb: CoverCodebook,
    scheme: GuessScheme = GuessScheme(),
    *,
    max_enum: int = DEFAULT_ENUM_CAP,
) -> EndToEndResult:
    """Exact success probability of the full key-guess / decode / guess chain.

    Enumerates every source sequence, true key pair and guessed key pair,
    with one scalar ``encode`` per (sequence, true key pair) and one
    ``decode`` (``decode_layer1`` for g1) per guessed pair.  The decoded
    observations, at most ``_OBS_CELLS`` symbols at a time, go through one
    guesser pass (:meth:`_ChainGuesser.masses`) that gives, in closed form, the
    probability of a sequence candidate with the true target value; the
    target's maximum-posterior rule is that value.  An erased observation,
    or one no candidate explains, leaves the attacker the maximum-prior
    guess.  The sums over key pairs and sequences run in enumeration order,
    and the result is clamped at 1.
    ``max_enum`` caps both the chain's evaluations and, per observed type,
    the guesser's candidate joint types (types times cells).
    """
    _require_codebook_matches(spec, n, cb)
    ctx = _GuessContext(cb.model, max_enum)
    kx = spec.source.alphabet_size
    work = kx**n * (cb.cap1 * cb.cap2) ** 2
    if work > max_enum:
        raise CapExceededError(f"{work} chain evaluations exceed the cap {max_enum}")
    seqs = all_sequences(kx, n)
    logp = np.log(np.maximum(spec.source.probs, 1e-300))
    seq_prob = np.exp(logp[seqs].sum(axis=1))
    key_prob = 1.0 / (cb.cap1 * cb.cap2)
    keys = [KeyPair(k1, k2, cb.bits1, cb.bits2) for k1 in range(cb.cap1) for k2 in range(cb.cap2)]
    layers = 1 if scheme.guesser == "g1" else 2

    rows = np.flatnonzero(seq_prob != 0.0)
    per_row = len(keys) ** 2

    def decoded():
        """(erased, reconstructions) of each evaluation, in enumeration order."""
        for r in rows:
            for true_keys in keys:
                m1, m2 = encode(seqs[r], true_keys, cb)
                for guessed in keys:
                    if layers == 1:
                        xhat1, erased = decode_layer1(m1, guessed, cb)
                        yield erased, (xhat1,)
                    else:
                        out = decode(m1, m2, guessed, cb)
                        yield out.erased, (out.xhat1, out.xhat2)

    guesser = _ChainGuesser(ctx, seqs, scheme.target)
    fallback = scheme.target.prior_guess(spec.source, n)
    evals = decoded()
    total = row_total = 0.0
    chunk = max(1, _OBS_CELLS // (layers * n))
    for start in range(0, rows.size * per_row, chunk):
        stop = min(start + chunk, rows.size * per_row)
        observed = np.zeros((stop - start, layers, n), dtype=np.int8)
        erased = np.zeros(stop - start, dtype=bool)
        for e, (gone, xhats) in enumerate(itertools.islice(evals, stop - start)):
            erased[e] = gone
            for layer, xhat in enumerate(xhats):
                observed[e, layer] = xhat
        # the true target value of each evaluation's sequence
        first_row = start // per_row
        u_true = [scheme.target.apply(tuple(s))
                  for s in seqs[rows[first_row: (stop - 1) // per_row + 1]].tolist()]
        of_row = np.arange(start, stop) // per_row - first_row
        hits = np.asarray([1.0 if fallback == v else 0.0 for v in u_true])[of_row]
        live = np.flatnonzero(~erased)
        if live.size:
            mass, found = guesser.masses(observed[live], [u_true[i] for i in of_row[live].tolist()])
            hits[live[found]] = mass[found]
        for g, hit in enumerate(hits.tolist(), start):
            row_total += key_prob * key_prob * hit
            if g % per_row == per_row - 1:
                total += float(seq_prob[rows[g // per_row]]) * row_total
                row_total = 0.0
    # the float sums can overshoot a sure attack (1 + 1.3e-14 on a 24-letter
    # point at n = 2); a probability never exceeds 1
    return EndToEndResult(min(total, 1.0), scheme.target.p_star(spec.source, n))


@dataclass
class ChainBound:
    value: float
    valid: bool
    conditions: dict


def end_to_end_lower_bound(
    spec: SystemSpec, n: int, cb: CoverCodebook, tau: float, p_star: float
) -> ChainBound:
    """The chained converse lower bound for the refined attack, a maximum over
    the types of :func:`types_within` at ``alpha - tau``.

    Valid once the blocklength is large enough that (i) the per-type success
    discount factor is at least one half, detected as n*(tau - b3) >= 1 with
    b3 the normalized type-count exponent, and (ii) the built code meets its
    reliability target.  Both conditions are reported, never assumed, and
    decided first: the maximum, one sum rate per type in the ball, is taken
    only for a valid bound.  An invalid bound, or an empty ball, has value 0.
    """
    if math.isnan(tau):
        raise ValueError("tau must be a number")
    _require_codebook_matches(spec, n, cb)
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    b2 = (n + 1.0) ** (-(kx * ka * kb))
    b4 = (n + 1.0) ** (-kx) * b2
    b3 = (kx / n) * math.log2(n + 1.0)
    rows, ball = types_within(n, spec.source, spec.alpha - tau)
    half_ok = n * (tau - b3) >= 1.0
    jep = jep_exact(cb)
    jep_ok = jep <= 2.0 ** (-n * spec.alpha) + 1e-15
    if not ball.size:
        return ChainBound(0.0, False, {"nonempty": False, "half_ok": half_ok, "jep_ok": jep_ok})
    conditions = {"nonempty": True, "half_ok": half_ok, "jep_ok": jep_ok, "jep": jep}
    if not (half_ok and jep_ok):
        return ChainBound(0.0, False, conditions)
    best = max(cb.model.sum_rate(Distribution(counts / n)) for counts in rows[ball])
    return ChainBound(0.5 * b4 * p_star * 2.0 ** (n * (best - spec.r1 - spec.r2)), True, conditions)

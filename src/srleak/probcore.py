"""Finite-alphabet probability primitives.

Distributions, divergences, distortion expectations and n-letter type
utilities used by every other module.  All information quantities are in
bits (base-2 logarithms everywhere); no natural-log API is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceededError, DimensionError

#: tolerance for "probabilities sum to one"
SUM_TOL = 1e-12

#: cap on the number of types an enumeration may produce
DEFAULT_TYPE_CAP = 5_000_000

#: cap on the number of sequences one type class may enumerate
_MEMBER_CAP = 5_000_000


def _as_prob_vector(values) -> np.ndarray:
    # a copy, so freezing it below leaves the caller's array writable
    probs = np.array(values, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probability vector must be one-dimensional and non-empty")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {probs.sum()!r}")
    return probs


class Distribution:
    """A pmf over a finite alphabet {0, ..., k-1}."""

    __slots__ = ("probs",)

    def __init__(self, probs: Sequence[float]) -> None:
        arr = _as_prob_vector(probs)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):  # immutable value object
        raise AttributeError("Distribution is immutable")

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @property
    def full_support(self) -> bool:
        # entries are nonnegative, so nonzero is positive
        return np.count_nonzero(self.probs) == self.probs.size

    @classmethod
    def bernoulli(cls, p: float) -> "Distribution":
        """Binary pmf with P(X=1) = p.

        Built without the constructor's validation: 0 <= p <= 1 already
        makes both entries finite, nonnegative and sum to one within a
        rounding, so the array is the one ``cls([1 - p, p])`` would hold.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("bernoulli parameter must lie in [0, 1]")
        probs = np.array([1.0 - p, p], dtype=np.float64)
        probs.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "probs", probs)
        return out

    @classmethod
    def uniform(cls, k: int) -> "Distribution":
        if k < 1:
            raise ValueError("alphabet size must be positive")
        return cls(np.full(k, 1.0 / k))

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash(self.probs.tobytes())

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()!r})"


class DistortionMeasure:
    """A nonnegative distortion matrix d(x, xhat) with a zero entry per row.

    Rows index the source alphabet, columns the reconstruction alphabet.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        arr = np.array(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("distortion matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("distortion entries must be finite and nonnegative")
        if not np.all(np.isclose(arr.min(axis=1), 0.0, atol=0.0)):
            raise ValueError("every source symbol needs a zero-distortion reconstruction")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DistortionMeasure is immutable")

    @property
    def rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def cols(self) -> int:
        return int(self.matrix.shape[1])

    @classmethod
    def hamming(cls, k: int, cols: int | None = None) -> "DistortionMeasure":
        cols = k if cols is None else cols
        if cols < k:
            raise ValueError("hamming measure needs at least one matching column per row")
        m = np.ones((k, cols))
        np.fill_diagonal(m, 0.0)
        return cls(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, DistortionMeasure) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.matrix.shape, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"DistortionMeasure({self.matrix.tolist()!r})"


@dataclass(frozen=True)
class TypeClass:
    """An empirical histogram of a length-n sequence over a finite alphabet."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("blocklength must be positive")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to the blocklength")

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def empirical(self) -> Distribution:
        return Distribution(np.asarray(self.counts, dtype=np.float64) / self.n)

    @property
    def cardinality(self) -> int:
        """Exact number of sequences with this histogram (multinomial count)."""
        out = math.factorial(self.n)
        for c in self.counts:
            out //= math.factorial(c)
        return out

    @property
    def log2_cardinality(self) -> float:
        """log2 of the multinomial count, evaluated in log space."""
        return _log2_multinomial(self.n, self.counts)


def _log2_multinomial(n: int, counts: Sequence[int]) -> float:
    lg = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
    return lg / math.log(2.0)


def entropy(q: Distribution) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = q.probs
    mask = p > 0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) source in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """Relative entropy D(q || p) in bits.

    Requires a fully supported reference p so the divergence stays finite.
    """
    if q.alphabet_size != p.alphabet_size:
        raise DimensionError("kl_divergence: alphabet sizes differ")
    if not p.full_support:
        raise ValueError("kl_divergence: reference distribution must have full support")
    qa, pa = q.probs, p.probs
    mask = qa > 0
    return float((qa[mask] * (np.log2(qa[mask]) - np.log2(pa[mask]))).sum())


def binary_kl(q: float, p: float) -> float:
    """Relative entropy between Bernoulli(q) and Bernoulli(p), in bits."""
    if not 0.0 < p < 1.0:
        raise ValueError("binary_kl: reference parameter must lie in (0, 1)")
    if not 0.0 <= q <= 1.0:
        raise ValueError("binary_kl: argument must lie in [0, 1]")
    total = 0.0
    if q > 0.0:
        total += q * math.log2(q / p)
    if q < 1.0:
        total += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return total


def expected_distortion(
    conditional: np.ndarray, source: Distribution, d: DistortionMeasure
) -> float:
    """Average distortion of a test channel: sum_x sum_y source(x) W(y|x) d(x, y)."""
    w = np.asarray(conditional, dtype=np.float64)
    if w.shape != (d.rows, d.cols):
        raise DimensionError("expected_distortion: conditional shape does not match distortion matrix")
    if d.rows != source.alphabet_size:
        raise DimensionError("expected_distortion: source alphabet does not match distortion rows")
    row_sums = w.sum(axis=1)
    if np.any(w < -1e-12) or np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise ValueError("expected_distortion: conditional rows must be distributions")
    return float((source.probs[:, None] * w * d.matrix).sum())


def count_types(n: int, alphabet_size: int) -> int:
    """Number of length-n types over an alphabet of the given size."""
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def type_count_vectors(n: int, alphabet_size: int) -> np.ndarray:
    """All length-n types as rows of counts, (types, alphabet_size) int64.

    The order is lexicographically descending on the count vector, so the
    all-mass-on-symbol-0 type comes first.  Raises CapExceededError when the
    type count exceeds ``DEFAULT_TYPE_CAP``.
    """
    if n < 1:
        raise ValueError("blocklength must be positive")
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    total = count_types(n, alphabet_size)
    if total > DEFAULT_TYPE_CAP:
        raise CapExceededError(f"{total} types exceed the cap of {DEFAULT_TYPE_CAP}")
    levels = []  # per count column: each row's parent row and its count
    remaining = np.array([n], dtype=np.int64)
    for _ in range(alphabet_size - 1):
        # each row branches into next counts remaining, remaining - 1, ..., 0
        parent = np.repeat(np.arange(remaining.size), remaining + 1)
        count = np.cumsum(remaining + 1)[parent] - 1 - np.arange(parent.size)
        levels.append((parent, count))
        remaining = remaining[parent] - count
    rows = np.empty((remaining.size, alphabet_size), dtype=np.int64)
    rows[:, -1], row = remaining, np.arange(remaining.size)
    for col, (parent, count) in reversed(list(enumerate(levels))):
        rows[:, col], row = count[row], parent[row]
    return rows


def enumerate_types(n: int, alphabet_size: int) -> list[TypeClass]:
    """All length-n types over {0, ..., alphabet_size-1}, in the order of
    :func:`type_count_vectors`."""
    rows = type_count_vectors(n, alphabet_size)
    return [TypeClass(n, tuple(c)) for c in rows.tolist()]


def types_within(n: int, p: Distribution, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`type_count_vectors` rows, and the ascending ids of the rows Q
    with ``not kl_divergence(Q, p) > threshold``.  One vector pass sums the
    scalar's terms in another order, which moves a sum by far less than 1e-12
    of its absolute terms; a type in that band is decided by the scalar."""
    if not p.full_support:
        raise ValueError("types_within: reference distribution must have full support")
    rows = type_count_vectors(n, p.alphabet_size)
    q = np.arange(n + 1)[:, None] / n  # q[c] = c / n; a zero count adds 0 * (log2(1) - log2 p)
    terms = (q * (np.log2(q + (q == 0)) - np.log2(p.probs)))[rows, np.arange(p.alphabet_size)]
    div = terms.sum(axis=1)
    inside = ~(div > threshold)
    for i in np.flatnonzero(abs(div - threshold) <= 1e-12 * (1.0 + abs(terms).sum(axis=1))).tolist():
        inside[i] = not kl_divergence(Distribution(rows[i] / n), p) > threshold
    return rows, np.flatnonzero(inside)


def type_class_probability(t: TypeClass, p: Distribution) -> float:
    """Exact probability that an i.i.d. p-sequence lands in the type class of t."""
    if t.alphabet_size != p.alphabet_size:
        raise DimensionError("type_class_probability: alphabet sizes differ")
    letters = [x for x, c in enumerate(t.counts) if c]
    return type_probability(t.n, [t.counts[x] for x in letters], p.probs[letters].tolist())


def type_probability(n: int, counts: Sequence[int], probs: Sequence[float]) -> float:
    """P^n of the type class of length-n sequences with these letter counts.

    ``counts`` are the nonzero counts in letter order and ``probs`` their
    letters' probabilities.  A zero count would add lgamma(1) = 0.0 to a
    nonnegative sum and nothing to log2 P, so leaving it out changes no bit.
    """
    log2p = 0.0
    for c, px in zip(counts, probs):
        if px == 0.0:
            return 0.0
        log2p += c * math.log2(px)
    return float(2.0 ** (_log2_multinomial(n, counts) + log2p))


def type_class_members(t: TypeClass) -> np.ndarray:
    """All sequences with the histogram of t, in lexicographic order.

    Returns an (m, n) int8 array; m equals ``t.cardinality``.  The class is
    grown one position at a time: each prefix is repeated once per symbol it
    has count left for, in symbol order, which keeps the rows lexicographic.
    """
    if t.cardinality > _MEMBER_CAP:
        raise CapExceededError(f"type class of size {t.cardinality} exceeds cap {_MEMBER_CAP}")
    rows = np.zeros((1, t.n), dtype=np.int8)
    remaining = np.array([t.counts], dtype=np.int64)
    for pos in range(t.n):
        parent, sym = np.nonzero(remaining)
        rows = rows[parent]
        rows[:, pos] = sym
        remaining = remaining[parent]
        remaining[np.arange(parent.size), sym] -= 1
    return rows


def lex_index(rows: np.ndarray, k: int) -> np.ndarray:
    """Lexicographic index of each row among all sequences of its length over k symbols."""
    index = np.zeros(rows.shape[0], dtype=np.int64)
    for t in range(rows.shape[1]):
        index *= k
        index += rows[:, t]
    return index


def lex_rows(index: np.ndarray, k: int, n: int) -> np.ndarray:
    """The length-n rows over k symbols, int8, at the given lexicographic indices.

    Filled one column at a time, last position first, by ``divmod``: the
    only temporaries are two int64 arrays of one entry per row.
    """
    rows = np.empty((index.size, n), dtype=np.int8)
    rest = np.array(index, dtype=np.int64)
    digit = np.empty_like(rest)
    for t in range(n - 1, -1, -1):
        np.divmod(rest, k, out=(rest, digit))
        rows[:, t] = digit
    return rows


def all_sequences(alphabet_size: int, n: int, max_sequences: int = 1 << 22) -> np.ndarray:
    """All length-n sequences over the alphabet, lexicographic, as (k^n, n) int8."""
    total = alphabet_size**n
    if total > max_sequences:
        raise CapExceededError(f"{total} sequences exceed the cap of {max_sequences}")
    return lex_rows(np.arange(total, dtype=np.int64), alphabet_size, n)

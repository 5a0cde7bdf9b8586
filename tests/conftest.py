"""Finite-n covering bounds shared by the leakage-trend tests, and the
test-only oracles the library does not need: the exact minimum cover, a
cover matrix of sequence rows, a packed cover matrix as booleans and back, the type of one sequence, the
binary Hamming closed forms, and a codebook's type blocks, as the
constructor takes them and as a saved file lays them out.

Plain helpers only: this file defines no fixtures and no collection hooks.
The tests import it as ``conftest``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from srleak.errors import CodebookError
from srleak.exponents import SystemSpec
from srleak.probcore import (TypeClass, binary_entropy, enumerate_types, kl_divergence,
                             lex_index, type_class_members)
from srleak.typecodec import _cover_matrix, _CoverKernel, key_bits


def sequence_type(seq: Sequence[int], alphabet_size: int) -> TypeClass:
    """Type (empirical histogram) of a symbol sequence."""
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sequence must be one-dimensional and non-empty")
    if arr.min() < 0 or arr.max() >= alphabet_size:
        raise ValueError("sequence symbols outside the alphabet")
    counts = np.bincount(arr, minlength=alphabet_size)
    return TypeClass(int(arr.size), tuple(int(c) for c in counts))


def per_letter_type_probability(counts: Sequence[int], probs: Sequence[float]) -> float:
    """P^n of a type class as it was first computed: lgamma over every count,
    zero counts too, then log2 P summed over the nonzero counts in letter order."""
    log2p = 0.0
    for c, px in zip(counts, probs):
        if c == 0:
            continue
        if px == 0.0:
            return 0.0
        log2p += c * math.log2(px)
    n = sum(counts)
    card = (math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)) / math.log(2.0)
    return float(2.0 ** (card + log2p))


def rd_binary_hamming(p: float, D: float) -> float:
    """Closed-form binary-source Hamming rate-distortion function.

    Degenerate sources (p of 0 or 1) need zero rate at any distortion level.
    """
    if D >= min(p, 1.0 - p):
        return 0.0
    return max(binary_entropy(p) - binary_entropy(D), 0.0)


def binary_hamming_sum_rate(p: float, R1: float, D1: float, D2: float) -> float:
    """Closed-form two-layer minimum sum rate for a binary source, Hamming pair.

    A binary Hamming source is successively refinable: once the first layer
    is feasible (R1 >= R(p, D1), less the solver's 1e-9 cut), the two layers
    together cost exactly R(p, D2).
    """
    if R1 < rd_binary_hamming(p, D1) - 1e-9:
        return math.inf
    return rd_binary_hamming(p, D2)


def cover_matrix(members: np.ndarray, candidates: np.ndarray, dmat: np.ndarray, level: float,
                 n: int) -> np.ndarray:
    """:func:`_cover_matrix` of member and candidate rows, under the kernel of
    ``(dmat, level, n)`` that ``build_codebook`` would build for their layer."""
    kx, kc = np.shape(dmat)
    return _cover_matrix(_CoverKernel(dmat, level, n), lex_index(members, kx), lex_index(candidates, kc))


def unpack_cover(bits: np.ndarray, n_members: int) -> np.ndarray:
    """A packed cover matrix as booleans: one row per candidate, one column per member."""
    return np.unpackbits(bits, axis=0, count=n_members).view(bool).T


def pack_cover(cover: np.ndarray) -> np.ndarray:
    """The packed layout :func:`_cover_matrix` returns, of a (candidates, members) boolean matrix."""
    return np.ascontiguousarray(np.packbits(cover, axis=1).T)


def minimum_cover_size(cover: np.ndarray) -> int:
    """Exact minimum number of candidates covering all members (tiny inputs).

    Solved as a binary integer program with scipy; the oracle the greedy
    construction is measured against at small blocklengths.
    """
    from scipy.optimize import LinearConstraint, milp

    n_cand, n_members = cover.shape
    keep = cover.any(axis=1)
    cov = cover[keep]
    constraints = LinearConstraint(cov.T.astype(np.float64), lb=np.ones(n_members))
    res = milp(
        c=np.ones(cov.shape[0]),
        constraints=constraints,
        integrality=np.ones(cov.shape[0]),
        bounds=(0, 1),
    )
    if not res.success:
        raise CodebookError(f"minimum-cover program failed: {res.message}")
    return int(round(res.fun))


def inball_type_classes(spec: SystemSpec, n: int, delta: float) -> tuple[list[TypeClass], bool]:
    """Source types inside the widened ball D(Q||P) <= alpha + delta, and
    whether any type falls outside it (which realises the erasure message)."""
    inball, out_of_ball = [], False
    for t in enumerate_types(n, spec.source.alphabet_size):
        if kl_divergence(t.empirical(), spec.source) > spec.alpha + delta:
            out_of_ball = True
        else:
            inball.append(t)
    return inball, out_of_ball


def codebook_blocks(cb) -> list[tuple]:
    """The per-type blocks a ``CoverCodebook`` is made from, read back from its
    tables: type id, layer-1 codewords, per layer-1 codeword its layer-2
    codewords, and per class member (index, y position, z position); copies."""
    order = np.argsort(cb._seq_book, kind="stable")
    members = np.column_stack([cb._seq_index, cb._seq_ypos, cb._seq_zpos])[order]
    ends = np.cumsum(np.bincount(cb._seq_book, minlength=cb.type_ids.size)).tolist()
    blocks = []
    for k, (type_id, m0, m1) in enumerate(zip(cb.type_ids.tolist(), [0] + ends, ends)):
        rows = range(cb._y_offset[k], cb._y_offset[k] + cb._y_count[k])
        z_codes = [cb._Z[cb._z_offset[g] : cb._z_offset[g] + cb._z_count[g]].copy() for g in rows]
        blocks.append((type_id, cb._Y[rows.start : rows.stop].copy(), z_codes, members[m0:m1]))
    return blocks


def block_spans(cb) -> list[tuple[int, int]]:
    """Start and end byte of each type block in the file ``save_codebook`` writes for ``cb``."""
    kx, ka, kb = cb.spec.source.alphabet_size, cb.spec.d1.cols, cb.spec.d2.cols
    # magic, version, sizes, eight doubles, source law, both matrices, block count
    offset = 4 + 2 + 8 + 64 + 8 * kx * (1 + ka + kb) + 4
    members = np.bincount(cb._seq_book, minlength=cb.type_ids.size).tolist()
    spans = []
    for y0, ny, m in zip(cb._y_offset.tolist(), cb._y_count.tolist(), members):
        # type id, counts, then the layer-1, layer-2 and assignment tables, each after its length
        size = 4 + 4 * kx + 4 + cb.n * ny + 4 + 8 * m
        size += sum(4 + cb.n * nz for nz in cb._z_count[y0 : y0 + ny].tolist())
        spans.append((offset, offset + size))
        offset += size
    return spans


def largest_ball_in_type(spec: SystemSpec, t: TypeClass) -> int:
    """A_Q: the most members of T_Q within layer-1 distortion of one sequence.

    Permuting positions maps T_Q onto itself and keeps distortions, so the
    count depends only on the reconstruction's type; one representative per
    reconstruction type suffices.  The budget is the one ``_cover_matrix``
    applies when the codebook is built.
    """
    reps = np.array(
        [np.repeat(np.arange(spec.d1.cols), v.counts) for v in enumerate_types(t.n, spec.d1.cols)],
        dtype=np.int8,
    )
    bits = cover_matrix(type_class_members(t), reps, spec.d1.matrix, spec.D1, t.n)
    return int(np.bitwise_count(bits).sum(axis=0).max())


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def harmonic(m: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def covering_count_bounds(spec: SystemSpec, n: int, delta: float) -> tuple[int, int]:
    """Bounds on the layer-1 message count 2**L(M1) of the greedy scheme.

    Per in-ball type Q with |T_Q| members and largest ball A_Q, bins hold
    2**k codewords (k = key_bits(n, r1)), and the erasure message adds one
    when some type is outside the ball:

    * lower: ceil(ceil(|T_Q| / A_Q) / 2**k), the sphere-covering bound,
      which every cover of T_Q meets;
    * upper: ceil(min(|T_Q|, floor(H(A_Q) |T_Q| / A_Q)) / 2**k).  Greedy
      uses at most H(A_Q) times the fractional optimum (Lovasz 1975), which
      is at most |T_Q| / A_Q (uniform weight on the best reconstruction
      type class); and each greedy step covers a new member.

    Both counts are exact integers.
    """
    cap = 1 << key_bits(n, spec.r1)
    inball, out_of_ball = inball_type_classes(spec, n, delta)
    lower = upper = int(out_of_ball)
    for t in inball:
        size, a = t.cardinality, largest_ball_in_type(spec, t)
        lower += ceil_div(ceil_div(size, a), cap)
        upper += ceil_div(min(size, math.floor(harmonic(a) * Fraction(size, a))), cap)
    return lower, upper

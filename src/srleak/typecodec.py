"""Exact finite-blocklength construction of the two-layer encrypted code.

The scheme, per source type inside the divergence ball:

* a first-layer codebook that covers the whole type class within D1,
  partitioned into bins of ``2**floor(n*r1)`` codewords,
* per first-layer codeword, a second-layer codebook covering its D1
  neighborhood inside the type class within D2, binned by ``2**floor(n*r2)``,
* messages carry (type id, bin index, within-bin index XOR key prefix); the
  within-bin field is the only encrypted part,
* sequences whose type falls outside the ball map to a reserved erasure
  message in both layers.

Codebooks are built greedily (maximum coverage, lexicographic tie-break) and
each source sequence is assigned to the codeword that first covered it, so
every codeword carries at least one sequence.  Messages are width-tagged
structured tuples (a variable-length wire format), which makes the
bin-counting closed form for maximal leakage agree exactly with the
definitional sum over messages of the largest conditional probability.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterable, Literal

import numpy as np

from .errors import CapExceededError, CodebookError, DimensionError, RateConditionError
from .exponents import RateModel, SystemSpec, max_rd_over_ball
from .probcore import (
    Distribution,
    DistortionMeasure,
    TypeClass,
    all_sequences,
    lex_index,
    lex_rows,
    type_class_members,
    type_count_vectors,
    type_probability,
    types_within,
)
# unused here; perfbench/selftest.py asserts that its tracer patches this binding
from .rdsolver import rd_function  # noqa: F401

Which = Literal["M1", "M1M2"]

DEFAULT_SEQ_CAP = 1 << 22
DEFAULT_COVER_CELLS = 1_200_000_000
DEFAULT_ENUM_CAP = 1 << 24

_MAGIC = b"SRCB"
_VERSION = 1


@dataclass(frozen=True)
class Layer1Message:
    """First-layer message: type id, bin index, encrypted within-bin index.

    ``cipher_width`` is the bit width of the encrypted field and is part of
    the message identity (fields are not zero-padded on the wire).
    """

    type_id: int
    bin_index: int
    cipher: int
    cipher_width: int
    erasure: bool = False


@dataclass(frozen=True)
class Layer2Message:
    """Second-layer message: bin index and encrypted within-bin index.

    Both field widths vary with the first-layer codeword, so they belong to
    the message identity.
    """

    bin_index: int
    bin_width: int
    cipher: int
    cipher_width: int
    erasure: bool = False


M0_LAYER1 = Layer1Message(-1, 0, 0, 0, True)
M0_LAYER2 = Layer2Message(-1, 0, 0, 0, True)


@dataclass(frozen=True)
class KeyPair:
    """Uniformly sampled keys as integers of fixed bit widths."""

    k1: int
    k2: int
    bits1: int
    bits2: int

    def __post_init__(self) -> None:
        if not 0 <= self.k1 < (1 << self.bits1):
            raise ValueError("layer-1 key outside its bit width")
        if not 0 <= self.k2 < (1 << self.bits2):
            raise ValueError("layer-2 key outside its bit width")


@dataclass
class DecodeResult:
    xhat1: np.ndarray
    xhat2: np.ndarray
    erased: bool


def key_bits(n: int, rate: float) -> int:
    """Key length in bits for a blocklength and key rate: floor(n * rate)."""
    return int(math.floor(n * rate + 1e-9))


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length() if m > 1 else 0


def _ceil_log2_array(m: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_ceil_log2`; frexp's exponent is the bit length,
    exactly, for integers below 2^53."""
    return np.frexp(np.maximum(m - 1, 0).astype(np.float64))[1].astype(np.int64)


def _key_prefix(key: int, total_bits: int, width: int) -> int:
    return key >> (total_bits - width) if width < total_bits else key


def _key_prefix_array(key: np.ndarray, total_bits: int, width: np.ndarray) -> np.ndarray:
    return key >> np.maximum(total_bits - width, 0)


# one in-ball type's code as build_codebook and load_codebook hand it over:
# type id, layer-1 codewords (ny, n), per layer-1 codeword its layer-2
# codewords (nz, n), both int8 and lexicographic, and per class member its
# (lexicographic index, y position, z position) as an (m, 3) int64 row
_Block = tuple[int, np.ndarray, list[np.ndarray], np.ndarray]


@dataclass
class _Messages:
    """Message fields of many encodings, one row per (sequence, key pair).

    Row r holds the fields of the scalar ``encode`` messages: erasure rows
    carry the fields of ``M0_LAYER1`` and ``M0_LAYER2``.
    """

    erasure: np.ndarray
    type_id: np.ndarray
    bin1: np.ndarray
    cipher1: np.ndarray
    width1: np.ndarray
    bin2: np.ndarray
    bin_width2: np.ndarray
    cipher2: np.ndarray
    width2: np.ndarray

    def columns(self, which: Which) -> np.ndarray:
        """One int64 row per message; equal rows are equal messages."""
        cols = [self.erasure, self.type_id, self.bin1, self.cipher1, self.width1]
        if which == "M1M2":
            cols += [self.bin2, self.bin_width2, self.cipher2, self.width2]
        return np.column_stack(cols).astype(np.int64)


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of a 2-D integer array, grouped by one sort.

    Returns the permutation that sorts the rows lexicographically and the
    positions in it where each run of equal rows starts, so that
    ``rows[order[starts]]`` are the rows of ``np.unique(rows, axis=0)``.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.concatenate([[rows.shape[0] > 0], (ranked[1:] != ranked[:-1]).any(axis=1)])
    return order, np.flatnonzero(new)


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


class CoverCodebook:
    """Built two-layer codebook: its rate model and one set of codec tables.

    The constructor stacks one ``_Block`` per in-ball type into the tables
    and keeps nothing else, so each codeword, assignment and type is held
    once.  Block type ids other than :func:`types_within`'s at ``alpha +
    delta``, an assignment to a missing codeword, books over the message
    budgets and a covering violation (checked last) raise CodebookError;
    symbols, indices or keys too wide for the codec's fields raise
    CapExceededError.  The tables are arrays:

    * ``type_ids``/``type_counts``: per book, its type's id and its row of
      :func:`type_count_vectors`;
    * ``_seq_index``: sorted lexicographic indices of the in-ball sequences,
      with ``_seq_book``, ``_seq_ypos`` and ``_seq_zpos`` aligned to it;
    * ``_y_count``/``_y_offset``: layer-1 codewords per book and where they
      start in the stacked ``_Y``;
    * ``_z_count``/``_z_offset``: layer-2 codewords per layer-1 codeword
      (indexed by its row in ``_Y``) and where they start in ``_Z``;
    * ``_book_of_type``: type id to book index, -1 for out-of-ball types.

    The counts fix the bin layout: bins of ``cap`` codewords, the last one
    short, each field ``ceil(log2 size)`` bits wide.  Every reader takes it
    from ``_y_count`` and ``_z_count``; the scalar :func:`encode` and
    :func:`decode` redo the arithmetic per call, as the reference the array
    codec is tested against.

    ``model`` is the :class:`RateModel` the codebook was built with (a loaded
    codebook makes one); the attack chain and the CLI reuse it.
    """

    def __init__(self, model: RateModel, n: int, delta: float, blocks: list[_Block]) -> None:
        self.model = model
        self.spec = spec = model.spec
        self.n = n
        self.delta = delta
        self.bits1 = key_bits(n, spec.r1)
        self.bits2 = key_bits(n, spec.r2)
        self.cap1 = 1 << self.bits1
        self.cap2 = 1 << self.bits2
        _require_codec_widths(spec, n)
        rows, ball = types_within(n, spec.source, spec.alpha + delta)
        self.total_types = len(rows)
        self.has_out_of_ball = len(blocks) < self.total_types

        ids = [b[0] for b in blocks]
        if ids != ball.tolist():
            raise CodebookError(f"codebook type ids {ids} are not the in-ball type ids {ball.tolist()}")
        self.type_ids = ball
        self.type_counts = rows[ball]
        self._book_of_type = np.full(self.total_types, -1, dtype=np.int64)
        self._book_of_type[self.type_ids] = np.arange(len(blocks))
        self._y_count = np.array([len(b[1]) for b in blocks], dtype=np.int64)
        self._y_offset = _offsets(self._y_count)
        no_codes = np.zeros((0, n), dtype=np.int8)
        self._Y = np.concatenate([no_codes] + [b[1] for b in blocks])
        z_books = [z for b in blocks for z in b[2]]
        self._z_count = np.array([len(z) for z in z_books], dtype=np.int64)
        self._z_offset = _offsets(self._z_count)
        self._Z = np.concatenate([no_codes] + z_books)

        members = np.concatenate([np.zeros((0, 3), dtype=np.int64)] + [b[3] for b in blocks])
        book = np.repeat(np.arange(len(blocks)), [len(b[3]) for b in blocks])
        ypos, zpos = members[:, 1], members[:, 2]
        ok = (ypos >= 0) & (ypos < self._y_count[book])
        ok[ok] = (zpos[ok] >= 0) & (zpos[ok] < self._z_count[self._y_offset[book[ok]] + ypos[ok]])
        if not ok.all():
            counts = tuple(self.type_counts[book[np.argmin(ok)]].tolist())
            raise CodebookError(f"assignment of type {counts} names a missing codeword")
        order = np.argsort(members[:, 0], kind="stable")
        self._seq_index, self._seq_ypos, self._seq_zpos = np.ascontiguousarray(members[order].T)
        self._seq_book = book[order]

        # realized message structure: layer-1 bins, and (bin, second-layer shape)
        f = self._fields(self._seq_book, self._seq_ypos, self._seq_zpos)
        self._realized_bins = _group_rows(np.column_stack([self._seq_book, f["i"]]))[1].size
        self._realized_shapes = _group_rows(
            np.column_stack([self._seq_book, f["i"], f["wu"], f["u"], f["s2"]])
        )[1].size
        del members, book, ok, order, f  # free before the checks, which allocate their own
        _check_budgets(self)
        verify_covering(self)

    def _fields(self, k: np.ndarray, ypos: np.ndarray, zpos: np.ndarray) -> dict[str, np.ndarray]:
        """Bin arithmetic of ``encode`` for many (book, y position, z position) rows."""
        i, j = np.divmod(ypos, self.cap1)
        nz = self._z_count[self._y_offset[k] + ypos]
        u, v = np.divmod(zpos, self.cap2)
        return {
            "i": i, "j": j, "u": u, "v": v,
            "s1": _ceil_log2_array(np.minimum(self.cap1, self._y_count[k] - i * self.cap1)),
            "wu": _ceil_log2_array(-(-nz // self.cap2)),
            "s2": _ceil_log2_array(np.minimum(self.cap2, nz - u * self.cap2)),
        }

    # -- message-space accounting -------------------------------------------

    def layer1_message_count(self) -> int:
        """Patterns of the layer-1 field over all bins: ``cap1`` per full bin,
        ``2^ceil(log2 size)`` per short last bin."""
        full, short = np.divmod(self._y_count, self.cap1)
        return int(full.sum()) * self.cap1 + int((1 << _ceil_log2_array(short[short > 0])).sum())

    def layer2_message_count(self) -> int:
        """Patterns of the layer-2 field over the distinct (bin-index width,
        bin index, cipher width) shapes of all layer-2 bins."""
        nbins = -(-self._z_count // self.cap2)
        nz = np.repeat(self._z_count, nbins)
        u = np.arange(nz.size) - np.repeat(_offsets(nbins), nbins)
        shapes = np.column_stack([
            np.repeat(_ceil_log2_array(nbins), nbins), u,
            _ceil_log2_array(np.minimum(self.cap2, nz - u * self.cap2)),
        ])
        order, starts = _group_rows(shapes)
        return int((1 << shapes[order[starts], 2]).sum())

    def total_y_codewords(self) -> int:
        return len(self._Y)

    def total_z_codewords(self) -> int:
        return len(self._Z)

    def _locate(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per lexicographic index: whether its sequence is in the ball, and its codec-table row."""
        pos = np.searchsorted(self._seq_index, index)
        hit = pos < self._seq_index.size
        hit[hit] = self._seq_index[pos[hit]] == index[hit]
        return hit, pos

    def lookup(self, x: np.ndarray) -> tuple[int, int, int] | None:
        """(book, y position, z position) of an in-ball sequence, None outside the ball.

        :meth:`_locate` of one sequence, with the lexicographic index summed
        in Python ints: a per-position numpy loop costs more than the search.
        Symbols are range-checked as given, before any cast could wrap them.
        """
        kx = self.spec.source.alphabet_size
        index = 0
        for s in np.asarray(x).ravel().tolist():
            if not 0 <= s < kx:
                return None
            index = index * kx + s
        p = int(np.searchsorted(self._seq_index, index))
        if p == self._seq_index.size or int(self._seq_index[p]) != index:
            return None
        return int(self._seq_book[p]), int(self._seq_ypos[p]), int(self._seq_zpos[p])


_CHUNK_CELLS = 250_000
# bytes of packed cover matrix per gain block of the greedy cover
_GAIN_BYTES = 1 << 18
# live bytes of a cover (wanted byte rows x candidates with a gain) below
# which the greedy picks on Python ints: over the seed-7 codebook-build and
# codebook-reuse covers the int loop won below 1 KiB and lost above it
_INT_GREEDY_BYTES = 1 << 10
# rows per batch of the array codec (Monte-Carlo draws, oracle, verification)
_CODEC_CHUNK = 4096


def _half_table(dmat: np.ndarray, length: int) -> np.ndarray:
    """Distortion sums over ``length`` positions, candidate-major: (kc^length, kx^length).

    Rows and columns follow the lexicographic order of the half-sequences.
    Each entry is summed position by position from zero, as the full sum is.
    """
    kx, kc = dmat.shape
    table = np.zeros((1, 1))
    for _ in range(length):
        table = (table[:, None, :, None] + dmat.T[None, :, None, :]).reshape(
            table.shape[0] * kc, table.shape[1] * kx
        )
    return table


def _cover_band(dmat: np.ndarray, n: int) -> float:
    """Rounding band of a distortion sum over ``n`` positions.

    Any summation order of n terms is within (n - 1) (eps / 2) n max|d| of
    the exact sum, less than a quarter of this band, so two orders differ by
    less than half of it.
    """
    return 1e-12 + 2.0 * n * n * float(np.abs(dmat).max()) * np.finfo(np.float64).eps


def _candidate_types(candidates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Type index of each candidate over ``k`` symbols, and one representative
    (the first candidate in index order) per type."""
    # a type's code is the index of its sorted sequence, below k^n like every candidate's
    code = lex_index(np.sort(candidates, axis=1), k)
    _, first, of = np.unique(code, return_index=True, return_inverse=True)
    return of.ravel(), candidates[first]


def _reachable(
    members: np.ndarray, types: tuple[np.ndarray, np.ndarray], dmat: np.ndarray, level: float, n: int
) -> np.ndarray:
    """Ascending indices of the candidates whose type can cover a member.

    ``members`` is a whole type class and ``types`` is what
    :func:`_candidate_types` returns for the candidates.  A candidate type is
    kept when the in-order distortion sum from its representative to some
    member is at most ``budget + band``, with the budget and band of
    :func:`_cover_matrix`.  Dropping the rest is exact: a permutation of
    positions maps any (member, candidate) pair onto a (member', representative)
    pair with the same multiset of symbol pairs, and member' is in the class,
    so both exact sums are equal.  Each in-order float sum is within band / 4
    of its exact sum, so a candidate whose cell is True in
    :func:`_cover_matrix` (in-order sum at most the budget) has a type whose
    representative sums to at most ``budget + band / 2`` for some member.
    Every cell of a dropped candidate is therefore False.
    """
    of, reps = types
    sums = np.zeros((reps.shape[0], members.shape[0]))
    for t in range(n):
        sums += dmat[members[None, :, t], reps[:, t, None]]
    live = sums.min(axis=1) <= level * n + 1e-9 + _cover_band(dmat, n)
    return np.flatnonzero(live[of])


def _prefix_counts(left: np.ndarray, right: np.ndarray, limit: float) -> np.ndarray:
    """Per entry of ``left``, how many entries of the ascending ``right`` have
    ``left + right <= limit`` as a float sum.

    Rounding is monotone, so those entries are a prefix of ``right``; its
    length is found bit by bit, highest bit first.
    """
    count = np.zeros(left.size, dtype=np.int64)
    step = 1 << right.size.bit_length()
    while step:
        trial = count + step
        ok = np.flatnonzero(trial <= right.size)
        ok = ok[left[ok] + right[trial[ok] - 1] <= limit]
        count[ok] = trial[ok]
        step >>= 1
    return count


def _cover_matrix(
    members: np.ndarray, candidates: np.ndarray, dmat: np.ndarray, level: float, n: int
) -> np.ndarray:
    """Packed cover matrix: whether candidate c covers member m within average distortion.

    Meet in the middle: the distortion of a pair is the sum of two half-block
    sums, each from a table over all half-sequences.  The tables hold the
    ranks of their few distinct sums.  The float sum of a left value and the
    right values is monotone in the right value, so the right sums that keep
    it at most ``budget - band`` ("sure") or ``budget + band`` ("near") are
    prefixes, and a cell is sure iff its right rank is below its left sum's
    sure count.  Regrouping the sum moves it by less than ``band``; cells
    that are near but not sure are summed again position by position, so
    every cell equals the comparison ``sum_t d(x_t, c_t) <= level * n + 1e-9``
    with the sum taken in order.

    One bit per cell: the result is a ``(ceil(m / 8), candidates)`` uint8
    array whose byte row j holds members 8j to 8j + 7 in ``np.packbits``
    order (member 8j in the high bit), the layout :func:`_greedy_cover`
    reads.  Padding bits past the last member are zero.
    """
    dmat = np.ascontiguousarray(dmat, dtype=np.float64)
    kx, kc = dmat.shape
    h = n // 2
    n_members = members.shape[0]
    out = np.zeros((-(-n_members // 8), candidates.shape[0]), dtype=np.uint8)
    budget = level * n + 1e-9
    band = _cover_band(dmat, n)
    # each half table as ranks of its distinct sums, ascending
    left_vals, left_rank = np.unique(_half_table(dmat, h), return_inverse=True)
    right_vals, right_rank = np.unique(_half_table(dmat, n - h), return_inverse=True)
    rank_type = np.min_scalar_type(right_vals.size)
    # per left sum, how many right sums keep the regrouped sum within each limit
    sure_at = _prefix_counts(left_vals, right_vals, budget - band).astype(rank_type)
    near_at = _prefix_counts(left_vals, right_vals, budget + band).astype(rank_type)
    # per half: rows indexed by candidate half, columns by member
    left_rank = left_rank.reshape(kc**h, kx**h)
    left_cols = lex_index(members[:, :h], kx)
    sure_left = np.take(sure_at[left_rank], left_cols, axis=1)
    near_left = np.take(near_at[left_rank], left_cols, axis=1) if (near_at != sure_at).any() else None
    right_rank = right_rank.reshape(kc ** (n - h), kx ** (n - h)).astype(rank_type)
    right = np.take(right_rank, lex_index(members[:, h:], kx), axis=1)
    chunk = max(1, _CHUNK_CELLS // max(n_members, 1))
    rows = min(chunk, candidates.shape[0])
    thr_buf = np.empty((rows, n_members), dtype=rank_type)
    rank_buf = np.empty((rows, n_members), dtype=rank_type)
    sure_buf = np.empty((rows, n_members), dtype=bool)
    near_buf = np.empty((rows, n_members), dtype=bool)
    for start in range(0, candidates.shape[0], chunk):
        stop = min(start + chunk, candidates.shape[0])
        thr, r = thr_buf[: stop - start], rank_buf[: stop - start]
        sure, near = sure_buf[: stop - start], near_buf[: stop - start]
        # indices are in range by construction; "clip" skips a buffered copy
        cand_left = lex_index(candidates[start:stop, :h], kc)
        np.take(right, lex_index(candidates[start:stop, h:], kc), axis=0, out=r, mode="clip")
        np.take(sure_left, cand_left, axis=0, out=thr, mode="clip")
        np.less(r, thr, out=sure)
        if near_left is not None:
            np.take(near_left, cand_left, axis=0, out=thr, mode="clip")
            np.less(r, thr, out=near)
            ci, mi = np.nonzero(near ^ sure)
            exact = np.zeros(ci.size)
            for t in range(n):
                exact += dmat[members[mi, t], candidates[start + ci, t]]
            sure[ci, mi] = exact <= budget
        out[:, start:stop] = np.packbits(sure, axis=1).T
    return out


def _greedy_cover(bits: np.ndarray, wanted: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Maximum-coverage greedy selection of the members in ``wanted`` (first index wins ties).

    ``bits`` is a packed matrix as :func:`_cover_matrix` returns it and
    ``wanted`` a boolean mask over its members.  Returns the selected
    candidate indices in chronological order and, per member, the
    chronological rank of the selection that first covered it (-1 for a
    member not wanted).

    Each candidate's gain is the popcount of its column under the mask,
    counted a block of byte rows (about ``_GAIN_BYTES``) at a time together
    with the check that every wanted member has a candidate.  The live part
    is the byte rows that hold a wanted member times the candidates with a
    gain; a dropped candidate has no gain and never wins a pick.  Below
    ``_INT_GREEDY_BYTES`` of live part the picks are made by
    :func:`_int_picks`, otherwise by :func:`_packed_picks`; both pick the
    first candidate of largest gain, so the picks, their order and every
    first cover are the same on either loop.
    """
    first_cover = np.full(wanted.size, -1, dtype=np.int64)
    mask = np.packbits(wanted)
    rows = np.flatnonzero(mask)
    gains = np.zeros(bits.shape[1], dtype=np.int32)
    reach = np.zeros(rows.size, dtype=np.uint8)
    step = max(1, _GAIN_BYTES // max(bits.shape[1], 1))
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        cells = np.take(bits, block, axis=0)
        cells &= mask[block, None]
        reach[start : start + block.size] = np.bitwise_or.reduce(cells, axis=1)
        gains += np.add.reduce(np.bitwise_count(cells, out=cells), axis=0, dtype=np.int32)
    if (reach != mask[rows]).any():
        raise CodebookError("covering infeasible: a member has no candidate within budget")
    keep = np.flatnonzero(gains)
    live = rows.size * keep.size
    if live < _INT_GREEDY_BYTES:
        selected, rank, cell = _int_picks(bits[rows[:, None], keep], mask[rows], gains[keep])
    else:
        if 2 * live <= bits.size:
            bits, gains, mask = bits[np.ix_(rows, keep)], gains[keep], mask[rows]
        else:
            keep, rows = np.arange(bits.shape[1]), np.arange(bits.shape[0])
        selected, rank, cell = _packed_picks(bits, gains, mask, int(np.count_nonzero(wanted)))
    # cell 8j + b is bit b (high bit first) of live byte row j
    first_cover[8 * rows[cell >> 3] + (cell & 7)] = rank
    return keep[selected].tolist(), first_cover


def _int_picks(
    cells: np.ndarray, mask: np.ndarray, gains: np.ndarray
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Lazy greedy on a small live part, one Python int per candidate column.

    ``cells`` is the live byte rows by the live candidates (a copy, masked
    here), ``mask`` the wanted bits of those rows and ``gains`` each
    candidate's popcount under the mask.  A heap keyed by (-gain, index) is
    refreshed only at its top (Minoux's accelerated greedy): gains never
    rise, so a stale key bounds its candidate's gain, and a top whose
    recounted gain equals its key is the first candidate of largest gain.
    Returns the picks, and per newly covered cell its pick's rank and its
    position in the live rows.
    """
    width = cells.shape[0]
    cells &= mask[:, None]
    flat = cells.T.tobytes()
    cols = [int.from_bytes(flat[i * width : (i + 1) * width], "big") for i in range(cells.shape[1])]
    uncovered = int.from_bytes(mask.tobytes(), "big")
    heap = [(-g, i) for i, g in enumerate(gains.tolist())]
    heapq.heapify(heap)
    selected: list[int] = []
    # the newly covered bits of every pick, one width-byte field per pick
    newly = 0
    while uncovered:
        key, i = heap[0]
        hit = cols[i] & uncovered
        gain = hit.bit_count()
        if gain == -key:
            heapq.heappop(heap)
            uncovered ^= hit
            selected.append(i)
            newly = newly << 8 * width | hit
        elif gain:
            heapq.heapreplace(heap, (-gain, i))
        else:
            heapq.heappop(heap)
    hits = np.frombuffer(newly.to_bytes(width * len(selected), "big"), np.uint8)
    rank, cell = np.divmod(np.unpackbits(hits).nonzero()[0], 8 * width)
    return selected, rank, cell


def _packed_picks(
    bits: np.ndarray, gains: np.ndarray, uncovered: np.ndarray, remaining: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Greedy on the packed matrix with a gains vector, for ``remaining`` wanted members.

    Each pick subtracts, from every gain, the popcount of the members it
    newly covers, only in the byte rows it touches and one block of about
    ``_GAIN_BYTES`` at a time.  ``uncovered`` (the mask of wanted bits per
    byte row) is consumed.  Returns what :func:`_int_picks` returns.
    """
    step = max(1, _GAIN_BYTES // max(bits.shape[1], 1))
    selected: list[int] = []
    hits: list[np.ndarray] = []
    hit_bytes: list[np.ndarray] = []
    while remaining:
        best = int(gains.argmax())
        # a pick's gain is the count of members it newly covers
        remaining -= int(gains[best])
        newly = bits[:, best] & uncovered
        uncovered ^= newly
        touched = newly.nonzero()[0]
        got = newly[touched]
        selected.append(best)
        hits.append(touched)
        hit_bytes.append(got)
        for start in range(0, touched.size, step):
            cells = bits[touched[start : start + step]]
            cells &= got[start : start + step, None]
            gains -= np.add.reduce(np.bitwise_count(cells, out=cells), axis=0, dtype=np.int32)
    i, j = np.nonzero(np.unpackbits(np.concatenate(hit_bytes)[:, None], axis=1))
    rank = np.repeat(np.arange(len(selected)), [h.size for h in hits])
    return selected, rank[i], 8 * np.concatenate(hits)[i] + j


def default_delta(model: RateModel) -> float:
    """Half the layer-1 rate margin over the ball maximum, clamped positive."""
    ball_max = max_rd_over_ball(model, model.spec.alpha)
    margin = model.spec.R1 - ball_max
    if margin <= 0:
        raise RateConditionError(
            f"layer-1 rate {model.spec.R1} does not exceed the ball maximum {ball_max:.6f}"
        )
    return 0.5 * margin


def _require_codec_widths(spec: SystemSpec, n: int) -> None:
    """Refuse a code whose symbols, sequence indices or keys overflow the codec's int fields."""
    kx = spec.source.alphabet_size
    for size in (kx, spec.d1.cols, spec.d2.cols):
        if size > 127:
            raise CapExceededError(f"a {size}-letter alphabet exceeds the codec's 127-symbol limit")
    if kx**n > np.iinfo(np.int64).max:
        raise CapExceededError(f"{kx}^{n} sequences exceed the int64 sequence index")
    for layer, bits in ((1, key_bits(n, spec.r1)), (2, key_bits(n, spec.r2))):
        if bits > 62:
            raise CapExceededError(f"a layer-{layer} key of {bits} bits exceeds the 62-bit int64 key field")


def _require_delta(delta: float) -> None:
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta == math.inf:
        raise ValueError("delta must be finite")


def build_codebook(
    spec: SystemSpec,
    n: int,
    delta: float | None = None,
    *,
    max_sequences: int = DEFAULT_SEQ_CAP,
    max_cover_cells: int = DEFAULT_COVER_CELLS,
) -> CoverCodebook:
    """Construct the per-type covering codebooks and assignment maps.

    ``delta`` widens the divergence ball that selects which types get real
    codebooks; by default it is half the layer-1 rate margin.  Raises
    CodebookError when a type's rate requirement or the message-space budget
    conflicts with the configured rates, naming the offending type; the
    :class:`CoverCodebook` constructor checks the budgets and the covering.

    Each cover is computed only against the candidates of the types that can
    cover a member of the class (:func:`_reachable`), and the layer-2 covers
    of one type are one matrix under each layer-1 codeword's member mask; the
    greedy picks, and so the codebook, are those of covers over every
    candidate.
    """
    if n < 1:
        raise ValueError("blocklength must be positive")
    kx = spec.source.alphabet_size
    ka, kb = spec.d1.cols, spec.d2.cols
    _require_codec_widths(spec, n)
    for size in (kx, ka, kb):
        if size**n > max_sequences:
            raise CapExceededError(f"{size}^{n} sequences exceed the cap of {max_sequences}")
    model = RateModel(spec)
    if delta is None:
        delta = default_delta(model)
    _require_delta(delta)

    cand_y = all_sequences(ka, n, max_sequences)
    cand_z = all_sequences(kb, n, max_sequences)
    types_y = _candidate_types(cand_y, ka)
    types_z = _candidate_types(cand_z, kb)

    blocks: list[_Block] = []
    rows, ball = types_within(n, spec.source, spec.alpha + delta)
    for type_id, counts in zip(ball.tolist(), rows[ball].tolist()):
        t = TypeClass(n, tuple(counts))
        rd1 = model.rd(t.empirical(), 1)
        if not rd1 < spec.R1 - 1e-12:
            raise CodebookError(
                f"type {t.counts} needs layer-1 rate {rd1:.6f}, which is not below R1={spec.R1}"
            )
        members = type_class_members(t)
        live_y = _reachable(members, types_y, spec.d1.matrix, spec.D1, n)
        live_z = _reachable(members, types_z, spec.d2.matrix, spec.D2, n)
        for name, live in (("cover matrix", live_y), ("layer-2 cover matrix", live_z)):
            if members.shape[0] * live.size > max_cover_cells:
                raise CapExceededError(f"{name} for type {t.counts} exceeds {max_cover_cells} cells")
        cover1 = _cover_matrix(members, cand_y[live_y], spec.d1.matrix, spec.D1, n)
        chrono_y, first_y = _greedy_cover(cover1, np.ones(members.shape[0], dtype=bool))

        # lexicographic codeword order; members keep their chronological owner
        y_sel, y_pos = _lex_order(chrono_y)
        y_codes = cand_y[live_y[y_sel]]
        # per member: lexicographic index, y position, z position
        assign = np.zeros((members.shape[0], 3), dtype=np.int64)
        assign[:, 0] = lex_index(members, kx)
        assign[:, 1] = y_pos[first_y]
        y_cols = cover1[:, y_sel]
        del cover1  # before the layer-2 matrix is allocated, to keep the peak down
        # one layer-2 matrix per type; a codeword's layer-2 cover is that matrix
        # under the codeword's member set, its column of the layer-1 matrix
        cover2 = _cover_matrix(members, cand_z[live_z], spec.d2.matrix, spec.D2, n)
        z_codes: list[np.ndarray] = []
        for pos in range(y_sel.size):
            wanted = np.unpackbits(y_cols[:, pos], count=members.shape[0]).view(bool)
            chrono_z, first_z = _greedy_cover(cover2, wanted)
            z_sel, z_pos = _lex_order(chrono_z)
            z_codes.append(cand_z[live_z[z_sel]])
            owned = assign[:, 1] == pos  # a member's owner covers it, so it is wanted
            assign[owned, 2] = z_pos[first_z[owned]]
        del cover2  # before the next type's matrices are allocated
        blocks.append((type_id, y_codes, z_codes, assign))

    return CoverCodebook(model, n, delta, blocks)


def _lex_order(chrono: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Greedy picks in index order and, per chronological rank, the position
    of that rank's pick in index order."""
    order = np.argsort(chrono)
    rank_pos = np.empty_like(order)
    rank_pos[order] = np.arange(order.size)
    return np.asarray(chrono, dtype=np.int64)[order], rank_pos


def _check_budgets(cb: CoverCodebook) -> None:
    # per book: its layer-1 codewords, and the layer-2 codewords under them
    layers = [
        (1, cb.layer1_message_count, cb.spec.R1, "codebook", cb._y_count),
        (2, cb.layer2_message_count, cb.spec.R2, "refinement codebook",
         np.add.reduceat(cb._z_count, cb._y_offset)),
    ]
    for layer, message_count, rate, what, sizes in layers:
        m = message_count()
        if math.log2(m + 1) > cb.n * rate + 1e-9:  # never with no books: m = 0
            raise CodebookError(
                f"layer-{layer} messages ({m} patterns plus erasure) overflow 2^(n*R{layer}); "
                f"largest {what} at type {tuple(cb.type_counts[np.argmax(sizes)].tolist())}"
            )


def codebook_mismatch(cb: CoverCodebook, spec: SystemSpec, n: int) -> str | None:
    """The first :class:`SystemSpec` field, then n, on which ``cb`` differs from
    the ones asked for, as ``name = built!r, not asked!r``; None if none does."""
    checks = [(f.name, getattr(cb.spec, f.name), getattr(spec, f.name)) for f in fields(SystemSpec)]
    for name, built, asked in checks + [("n", cb.n, n)]:
        if built != asked:
            return f"{name} = {built!r}, not {asked!r}"
    return None


def verify_covering(cb: CoverCodebook) -> None:
    """Check both distortion guarantees for every assigned sequence.

    On a violation, names the first offending sequence in (book, member)
    order with the distortions a per-sequence sum gives.
    """
    spec, n = cb.spec, cb.n
    bad: list[tuple[int, int, float, float]] = []
    for start in range(0, cb._seq_index.size, _CODEC_CHUNK):
        sl = slice(start, start + _CODEC_CHUNK)
        rows = lex_rows(cb._seq_index[sl], spec.source.alphabet_size, n)
        g = cb._y_offset[cb._seq_book[sl]] + cb._seq_ypos[sl]
        dist1 = spec.d1.matrix[rows, cb._Y[g]].sum(axis=1) / n
        dist2 = spec.d2.matrix[rows, cb._Z[cb._z_offset[g] + cb._seq_zpos[sl]]].sum(axis=1) / n
        for r in np.flatnonzero((dist1 > spec.D1 + 1e-9) | (dist2 > spec.D2 + 1e-9)):
            bad.append((int(cb._seq_book[start + r]), int(cb._seq_index[start + r]),
                        float(dist1[r]), float(dist2[r])))
    if bad:
        k, _, dist1, dist2 = min(bad)
        raise CodebookError(
            f"covering violated at type {tuple(cb.type_counts[k].tolist())}: "
            f"distortions ({dist1}, {dist2})"
        )


# ---------------------------------------------------------------------------
# encoding, decoding, keys
# ---------------------------------------------------------------------------


def sample_keys(cb: CoverCodebook, rng: np.random.Generator) -> KeyPair:
    k1 = int(rng.integers(0, cb.cap1))
    k2 = int(rng.integers(0, cb.cap2))
    return KeyPair(k1, k2, cb.bits1, cb.bits2)


def encode(x: Iterable[int], keys: KeyPair, cb: CoverCodebook) -> tuple[Layer1Message, Layer2Message]:
    """Map a source sequence to its two messages (erasure pair when out of ball)."""
    arr = np.asarray(list(x) if not isinstance(x, np.ndarray) else x)
    if arr.shape != (cb.n,):
        raise DimensionError(f"sequence must have length {cb.n}")
    if keys.bits1 != cb.bits1 or keys.bits2 != cb.bits2:
        raise ValueError("key widths do not match the codebook rates")
    hit = cb.lookup(arr)
    if hit is None:
        return M0_LAYER1, M0_LAYER2
    k, ypos, zpos = hit
    i, j = divmod(ypos, cb.cap1)
    s1 = _ceil_log2(min(cb.cap1, int(cb._y_count[k]) - i * cb.cap1))
    cipher1 = j ^ _key_prefix(keys.k1, cb.bits1, s1)
    m1 = Layer1Message(int(cb.type_ids[k]), i, cipher1, s1)
    nz = int(cb._z_count[cb._y_offset[k] + ypos])
    u, v = divmod(zpos, cb.cap2)
    s2 = _ceil_log2(min(cb.cap2, nz - u * cb.cap2))
    cipher2 = v ^ _key_prefix(keys.k2, cb.bits2, s2)
    m2 = Layer2Message(u, _ceil_log2(-(-nz // cb.cap2)), cipher2, s2)
    return m1, m2


def _layer1_position(m1: Layer1Message, keys: KeyPair, cb: CoverCodebook) -> int:
    """Row in the stacked layer-1 codewords named by a non-erasure layer-1 message."""
    k = int(cb._book_of_type[m1.type_id]) if 0 <= m1.type_id < cb.total_types else -1
    if k < 0:
        raise CodebookError(f"message names unknown type id {m1.type_id}")
    i, ny = m1.bin_index, int(cb._y_count[k])
    if not 0 <= i < -(-ny // cb.cap1):
        raise CodebookError("layer-1 bin index out of range")
    size1 = min(cb.cap1, ny - i * cb.cap1)
    j = (m1.cipher ^ _key_prefix(keys.k1, cb.bits1, m1.cipher_width)) % size1
    return int(cb._y_offset[k]) + i * cb.cap1 + j


def decode_layer1(m1: Layer1Message, keys: KeyPair, cb: CoverCodebook) -> tuple[np.ndarray, bool]:
    """First-layer reconstruction alone; returns (sequence, erased flag)."""
    if m1.erasure:
        return np.zeros(cb.n, dtype=np.int8), True
    return cb._Y[_layer1_position(m1, keys, cb)].copy(), False


def decode(
    m1: Layer1Message, m2: Layer2Message, keys: KeyPair, cb: CoverCodebook
) -> DecodeResult:
    """Reconstruct both layers; erasure messages yield fixed default outputs.

    With the matching keys, any in-ball sequence round-trips within both
    distortion targets.  With foreign keys the decrypted within-bin indices
    are garbled (reduced modulo the bin size), which voids the guarantee.
    """
    if m1.erasure or m2.erasure:
        return DecodeResult(
            np.zeros(cb.n, dtype=np.int8), np.zeros(cb.n, dtype=np.int8), True
        )
    g = _layer1_position(m1, keys, cb)
    nz = int(cb._z_count[g])
    u = m2.bin_index % -(-nz // cb.cap2)
    size2 = min(cb.cap2, nz - u * cb.cap2)
    v = (m2.cipher ^ _key_prefix(keys.k2, cb.bits2, _ceil_log2(size2))) % size2
    return DecodeResult(cb._Y[g].copy(), cb._Z[int(cb._z_offset[g]) + u * cb.cap2 + v].copy(), False)


def _encode_array(cb: CoverCodebook, index: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> _Messages:
    """:func:`encode` of the sequence of lexicographic index ``index[r]`` under ``(k1[r], k2[r])``."""
    m = index.size
    hit, pos = cb._locate(index)
    out = _Messages(
        erasure=~hit, type_id=np.full(m, -1, dtype=np.int64),
        bin1=np.zeros(m, np.int64), cipher1=np.zeros(m, np.int64), width1=np.zeros(m, np.int64),
        bin2=np.full(m, -1, dtype=np.int64), bin_width2=np.zeros(m, np.int64),
        cipher2=np.zeros(m, np.int64), width2=np.zeros(m, np.int64),
    )
    rows, pos = np.flatnonzero(hit), pos[hit]
    k = cb._seq_book[pos]
    f = cb._fields(k, cb._seq_ypos[pos], cb._seq_zpos[pos])
    out.type_id[rows] = cb.type_ids[k]
    out.bin1[rows] = f["i"]
    out.cipher1[rows] = f["j"] ^ _key_prefix_array(k1[rows], cb.bits1, f["s1"])
    out.width1[rows] = f["s1"]
    out.bin2[rows] = f["u"]
    out.bin_width2[rows] = f["wu"]
    out.cipher2[rows] = f["v"] ^ _key_prefix_array(k2[rows], cb.bits2, f["s2"])
    out.width2[rows] = f["s2"]
    return out


def _decode_array(
    cb: CoverCodebook, msgs: _Messages, k1: np.ndarray, k2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode` of each message row under the keys ``(k1[r], k2[r])``.

    Returns the erased flags and both reconstructions (zeros where erased).
    """
    m, n = msgs.erasure.size, cb.n
    xhat1 = np.zeros((m, n), dtype=np.int8)
    xhat2 = np.zeros((m, n), dtype=np.int8)
    rows = np.flatnonzero(~msgs.erasure)
    type_id = msgs.type_id[rows]
    known = (type_id >= 0) & (type_id < cb.total_types)
    k = np.where(known, cb._book_of_type[np.where(known, type_id, 0)], -1)
    if np.any(k < 0):
        raise CodebookError(f"message names unknown type id {int(type_id[np.argmax(k < 0)])}")
    i = msgs.bin1[rows]
    ny = cb._y_count[k]
    if np.any((i < 0) | (i >= -(-ny // cb.cap1))):
        raise CodebookError("layer-1 bin index out of range")
    size1 = np.minimum(cb.cap1, ny - i * cb.cap1)
    j = (msgs.cipher1[rows] ^ _key_prefix_array(k1[rows], cb.bits1, msgs.width1[rows])) % size1
    g = cb._y_offset[k] + i * cb.cap1 + j
    nz = cb._z_count[g]
    u = msgs.bin2[rows] % -(-nz // cb.cap2)
    size2 = np.minimum(cb.cap2, nz - u * cb.cap2)
    s2 = _ceil_log2_array(size2)
    v = (msgs.cipher2[rows] ^ _key_prefix_array(k2[rows], cb.bits2, s2)) % size2
    xhat1[rows] = cb._Y[g]
    xhat2[rows] = cb._Z[cb._z_offset[g] + u * cb.cap2 + v]
    return msgs.erasure, xhat1, xhat2


# ---------------------------------------------------------------------------
# exact joint excess-distortion probability
# ---------------------------------------------------------------------------


def ball_complement_probability(source: Distribution, n: int, threshold: float) -> float:
    """Source mass of the types beyond the threshold, per :func:`types_within`, summed in id order.

    Each type's mass is :func:`type_probability` of its nonzero counts, as
    ``type_class_probability`` computes it.
    """
    rows, ball = types_within(n, source, threshold)
    outside = np.delete(rows, ball, axis=0)
    # the nonzero counts row by row in letter order, and where each row starts
    row, letter = np.nonzero(outside)
    counts, probs = outside[row, letter].tolist(), source.probs[letter].tolist()
    bounds = np.searchsorted(row, np.arange(outside.shape[0] + 1)).tolist()
    total = 0.0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        total += type_probability(n, counts[start:stop], probs[start:stop])
    return total


def jep_exact(cb: CoverCodebook) -> float:
    """Exact joint excess-distortion probability of the built scheme.

    Covered (in-ball) sequences never err under any key, and erased
    sequences always count as errors, so the probability is exactly the
    source mass of the out-of-ball types.
    """
    return ball_complement_probability(cb.spec.source, cb.n, cb.spec.alpha + cb.delta)


def jep_type_count_bound(n: int, alphabet_size: int, alpha: float, delta: float) -> float:
    """Type-counting upper bound on the error probability."""
    return (n + 1) ** alphabet_size * 2.0 ** (-n * (alpha + delta))


def jep_exponent_threshold(alphabet_size: int, delta: float) -> int:
    """Smallest blocklength from which the type-counting bound beats 2^(-n*alpha).

    The comparison reduces to (n+1)^|X| <= 2^(n*delta), independent of alpha.
    |X| log2(n+1) - n*delta is concave and 0 at n = 0, so the bound holds from
    its smallest n on, which doubling brackets and integer bisection finds.
    """
    _require_delta(delta)

    def holds(n: int) -> bool:
        return alphabet_size * math.log2(n + 1) <= n * delta

    lo, hi = 0, 1  # lo is 0 or fails the bound, hi meets it
    try:
        while not holds(hi):
            lo, hi = hi, 2 * hi
    except OverflowError:
        raise CapExceededError(f"the threshold at delta = {delta!r} exceeds the float range") from None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def simulate_jep(cb: CoverCodebook, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the end-to-end error rate of encode/decode.

    Draws every source block first, then one key pair per block, which is
    the order (and the generator stream) of a per-sample loop that draws
    each block with ``rng.choice(k, size=n, p=probs)`` and its keys with
    :func:`sample_keys`.  A block is an error when it is erased or when
    either reconstruction misses its distortion target.

    The blocks are drawn as ``rng.choice`` draws them: by the inverse of
    ``cdf``, ``probs.cumsum()`` divided by its last entry, at ``rng.random``
    uniforms.  A symbol is the number of ``cdf[:-1]`` entries at or below
    its uniform, which is ``searchsorted(cdf, u, side="right")`` since
    ``u < 1 = cdf[-1]``.  Only each block's lexicographic index is kept.

    Whether a draw errs depends on its (block, k1, k2) row alone, so each
    distinct row is encoded, decoded and checked once and counts as often
    as it was drawn; only its distortion sums read the block's symbols.
    The rows are grouped by sorting one mixed-radix int64 code per draw
    when ``k^n * cap1 * cap2`` fits in it.  Otherwise each
    draw is its own row with count 1: with that many key pairs per block,
    repeated draws are too rare to pay for a wider grouping.  Either way
    the error count is the same integer, so the estimate is the per-draw
    loop's float.
    """
    if samples < 1:
        raise ValueError(f"Monte-Carlo sample count must be positive, got {samples}")
    spec, n = cb.spec, cb.n
    kx = spec.source.alphabet_size
    cdf = spec.source.probs.cumsum()
    cdf /= cdf[-1]
    index = np.empty(samples, dtype=np.int64)
    for start in range(0, samples, _CODEC_CHUNK):
        u = rng.random((min(_CODEC_CHUNK, samples - start), n))
        symbols = np.zeros(u.shape, dtype=np.min_scalar_type(kx - 1))
        for edge in cdf[:-1]:
            symbols += u >= edge
        index[start:start + u.shape[0]] = lex_index(symbols, kx)
    keys = rng.integers(0, [cb.cap1, cb.cap2], size=(samples, 2))
    if kx**n * cb.cap1 * cb.cap2 <= 2**63:
        code = index
        code *= cb.cap1
        code += keys[:, 0]
        code *= cb.cap2
        code += keys[:, 1]
        del keys  # before the sort: the codes hold the keys now
        code.sort()
        starts = np.flatnonzero(np.concatenate([[True], code[1:] != code[:-1]]))
        counts = np.diff(starts, append=samples)
        code, k2 = np.divmod(code[starts], cb.cap2)
        index, k1 = np.divmod(code, cb.cap1)
    else:
        k1, k2 = keys.T
        counts = np.ones(samples, dtype=np.int64)
    errors = 0
    for start in range(0, index.size, _CODEC_CHUNK):
        sl = slice(start, start + _CODEC_CHUNK)
        msgs = _encode_array(cb, index[sl], k1[sl], k2[sl])
        erased, xhat1, xhat2 = _decode_array(cb, msgs, k1[sl], k2[sl])
        block = lex_rows(index[sl], kx, n)
        d1 = spec.d1.matrix[block, xhat1].sum(axis=1) / n
        d2 = spec.d2.matrix[block, xhat2].sum(axis=1) / n
        errors += int(counts[sl][erased | (d1 > spec.D1 + 1e-9) | (d2 > spec.D2 + 1e-9)].sum())
    return errors / samples


# ---------------------------------------------------------------------------
# exact maximal leakage, two routes
# ---------------------------------------------------------------------------


def leakage_exact(cb: CoverCodebook, which: Which) -> float:
    """Closed-form maximal leakage of the scheme, in bits.

    Counts one unit per realized layer-1 bin (for M1) or per realized
    (bin, second-layer shape) combination (for M1M2), plus one unit for the
    erasure message when any sequence falls outside the ball.  The count is
    exact because the encrypted field is uniform over all its patterns for
    every sequence that can produce the message.
    """
    count = 1 if cb.has_out_of_ball else 0
    if which == "M1":
        count += cb._realized_bins
    elif which == "M1M2":
        count += cb._realized_shapes
    else:
        raise ValueError(f"unknown leakage target {which!r}")
    return math.log2(count)


def leakage_oracle(cb: CoverCodebook, which: Which, *, max_enum: int = DEFAULT_ENUM_CAP) -> float:
    """Definitional maximal leakage: log2 of the sum over messages of the
    largest conditional probability, by exhaustive enumeration of sequences
    and keys.

    Sequences are enumerated as lexicographic indices.  Each conditional
    probability is a count of keys over the key count, a power of two, so
    every sum involved is exact and its order is free.
    """
    if which not in ("M1", "M1M2"):
        raise ValueError(f"unknown leakage target {which!r}")
    spec, n = cb.spec, cb.n
    kx = spec.source.alphabet_size
    cap2 = cb.cap2 if which == "M1M2" else 1
    keyspace = cb.cap1 * cap2
    total = kx**n * keyspace
    if total > max_enum:
        raise CapExceededError(
            f"{kx}^{n} sequences times {keyspace} keys exceed the enumeration cap {max_enum}"
        )
    step = max(1, _CODEC_CHUNK // keyspace) * keyspace  # whole sequences, all their key pairs
    msgs, tops = [], []
    for start in range(0, total, step):
        index, key = np.divmod(np.arange(start, min(start + step, total), dtype=np.int64), keyspace)
        k1, k2 = np.divmod(key, cap2)
        # keys per (sequence, message), then the largest count per message
        keyed = np.column_stack([index, _encode_array(cb, index, k1, k2).columns(which)])
        order, starts = _group_rows(keyed)
        counts = np.diff(starts, append=order.size)
        block_msgs, top = _max_by_row(keyed[order[starts], 1:], counts)
        msgs.append(block_msgs)
        tops.append(top)
    _, best = _max_by_row(np.concatenate(msgs), np.concatenate(tops))
    return math.log2(int(best.sum()) / keyspace)


def _max_by_row(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and, per distinct row, the largest of its values."""
    order, starts = _group_rows(rows)
    return rows[order[starts]], np.maximum.reduceat(values[order], starts)


@dataclass
class LeakageReport:
    closed_form_bits: float
    oracle_bits: float | None
    oracle_enabled: bool
    agree: bool | None


def leakage_report(cb: CoverCodebook, which: Which, *, max_enum: int = DEFAULT_ENUM_CAP) -> LeakageReport:
    closed = leakage_exact(cb, which)
    try:
        oracle = leakage_oracle(cb, which, max_enum=max_enum)
    except CapExceededError:
        return LeakageReport(closed, None, False, None)
    return LeakageReport(closed, oracle, True, abs(closed - oracle) <= 1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_codebook(cb: CoverCodebook, path: str) -> None:
    """Write the codebook to a versioned binary file (magic ``SRCB``), from its tables."""
    spec = cb.spec
    kx = spec.source.alphabet_size
    ka, kb = spec.d1.cols, spec.d2.cols
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<HHHH", cb.n, kx, ka, kb))
        fh.write(
            struct.pack(
                "<8d",
                spec.alpha, cb.delta, spec.D1, spec.D2, spec.R1, spec.R2, spec.r1, spec.r2,
            )
        )
        fh.write(spec.source.probs.astype("<f8").tobytes())
        fh.write(spec.d1.matrix.astype("<f8").tobytes())
        fh.write(spec.d2.matrix.astype("<f8").tobytes())
        fh.write(struct.pack("<I", cb.type_ids.size))
        # a book's members in class order are its rows in index order, kept by a stable sort
        order = np.argsort(cb._seq_book, kind="stable")
        assign = np.column_stack([cb._seq_ypos, cb._seq_zpos])[order].astype("<u4")
        m_count = np.bincount(cb._seq_book, minlength=cb.type_ids.size)
        for k, (type_id, counts, m0, m) in enumerate(zip(cb.type_ids.tolist(), cb.type_counts.tolist(),
                                                         _offsets(m_count).tolist(), m_count.tolist())):
            y0, ny = int(cb._y_offset[k]), int(cb._y_count[k])
            fh.write(struct.pack(f"<I{kx}II", type_id, *counts, ny))
            fh.write(cb._Y[y0 : y0 + ny].astype(np.uint8).tobytes())
            for z0, nz in zip(cb._z_offset[y0 : y0 + ny].tolist(), cb._z_count[y0 : y0 + ny].tolist()):
                fh.write(struct.pack("<I", nz))
                fh.write(cb._Z[z0 : z0 + nz].astype(np.uint8).tobytes())
            fh.write(struct.pack("<I", m))
            fh.write(assign[m0 : m0 + m].tobytes())


def load_codebook(path: str) -> CoverCodebook:
    """Read a codebook written by :func:`save_codebook`; the constructor re-verifies it.

    Each type id must name the counts stored with it, and each assignment
    table must hold one row per member of that type's class."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(count: int) -> bytes:
        nonlocal off
        if off + count > len(raw):
            raise CodebookError("truncated codebook file")
        out = raw[off: off + count]
        off += count
        return out

    def codewords(count: int, size: int, layer: int) -> np.ndarray:
        codes = np.frombuffer(take(count * n), dtype=np.uint8).reshape(count, n)
        if np.any(codes >= size):
            raise CodebookError(
                f"layer-{layer} codeword of type {counts} has a symbol outside the "
                f"alphabet of size {size}"
            )
        return codes.astype(np.int8)

    if take(4) != _MAGIC:
        raise CodebookError("not a codebook file (bad magic bytes)")
    (version,) = struct.unpack("<H", take(2))
    if version != _VERSION:
        raise CodebookError(f"unsupported codebook version {version}")
    n, kx, ka, kb = struct.unpack("<HHHH", take(8))
    alpha, delta, D1, D2, R1, R2, r1, r2 = struct.unpack("<8d", take(64))
    source = Distribution(np.frombuffer(take(8 * kx), dtype="<f8"))
    d1 = DistortionMeasure(np.frombuffer(take(8 * kx * ka), dtype="<f8").reshape(kx, ka))
    d2 = DistortionMeasure(np.frombuffer(take(8 * kx * kb), dtype="<f8").reshape(kx, kb))
    spec = SystemSpec(source, d1, d2, D1, D2, R1, R2, r1, r2, alpha)
    (n_books,) = struct.unpack("<I", take(4))
    all_types = type_count_vectors(n, kx)
    blocks: list[_Block] = []
    for _ in range(n_books):
        (type_id,) = struct.unpack("<I", take(4))
        counts = struct.unpack(f"<{kx}I", take(4 * kx))
        if type_id >= len(all_types):
            raise CodebookError("codebook names a type id outside the type count")
        named = tuple(all_types[type_id].tolist())
        if named != counts:
            raise CodebookError(f"type id {type_id} names type {named}, not {counts}")
        (ny,) = struct.unpack("<I", take(4))
        y_codes = codewords(ny, ka, 1)
        z_codes = []
        for _y in range(ny):
            (nz,) = struct.unpack("<I", take(4))
            z_codes.append(codewords(nz, kb, 2))
        (m,) = struct.unpack("<I", take(4))
        assign = np.frombuffer(take(8 * m), dtype="<u4").reshape(m, 2).astype(np.int64)
        members = type_class_members(TypeClass(n, counts))
        if m != members.shape[0]:
            raise CodebookError(f"assignment table of type {counts} does not match its class")
        blocks.append((type_id, y_codes, z_codes, np.column_stack([lex_index(members, kx), assign])))
    return CoverCodebook(RateModel(spec), n, delta, blocks)

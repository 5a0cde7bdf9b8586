"""The meet-in-the-middle cover kernel and the incremental greedy against
the straightforward implementations they replace, and the candidate-type
filter and per-type layer-2 matrix that ``build_codebook`` feeds them.

The oracles below sum distortions position by position and rescan the
uncovered columns at every greedy step, on boolean (candidate, member)
matrices.  The kernel packs eight members to a byte; its unpacked bits and
the greedy selection on the packed matrix must match the oracles exactly,
because codebooks (and every number derived from them) depend on each cell
and on the tie-break.  The filter may only drop candidates whose every cell
is False.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srleak import typecodec
from srleak.errors import CodebookError
from srleak.exponents import SystemSpec
from srleak.probcore import (
    Distribution,
    DistortionMeasure,
    TypeClass,
    all_sequences,
    enumerate_types,
    type_class_members,
)
from srleak.typecodec import (
    _candidate_types,
    _cover_matrix,
    _greedy_cover,
    _half_table,
    _lex_order,
    _reachable,
    build_codebook,
)

from conftest import pack_cover, unpack_cover


def loop_cover_matrix(members, candidates, dmat, level, n):
    """Per-position accumulation: d(x_1, c_1) + d(x_2, c_2) + ... in order."""
    out = np.zeros((candidates.shape[0], members.shape[0]), dtype=bool)
    chunk = max(1, int(2_000_000 // max(members.shape[0], 1)))
    budget = level * n + 1e-9
    for start in range(0, candidates.shape[0], chunk):
        sl = slice(start, min(start + chunk, candidates.shape[0]))
        acc = np.zeros((sl.stop - sl.start, members.shape[0]))
        for t in range(n):
            acc += dmat[members[:, t][None, :], candidates[sl, t][:, None]]
        out[sl] = acc <= budget
    return out


def rescan_greedy_cover(cover, wanted=None):
    """Maximum-coverage greedy that recounts every gain at every step, over
    the members in ``wanted`` (all of them by default)."""
    n_members = cover.shape[1]
    uncovered = np.ones(n_members, dtype=bool) if wanted is None else wanted.copy()
    selected = []
    first_cover = np.full(n_members, -1, dtype=np.int64)
    while uncovered.any():
        gains = cover[:, uncovered].sum(axis=1)
        if not gains.any():
            raise CodebookError("covering infeasible: a member has no candidate within budget")
        best = int(np.argmax(gains))
        newly = cover[best] & uncovered
        first_cover[newly] = len(selected)
        selected.append(best)
        uncovered &= ~cover[best]
    return selected, first_cover


# entries that are not dyadic, and entries around 1e6 whose sums need all 53 bits
ENTRY = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0 / 3.0, 2.0 / 3.0, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False),
    st.floats(min_value=1e6 - 1.0, max_value=1e6 + 1.0, allow_nan=False),
)


@st.composite
def cover_cases(draw):
    kx = draw(st.integers(2, 3))
    kc = draw(st.integers(2, 3))
    n = draw(st.integers(1, 7))
    dmat = np.array(draw(st.lists(ENTRY, min_size=kx * kc, max_size=kx * kc))).reshape(kx, kc)
    seqs_x, seqs_c = all_sequences(kx, n), all_sequences(kc, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = seqs_x[rng.permutation(len(seqs_x))[: draw(st.integers(1, len(seqs_x)))]]
    candidates = seqs_c[rng.permutation(len(seqs_c))[: draw(st.integers(1, len(seqs_c)))]]
    # the budget level * n + 1e-9 lands on a pair's in-order sum s (up to
    # rounding), or 1e-9 above it, as when a sum equals n * level exactly
    m, c = members[rng.integers(len(members))], candidates[rng.integers(len(candidates))]
    s = 0.0
    for t in range(n):
        s += dmat[m[t], c[t]]
    level = draw(st.sampled_from([(s - 1e-9) / n, s / n, draw(st.floats(0.0, 2e6 / n))]))
    return members, candidates, dmat, level, n


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cover_cases())
def test_cover_matrix_equals_loop(case):
    members, candidates, dmat, level, n = case
    got = _cover_matrix(members, candidates, dmat, level, n)
    want = loop_cover_matrix(members, candidates, dmat, level, n)
    assert got.shape == (-(-len(members) // 8), len(candidates)) and got.dtype == np.uint8
    assert np.array_equal(unpack_cover(got, len(members)), want)
    # the padding bits past the last member are zero
    assert np.array_equal(got, pack_cover(want))


def test_cover_matrix_on_sums_at_the_budget():
    # 0.1 is not dyadic, so the two half sums of these rows regroup to a
    # different float than the in-order sum; budgets sit on the in-order sum
    dmat = np.array([[0.0, 0.1, 0.7], [0.1, 0.0, 0.3], [0.7, 0.3, 0.0]])
    n = 7
    members = all_sequences(3, n)[::37]
    candidates = all_sequences(3, n)[::-5]
    sums = set()
    for m in members[:20]:
        for c in candidates[:20]:
            s = 0.0
            for t in range(n):
                s += dmat[m[t], c[t]]
            sums.add(s)
    for s in sorted(sums):
        level = (s - 1e-9) / n
        assert np.array_equal(
            unpack_cover(_cover_matrix(members, candidates, dmat, level, n), len(members)),
            loop_cover_matrix(members, candidates, dmat, level, n),
        ), s


def test_cover_matrix_with_ranks_wider_than_a_byte():
    # non-dyadic entries: the right-half sums over 5 positions take more
    # distinct values than uint8 can rank, so the ranks need uint16
    dmat = np.array([[0.0, 0.11, 0.73], [0.29, 0.0, 0.37], [0.61, 0.17, 0.0]])
    n = 9
    assert np.unique(_half_table(dmat, n - n // 2)).size > 255
    seqs = all_sequences(3, n)
    members, candidates = seqs[::11], seqs[::-13]
    for level in (0.2, 0.25, 0.3):
        assert np.array_equal(
            unpack_cover(_cover_matrix(members, candidates, dmat, level, n), len(members)),
            loop_cover_matrix(members, candidates, dmat, level, n),
        ), level


def test_cover_matrix_empty_inputs():
    seqs = all_sequences(2, 4)
    dmat = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _cover_matrix(seqs[:0], seqs, dmat, 0.25, 4).shape == (0, 16)
    assert _cover_matrix(seqs, seqs[:0], dmat, 0.25, 4).shape == (2, 0)
    assert _cover_matrix(seqs[:0], seqs[:0], dmat, 0.25, 4).shape == (0, 0)


@st.composite
def filter_cases(draw):
    kx = draw(st.integers(2, 3))
    kc = draw(st.integers(2, 3))
    n = draw(st.integers(1, 7))
    dmat = np.array(draw(st.lists(ENTRY, min_size=kx * kc, max_size=kx * kc))).reshape(kx, kc)
    types = list(enumerate_types(n, kx))
    cls = type_class_members(types[draw(st.integers(0, len(types) - 1))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the whole class or a subset of it; the filter always sees the whole class
    members = cls
    if draw(st.booleans()):
        members = cls[np.sort(rng.permutation(len(cls))[: draw(st.integers(1, len(cls)))])]
    seqs_c = all_sequences(kc, n)
    candidates = seqs_c
    if draw(st.booleans()):
        candidates = seqs_c[np.sort(rng.permutation(len(seqs_c))[: draw(st.integers(1, len(seqs_c)))])]
    m, c = members[rng.integers(len(members))], candidates[rng.integers(len(candidates))]
    s = 0.0
    for t in range(n):
        s += dmat[m[t], c[t]]
    level = draw(st.sampled_from([(s - 1e-9) / n, s / n, draw(st.floats(0.0, 2e6 / n))]))
    return cls, members, candidates, kc, dmat, level, n


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(filter_cases())
def test_type_filter_keeps_every_covering_candidate(case):
    cls, members, candidates, kc, dmat, level, n = case
    live = _reachable(cls, _candidate_types(candidates, kc), dmat, level, n)
    covering = np.flatnonzero(_cover_matrix(members, candidates, dmat, level, n).any(axis=0))
    assert np.all(np.diff(live) > 0)
    assert np.isin(covering, live).all()


def test_candidate_types_group_by_counts():
    seqs = all_sequences(3, 4)
    of, reps = _candidate_types(seqs, 3)
    counts = np.stack([np.count_nonzero(seqs == s, axis=1) for s in range(3)], axis=1)
    assert len(reps) == 15
    for k, rep in enumerate(reps):
        same = np.flatnonzero(of == k)
        assert np.array_equal(seqs[same[0]], rep)
        assert (counts[same] == np.bincount(rep, minlength=3)).all()


ERASURE_D1 = SystemSpec(
    Distribution.bernoulli(0.35), DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]),
    DistortionMeasure.hamming(2), 0.3, 0.1, 1.6, 1.6, 0.15, 0.15, 0.1,
)
TERNARY = SystemSpec(
    Distribution([0.4, 0.33, 0.27]), DistortionMeasure.hamming(3),
    DistortionMeasure.hamming(3), 0.3, 0.1, 1.6, 1.6, 0.17, 0.17, 0.1,
)


@pytest.mark.parametrize("spec, type_counts", [
    (ERASURE_D1, (6, 2)), (ERASURE_D1, (4, 4)), (TERNARY, (4, 1, 1)), (TERNARY, (2, 2, 2)),
])
def test_layer2_column_slice_equals_per_codeword_matrix(spec, type_counts):
    # the layer-2 cover of a layer-1 codeword is the type's one layer-2 matrix
    # under the codeword's member set, its column of the layer-1 matrix
    n = sum(type_counts)
    ka, kb = spec.d1.cols, spec.d2.cols
    cand_y, cand_z = all_sequences(ka, n), all_sequences(kb, n)
    members = type_class_members(TypeClass(n, type_counts))
    m = len(members)
    live_y = _reachable(members, _candidate_types(cand_y, ka), spec.d1.matrix, spec.D1, n)
    cover1 = _cover_matrix(members, cand_y[live_y], spec.d1.matrix, spec.D1, n)
    y_sel, _ = _lex_order(_greedy_cover(cover1, np.ones(m, dtype=bool))[0])
    live_z = _reachable(members, _candidate_types(cand_z, kb), spec.d2.matrix, spec.D2, n)
    whole = _cover_matrix(members, cand_z[live_z], spec.d2.matrix, spec.D2, n)
    for c in y_sel:
        wanted = np.unpackbits(cover1[:, c], count=m).view(bool)
        rows = np.flatnonzero(wanted)
        per_codeword = unpack_cover(
            _cover_matrix(members[rows], cand_z, spec.d2.matrix, spec.D2, n), rows.size)
        assert np.array_equal(unpack_cover(whole, m)[:, rows], per_codeword[live_z])
        # no candidate outside the live types covers any of these members
        assert not np.delete(per_codeword, live_z, axis=0).any()
        # the masked greedy picks what a greedy over the codeword's own matrix picks
        picks, first = _greedy_cover(whole, wanted)
        want_picks, want_first = rescan_greedy_cover(per_codeword)
        assert live_z[picks].tolist() == want_picks
        assert np.array_equal(first[rows], want_first)
        assert (first[~wanted] == -1).all()


@st.composite
def feasible_covers(draw):
    n_cand = draw(st.integers(1, 14))
    n_members = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cover = rng.random((n_cand, n_members)) < draw(st.floats(0.05, 0.9))
    # repeated rows and columns force ties between equal gains
    if draw(st.booleans()):
        cover = np.concatenate([cover, cover[rng.integers(n_cand, size=n_cand)]])
    if n_members and draw(st.booleans()):
        cover = np.concatenate([cover, cover[:, rng.integers(n_members, size=n_members)]], axis=1)
    # every member needs one candidate
    cover[rng.integers(cover.shape[0], size=cover.shape[1]), np.arange(cover.shape[1])] = True
    return cover


@settings(max_examples=200, deadline=None)
@given(feasible_covers())
def test_greedy_equals_rescan(cover):
    selected, first_cover = _greedy_cover(pack_cover(cover), np.ones(cover.shape[1], dtype=bool))
    want_selected, want_first = rescan_greedy_cover(cover)
    assert selected == want_selected
    assert np.array_equal(first_cover, want_first)


@st.composite
def masked_covers(draw):
    # any matrix, uncoverable members included, and a member mask that is
    # random or a row of a second matrix, as a layer-1 codeword's members are
    n_cand = draw(st.integers(0, 14))
    n_members = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 0.9))
    cover = rng.random((n_cand, n_members)) < density
    if draw(st.booleans()):
        wanted = rng.random(n_members) < draw(st.floats(0.0, 1.0))
    else:
        wanted = (rng.random((5, n_members)) < density)[draw(st.integers(0, 4))]
    if draw(st.booleans()) and n_cand:
        # make the wanted members coverable, so the greedy runs to the end
        cover[rng.integers(n_cand, size=n_members), np.arange(n_members)] |= wanted
    return cover, wanted


@settings(max_examples=300, deadline=None)
@given(masked_covers())
def test_masked_greedy_equals_rescan_over_the_wanted_members(case):
    cover, wanted = case
    bits = pack_cover(cover)
    try:
        want_selected, want_first = rescan_greedy_cover(cover, wanted)
    except CodebookError:
        with pytest.raises(CodebookError, match="covering infeasible"):
            _greedy_cover(bits, wanted)
        return
    selected, first_cover = _greedy_cover(bits, wanted)
    assert selected == want_selected
    assert np.array_equal(first_cover, want_first)


@st.composite
def covers_about_the_int_boundary(draw):
    """A cover whose live part (wanted byte rows x candidates with a gain)
    lies on a drawn side of ``_INT_GREEDY_BYTES``, with duplicate candidates
    and members (ties), unwanted members, padding bits set in the packed
    matrix and, unless made feasible, wanted members no candidate covers."""
    side = draw(st.sampled_from(["int", "packed"]))
    limit = typecodec._INT_GREEDY_BYTES
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if side == "int":
        byte_rows = draw(st.integers(1, 40))
        n_cand = draw(st.integers(0, (limit - 1) // byte_rows))
    else:
        byte_rows = draw(st.integers(8, 40))
        n_cand = draw(st.integers(-(-limit // byte_rows), -(-limit // byte_rows) + 40))
    n_members = 8 * byte_rows - draw(st.integers(0, 7))
    cover = rng.random((n_cand, n_members)) < draw(st.floats(0.01, 0.5))
    wanted = rng.random(n_members) < draw(st.floats(0.0, 1.0))
    if n_cand and draw(st.booleans()):
        dup = rng.integers(n_cand, size=n_cand // 2)
        cover[rng.permutation(n_cand)[: dup.size]] = cover[dup]
    if draw(st.booleans()):
        dup = rng.integers(n_members, size=n_members // 4)
        cover[:, rng.permutation(n_members)[: dup.size]] = cover[:, dup]
    if side == "packed":
        # every byte row holds a wanted member and every candidate covers one
        row_member = np.minimum(8 * np.arange(byte_rows) + rng.integers(8, size=byte_rows), n_members - 1)
        wanted[row_member] = True
        held = np.flatnonzero(wanted)
        cover[np.arange(n_cand), held[rng.integers(held.size, size=n_cand)]] = True
    feasibility = draw(st.sampled_from(["made", "drawn", "broken"]))
    if feasibility == "made" and n_cand:
        cover[rng.integers(n_cand, size=n_members), np.arange(n_members)] |= wanted
    elif feasibility == "broken" and wanted.any():
        cover[:, rng.choice(np.flatnonzero(wanted))] = False
    bits = pack_cover(cover)
    if n_members % 8 and n_cand:
        bits[-1] |= ((rng.random(n_cand) < 0.5) * ((1 << (-n_members % 8)) - 1)).astype(np.uint8)
    return side, cover, bits, wanted


def live_bytes(cover, wanted):
    """Wanted byte rows times candidates with a gain."""
    rows = np.count_nonzero(np.packbits(wanted))
    return rows * np.count_nonzero((cover & wanted).any(axis=1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(covers_about_the_int_boundary())
def test_both_pick_loops_equal_rescan(case):
    # the int loop below the boundary and the packed loop above it pick what
    # the rescan picks, in its order, with its first covers; an infeasible
    # mask raises before either loop runs
    side, cover, bits, wanted = case
    with mock.patch.object(typecodec, "_int_picks", wraps=typecodec._int_picks) as small, \
         mock.patch.object(typecodec, "_packed_picks", wraps=typecodec._packed_picks) as large:
        try:
            want_selected, want_first = rescan_greedy_cover(cover, wanted)
        except CodebookError:
            with pytest.raises(CodebookError, match="covering infeasible"):
                _greedy_cover(bits, wanted)
            assert not small.called and not large.called
            return
        selected, first_cover = _greedy_cover(bits, wanted)
    assert (live_bytes(cover, wanted) < typecodec._INT_GREEDY_BYTES) == (side == "int")
    assert (small.call_count, large.call_count) == ((1, 0) if side == "int" else (0, 1))
    assert selected == want_selected
    assert np.array_equal(first_cover, want_first)


@pytest.mark.parametrize("seed", range(6))
def test_pick_loops_agree_bit_for_bit(seed, monkeypatch):
    # one matrix through each loop, forced by the boundary: the same picks,
    # order and first covers, with ties from duplicate candidates
    rng = np.random.default_rng(seed)
    n_members = int(rng.integers(20, 300))
    cover = rng.random((60, n_members)) < rng.uniform(0.02, 0.3)
    cover[30:] = cover[rng.integers(30, size=30)]
    wanted = rng.random(n_members) < rng.uniform(0.2, 1.0)
    cover[rng.integers(60, size=n_members), np.arange(n_members)] = True
    runs = []
    for limit in (0, 1 << 40):
        monkeypatch.setattr(typecodec, "_INT_GREEDY_BYTES", limit)
        runs.append(_greedy_cover(pack_cover(cover), wanted))
    (picks_packed, first_packed), (picks_int, first_int) = runs
    assert picks_packed == picks_int == rescan_greedy_cover(cover, wanted)[0]
    assert np.array_equal(first_packed, first_int)


@pytest.mark.parametrize("n_members", [1, 7, 9, 13, 23])
def test_padding_bits_are_never_counted_or_covered(n_members):
    # member counts off a multiple of 8: padding bits set in the packed
    # matrix, as though candidates covered members that do not exist,
    # change no gain, pick or first cover
    rng = np.random.default_rng(n_members)
    cover = rng.random((12, n_members)) < 0.3
    cover[rng.integers(12, size=n_members), np.arange(n_members)] = True
    bits = pack_cover(cover)
    dirty = bits.copy()
    dirty[-1] |= np.uint8((1 << (-n_members % 8)) - 1)
    wanted = np.ones(n_members, dtype=bool)
    want = rescan_greedy_cover(cover)
    for matrix in (bits, dirty):
        selected, first_cover = _greedy_cover(matrix, wanted)
        assert first_cover.shape == (n_members,)
        assert selected == want[0] and np.array_equal(first_cover, want[1])


def test_greedy_on_empty_inputs():
    for shape, n_members in (((0, 0), 0), ((0, 5), 0), ((2, 0), 13), ((2, 5), 13)):
        selected, first_cover = _greedy_cover(np.zeros(shape, dtype=np.uint8), np.zeros(n_members, dtype=bool))
        assert selected == [] and first_cover.tolist() == [-1] * n_members
    with pytest.raises(CodebookError, match="covering infeasible"):
        _greedy_cover(np.zeros((2, 0), dtype=np.uint8), np.ones(13, dtype=bool))


@pytest.mark.parametrize("covered", [700, 650])
def test_greedy_first_pick_spans_several_gain_blocks(covered, monkeypatch):
    # 64-byte gain blocks hold one byte row of the 40 candidates, so the
    # first pick's update and the initial gains span many blocks
    monkeypatch.setattr(typecodec, "_GAIN_BYTES", 64)
    rng = np.random.default_rng(covered)
    cover = rng.random((40, 700)) < 0.05
    cover[17, :covered] = True
    cover[rng.integers(40, size=700), np.arange(700)] = True
    selected, first_cover = _greedy_cover(pack_cover(cover), np.ones(700, dtype=bool))
    assert selected[0] == 17 and np.count_nonzero(first_cover == 0) >= covered
    want_selected, want_first = rescan_greedy_cover(cover)
    assert selected == want_selected
    assert np.array_equal(first_cover, want_first)


def test_greedy_tie_break_is_lowest_index():
    cover = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]], dtype=bool)
    selected, first_cover = _greedy_cover(pack_cover(cover), np.ones(4, dtype=bool))
    assert selected == [0, 1, 2] == rescan_greedy_cover(cover)[0]
    assert first_cover.tolist() == [1, 0, 0, 2]


@pytest.mark.parametrize("order", ["C", "F"])
def test_greedy_uncoverable_member_raises(order):
    cover = np.array([[1, 0, 1], [1, 0, 0]], dtype=bool)
    bits = np.asarray(pack_cover(cover), order=order)
    with pytest.raises(CodebookError, match="covering infeasible"):
        _greedy_cover(bits, np.ones(3, dtype=bool))
    with pytest.raises(CodebookError, match="covering infeasible"):
        rescan_greedy_cover(cover)
    # outside the mask, the uncoverable member is not asked for
    wanted = np.array([True, False, True])
    assert _greedy_cover(bits, wanted)[0] == rescan_greedy_cover(cover, wanted)[0] == [0]


def test_build_traced_peak_on_the_erasure_point():
    # packed matrices and blocked gains keep the n = 10 erasure-d1 build
    # (three-letter candidates) at 5.2 MB of traced numpy and Python
    # allocations; its largest matrix alone would be 14.4 MB at a byte per cell
    build_codebook(ERASURE_D1, 10, 0.05)
    tracemalloc.start()
    try:
        build_codebook(ERASURE_D1, 10, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak

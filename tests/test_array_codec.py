"""The exact layer's array paths against the per-sequence loops they replace.

``simulate_jep``, ``leakage_oracle``, the guessers' feasible sets and the
attack chain's guess distribution run on arrays.  The loops below are the
straightforward versions, one scalar ``encode``/``decode`` or one joint type
at a time; every array result must equal theirs exactly, including the
state the random generator is left in.
"""

import dataclasses
import functools
import json
import math
import re
import struct

import numpy as np
import pytest

import srleak.adversary as adversary
import srleak.typecodec as typecodec
from srleak.adversary import (
    CONSTANT_TARGET,
    FIRST_SYMBOL_TARGET,
    IDENTITY_TARGET,
    GuessScheme,
    _conditional_class_size,
    _GuessContext,
    _joint_counts,
    end_to_end_guess_probability,
)
from srleak.cli import EXIT_SPEC, main
from srleak.errors import CapExceededError, CodebookError
from srleak.exponents import RateModel, SystemSpec
from srleak.probcore import Distribution, DistortionMeasure, all_sequences, enumerate_types
from srleak.typecodec import (
    CoverCodebook,
    KeyPair,
    Layer1Message,
    Layer2Message,
    M0_LAYER1,
    M0_LAYER2,
    _decode_array,
    _encode_array,
    _group_rows,
    build_codebook,
    decode,
    decode_layer1,
    encode,
    leakage_oracle,
    load_codebook,
    sample_keys,
    save_codebook,
    simulate_jep,
)

from conftest import block_spans, codebook_blocks

H2 = DistortionMeasure.hamming(2)
H3 = DistortionMeasure.hamming(3)
ERASURE_D1 = DistortionMeasure([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]])


def binary(p=0.3, D1=0.2, D2=0.1, R1=1.6, R2=1.6, r1=0.0, r2=0.0, alpha=0.1, d1=H2):
    return SystemSpec(Distribution.bernoulli(p), d1, H2, D1, D2, R1, R2, r1, r2, alpha)


def ternary(r1=0.0, r2=0.0, alpha=0.1):
    return SystemSpec(Distribution([0.4, 0.33, 0.27]), H3, H3, 0.3, 0.1, 1.6, 1.6, r1, r2, alpha)


# (name, spec, n, delta): binary Hamming, the erasure d1 and ternary Hamming,
# with 0, 1 and 2 key bits per layer; every one has out-of-ball types
CODEBOOKS = [
    ("binary-0-0", binary(), 8, 0.05),
    ("binary-1-2", binary(r1=0.125, r2=0.25), 8, 0.1),
    ("binary-2-2", binary(r1=0.25, r2=0.25, alpha=0.12), 8, 0.2),
    ("binary-2-1", binary(r1=0.34, r2=0.17, alpha=0.2), 6, 0.25),
    ("erasure-1-1", binary(p=0.35, D1=0.3, r1=0.125, r2=0.125, d1=ERASURE_D1), 8, 0.05),
    ("erasure-2-0", binary(p=0.35, D1=0.3, r1=0.25, d1=ERASURE_D1), 8, 0.05),
    ("ternary-0-1", ternary(r2=0.17), 6, 0.05),
    ("ternary-1-1", ternary(r1=0.17, r2=0.17), 6, 0.05),
]


@pytest.fixture(scope="module", params=CODEBOOKS, ids=[c[0] for c in CODEBOOKS])
def book(request):
    _, spec, n, delta = request.param
    cb = build_codebook(spec, n, delta)
    assert cb.has_out_of_ball
    return cb


# ---------------------------------------------------------------------------
# loop references
# ---------------------------------------------------------------------------


def loop_simulate_jep(cb, samples, rng):
    """One sample at a time: draw every block, then per block its keys,
    encode, decode and the two distortion checks."""
    spec = cb.spec
    seqs = rng.choice(spec.source.alphabet_size, size=(samples, cb.n), p=spec.source.probs)
    errors = 0
    for row in seqs.astype(np.int8):
        keys = sample_keys(cb, rng)
        m1, m2 = encode(row, keys, cb)
        out = decode(m1, m2, keys, cb)
        if out.erased:
            errors += 1
            continue
        d1 = float(spec.d1.matrix[row, out.xhat1].sum()) / cb.n
        d2 = float(spec.d2.matrix[row, out.xhat2].sum()) / cb.n
        if d1 > spec.D1 + 1e-9 or d2 > spec.D2 + 1e-9:
            errors += 1
    return errors / samples


def loop_leakage_oracle(cb, which):
    """Per sequence, per key: accumulate each message's probability, keep
    the largest per message over sequences."""
    kx = cb.spec.source.alphabet_size
    best = {}
    for row in all_sequences(kx, cb.n):
        local = {}
        if which == "M1":
            for k1 in range(cb.cap1):
                m1, _ = encode(row, KeyPair(k1, 0, cb.bits1, cb.bits2), cb)
                local[m1] = local.get(m1, 0.0) + 1.0 / cb.cap1
        else:
            for k1 in range(cb.cap1):
                for k2 in range(cb.cap2):
                    pair = encode(row, KeyPair(k1, k2, cb.bits1, cb.bits2), cb)
                    local[pair] = local.get(pair, 0.0) + 1.0 / (cb.cap1 * cb.cap2)
        for msg, p in local.items():
            if p > best.get(msg, 0.0):
                best[msg] = p
    return math.log2(sum(best.values()))


@functools.lru_cache(maxsize=None)
def joint_type_list(n, cells):
    return [np.asarray(t.counts, dtype=np.int64) for t in enumerate_types(n, cells)]


def loop_feasible_g1(spec, xhat1):
    kx, ka, n = spec.source.alphabet_size, spec.d1.cols, len(xhat1)
    marg = np.bincount(xhat1, minlength=ka)
    out = []
    for flat in joint_type_list(n, kx * ka):
        joint = flat.reshape(kx, ka)
        if not np.array_equal(joint.sum(axis=0), marg):
            continue
        if float((joint * spec.d1.matrix).sum()) > n * spec.D1 + 1e-9:
            continue
        out.append(joint)
    return out


def loop_feasible_g2(spec, xhat1, xhat2, ctx):
    kx, ka, kb, n = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols, len(xhat1)
    pair = _joint_counts([xhat1, xhat2], [ka, kb])
    out = []
    for flat in joint_type_list(n, kx * ka * kb):
        joint = flat.reshape(kx, ka, kb)
        if not np.array_equal(joint.sum(axis=0), pair):
            continue
        if float((joint.sum(axis=2) * spec.d1.matrix).sum()) > n * spec.D1 + 1e-9:
            continue
        if float((joint.sum(axis=1) * spec.d2.matrix).sum()) > n * spec.D2 + 1e-9:
            continue
        if ctx.model.rd(Distribution(joint.sum(axis=(1, 2)) / n), 1) > spec.R1 + 1e-9:
            continue
        out.append(joint)
    return out


def loop_end_to_end(spec, n, cb, scheme, loop_g2_sets=True):
    """The attack chain with the guess distribution summed one candidate
    joint type at a time against the loop feasible sets (or, where their
    type loop is too slow, the sets ``test_feasible_sets_match_loops`` checks),
    clamped at 1 as the chain's probability is."""
    ctx = _GuessContext(RateModel(spec))
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    seqs = all_sequences(kx, n)
    seq_prob = np.exp(np.log(np.maximum(spec.source.probs, 1e-300))[seqs].sum(axis=1))
    key_prob = 1.0 / (cb.cap1 * cb.cap2)
    cache, feasible_g2 = {}, {}

    def loop_g2(xhat1, xhat2):
        if not loop_g2_sets:
            return list(ctx.feasible([xhat1, xhat2]))
        key = _joint_counts([xhat1, xhat2], [ka, kb]).tobytes()
        if key not in feasible_g2:
            feasible_g2[key] = loop_feasible_g2(spec, xhat1, xhat2, ctx)
        return feasible_g2[key]

    def guess_mass(xhat1, xhat2):
        key = xhat1.tobytes() + (xhat2.tobytes() if xhat2 is not None else b"|g1")
        if key not in cache:
            if xhat2 is None:
                feasible = loop_feasible_g1(spec, xhat1.astype(np.int64))
                arrays, sizes = [xhat1.astype(np.int64)], [kx, ka]
            else:
                feasible = loop_g2(xhat1.astype(np.int64), xhat2.astype(np.int64))
                arrays, sizes = [xhat1.astype(np.int64), xhat2.astype(np.int64)], [kx, ka, kb]
            feas_keys = {f.tobytes() for f in feasible}
            out = {}
            for cand in seqs:
                joint = _joint_counts([cand.astype(np.int64)] + arrays, sizes)
                if joint.tobytes() not in feas_keys:
                    continue
                p = 1.0 / (len(feasible) * _conditional_class_size(joint))
                u = scheme.target.apply(tuple(int(s) for s in cand))
                out[u] = out.get(u, 0.0) + p
            cache[key] = out
        return cache[key]

    fallback = scheme.target.prior_guess(spec.source, n)
    total = 0.0
    for row, px in zip(seqs, seq_prob):
        u_true = scheme.target.apply(tuple(int(s) for s in row))
        row_total = 0.0
        for k1 in range(cb.cap1):
            for k2 in range(cb.cap2):
                m1, m2 = encode(row, KeyPair(k1, k2, cb.bits1, cb.bits2), cb)
                for g1k in range(cb.cap1):
                    for g2k in range(cb.cap2):
                        guessed = KeyPair(g1k, g2k, cb.bits1, cb.bits2)
                        if scheme.guesser == "g1":
                            xh1, erased = decode_layer1(m1, guessed, cb)
                            mass = None if erased else guess_mass(xh1, None)
                        else:
                            out = decode(m1, m2, guessed, cb)
                            mass = None if out.erased else guess_mass(out.xhat1, out.xhat2)
                        if not mass:
                            hit = 1.0 if fallback == u_true else 0.0
                        else:
                            hit = mass.get(u_true, 0.0)
                        row_total += key_prob * key_prob * hit
        total += float(px) * row_total
    return min(total, 1.0)


def loop_layer1_message_count(cb):
    """Per book, per bin of ``cap1`` codewords (the last one short): the
    patterns of its encrypted field."""
    total = 0
    for ny in cb._y_count.tolist():
        for i in range(-(-ny // cb.cap1)):
            total += 1 << typecodec._ceil_log2(min(cb.cap1, ny - i * cb.cap1))
    return total


def loop_layer2_message_count(cb):
    """Per layer-1 codeword, per bin of its layer-2 codewords: collect the
    (bin-index width, bin index, cipher width) shapes, then count patterns."""
    shapes = set()
    for nz in cb._z_count.tolist():
        nbins = -(-nz // cb.cap2)
        for u in range(nbins):
            s2 = typecodec._ceil_log2(min(cb.cap2, nz - u * cb.cap2))
            shapes.add((typecodec._ceil_log2(nbins), u, s2))
    return sum(1 << s2 for _, _, s2 in shapes)


def message_row(msgs, r):
    """Row r of the array encoder as the scalar message pair."""
    f = {name: int(getattr(msgs, name)[r]) for name in vars(msgs) if name != "erasure"}
    erased = bool(msgs.erasure[r])
    return (
        Layer1Message(f["type_id"], f["bin1"], f["cipher1"], f["width1"], erased),
        Layer2Message(f["bin2"], f["bin_width2"], f["cipher2"], f["width2"], erased),
    )


# ---------------------------------------------------------------------------
# array codec
# ---------------------------------------------------------------------------


def every_index_and_key_pair(cb):
    """The lexicographic index of every sequence (in and out of the ball)
    times all key pairs."""
    total = cb.spec.source.alphabet_size**cb.n
    k1, k2 = np.divmod(np.arange(cb.cap1 * cb.cap2), cb.cap2)
    reps = len(k1)
    return np.repeat(np.arange(total), reps), np.tile(k1, total), np.tile(k2, total)


def test_array_encode_matches_scalar(book):
    index, k1, k2 = every_index_and_key_pair(book)
    seqs = all_sequences(book.spec.source.alphabet_size, book.n)
    msgs = _encode_array(book, index, k1, k2)
    assert msgs.erasure.any() and not msgs.erasure.all()
    for r in range(len(index)):
        keys = KeyPair(int(k1[r]), int(k2[r]), book.bits1, book.bits2)
        assert message_row(msgs, r) == encode(seqs[index[r]], keys, book), r


def test_array_decode_with_wrong_keys_matches_scalar(book):
    index, k1, k2 = every_index_and_key_pair(book)
    msgs = _encode_array(book, index, k1, k2)
    # decode each message under every key pair, the true one included
    for shift in range(book.cap1 * book.cap2):
        g1, g2 = np.divmod((k1 * book.cap2 + k2 + shift) % (book.cap1 * book.cap2), book.cap2)
        erased, xhat1, xhat2 = _decode_array(book, msgs, g1, g2)
        for r in range(len(index)):
            m1, m2 = message_row(msgs, r)
            out = decode(m1, m2, KeyPair(int(g1[r]), int(g2[r]), book.bits1, book.bits2), book)
            assert erased[r] == out.erased, r
            assert np.array_equal(xhat1[r], out.xhat1) and np.array_equal(xhat2[r], out.xhat2), r


def test_array_decode_rejects_bad_messages(book):
    index, k1, k2 = every_index_and_key_pair(book)
    kept = np.flatnonzero(~_encode_array(book, index, k1, k2).erasure)[:1]
    msgs = _encode_array(book, index[kept], k1[kept], k2[kept])
    msgs.type_id[:] = book.total_types
    with pytest.raises(CodebookError, match="unknown type id"):
        _decode_array(book, msgs, k1[kept], k2[kept])
    msgs = _encode_array(book, index[kept], k1[kept], k2[kept])
    msgs.bin1[:] = -1
    with pytest.raises(CodebookError, match="bin index out of range"):
        _decode_array(book, msgs, k1[kept], k2[kept])


def test_lookup_rejects_symbols_outside_the_alphabet():
    cb = build_codebook(binary(), 4, 0.3)
    # [0, 0, 0, 2] shares its base-2 index with [0, 0, 1, 0]
    assert cb.lookup(np.array([0, 0, 1, 0])) is not None
    assert cb.lookup(np.array([0, 0, 0, 2])) is None
    # 257 would wrap to the in-alphabet 1 in int8, and 200 would not cast at all
    keys = KeyPair(0, 0, cb.bits1, cb.bits2)
    for bad in ([0, 0, 0, 257], [0, 0, 0, 200]):
        assert cb.lookup(np.array(bad)) is None
        assert encode(np.array(bad), keys, cb) == encode(bad, keys, cb) == (M0_LAYER1, M0_LAYER2)


def test_lookup_matches_the_array_path(book):
    kx = book.spec.source.alphabet_size
    rows = all_sequences(kx, book.n)
    hit, pos = book._locate(np.arange(kx**book.n))
    assert hit.any() and not hit.all()
    for row, h, p in zip(rows, hit.tolist(), pos.tolist()):
        want = (int(book._seq_book[p]), int(book._seq_ypos[p]), int(book._seq_zpos[p])) if h else None
        assert book.lookup(row) == want
    # an in-ball row with one symbol outside the alphabet, at each position
    for bad in (-1, kx):
        for t in range(book.n):
            outside = rows[hit].copy()
            outside[:, t] = bad
            assert all(book.lookup(row) is None for row in outside)


# ---------------------------------------------------------------------------
# Monte-Carlo loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("samples", [1, 700, typecodec._CODEC_CHUNK + 333])
def test_simulate_jep_matches_per_sample_loop(book, samples):
    for seed in (3, 29):
        rng_loop, rng_batch = np.random.default_rng(seed), np.random.default_rng(seed)
        assert simulate_jep(book, samples, rng_batch) == loop_simulate_jep(book, samples, rng_loop)
        # the generator is left where the loop leaves it
        assert rng_batch.integers(0, 1 << 62) == rng_loop.integers(0, 1 << 62)


# (name, spec, n, delta, samples) beyond the fixture, one per way simulate_jep
# groups its draws: 28-bit keys at binary n = 8, where 2^8 * 2^56 codes do not
# fit int64 and every draw is its own row, and the widest keys, 62 bits; more
# distinct rows than one codec chunk; and a middle mass of 1e-20, which
# vanishes in the cdf (equal entries)
MC_BOOKS = [
    ("wide-keys", binary(r1=3.5, r2=3.5), 8, 0.1, typecodec._CODEC_CHUNK + 333),
    ("62-bit-keys", binary(r1=15.5, r2=15.5), 4, 0.3, 500),
    ("many-rows", ternary(r1=0.15, r2=0.15), 7, 0.05, 20_000),
    ("vanishing-mass", SystemSpec(Distribution([0.45, 1e-20, 0.55]), H3, H3, 0.3, 0.1,
                                  1.6, 1.6, 0.2, 0.2, 0.1), 5, 0.05, 3000),
]


@pytest.mark.parametrize("name, spec, n, delta, samples", MC_BOOKS, ids=[c[0] for c in MC_BOOKS])
def test_simulate_jep_groupings_match_per_sample_loop(name, spec, n, delta, samples):
    cb = build_codebook(spec, n, delta)
    kx, probs = spec.source.alphabet_size, spec.source.probs
    assert (kx**n * cb.cap1 * cb.cap2 > 2**63) == name.endswith("-keys")
    if name == "many-rows":
        rng = np.random.default_rng(3)
        seqs = rng.choice(kx, size=(samples, n), p=probs)
        keys = rng.integers(0, [cb.cap1, cb.cap2], size=(samples, 2))
        distinct = _group_rows(np.column_stack([seqs, keys]))[1].size
        assert distinct > typecodec._CODEC_CHUNK
    if name == "vanishing-mass":
        assert probs.cumsum()[0] == probs.cumsum()[1]
    for seed in (3, 29):
        rng_loop, rng_batch = np.random.default_rng(seed), np.random.default_rng(seed)
        assert simulate_jep(cb, samples, rng_batch) == loop_simulate_jep(cb, samples, rng_loop)
        assert rng_batch.integers(0, 1 << 62) == rng_loop.integers(0, 1 << 62)


def test_simulate_jep_counts_distortion_failures():
    # a codebook whose layer-2 codewords are replaced by their negation
    # decodes every in-ball block outside D2, so every sample errs
    cb = build_codebook(binary(alpha=0.5), 6, 0.5)
    cb._Z = 1 - cb._Z
    assert simulate_jep(cb, 300, np.random.default_rng(1)) == 1.0


@pytest.mark.parametrize("samples", [0, -5])
def test_simulate_jep_rejects_nonpositive_samples(samples):
    cb = build_codebook(binary(), 4, 0.3)
    with pytest.raises(ValueError, match="sample count must be positive"):
        simulate_jep(cb, samples, np.random.default_rng(0))


def test_cli_rejects_negative_samples(tmp_path, capsys):
    spec = {"source": [0.7, 0.3], "d1": {"hamming": True}, "d2": {"hamming": True},
            "D1": 0.2, "D2": 0.1, "R1": 1.0, "R2": 1.0, "r1": 0.06, "r2": 0.1, "alpha": 0.1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    args = ["simulate", "--spec", str(path), "--n", "6", "--delta", "0.3"]
    assert main(args + ["--samples", "-5"]) == EXIT_SPEC
    assert "sample count must be positive, got -5" in capsys.readouterr().err
    out = tmp_path / "zero.json"
    assert main(args + ["--samples", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["jep"]["monte_carlo"] is None


# ---------------------------------------------------------------------------
# leakage oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["M1", "M1M2"])
def test_leakage_oracle_matches_per_key_loop(book, which):
    assert leakage_oracle(book, which) == loop_leakage_oracle(book, which)


def test_leakage_oracle_batches_agree(monkeypatch):
    cb = build_codebook(binary(r1=0.25, r2=0.25, alpha=0.12), 8, 0.2)
    whole = leakage_oracle(cb, "M1M2")
    monkeypatch.setattr(typecodec, "_CODEC_CHUNK", 48)  # three sequences per batch
    assert leakage_oracle(cb, "M1M2") == whole == loop_leakage_oracle(cb, "M1M2")


@pytest.mark.parametrize("n_rows", [0, 1, 2, 500, 3000])
@pytest.mark.parametrize("width", [1, 5, 9])
def test_group_rows_equals_unique(n_rows, width):
    # rows drawn from a small pool repeat; fields hold -1 (the type id and
    # bin2 of an erasure) and large values of both signs
    rng = np.random.default_rng(n_rows * 31 + width)
    pool = rng.integers(-1, 3, size=(max(n_rows // 4, 1), width))
    pool[::2, -1] = rng.integers(-2**40, 2**40, size=pool[::2].shape[0])
    rows = pool[rng.integers(len(pool), size=n_rows)].astype(np.int64)
    order, starts = _group_rows(rows)
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(np.sort(order), np.arange(n_rows))
    assert np.array_equal(rows[order[starts]], distinct)
    assert np.array_equal(np.diff(starts, append=order.size), counts)


def test_leakage_oracle_rejects_unknown_target():
    cb = build_codebook(binary(), 4, 0.3)
    with pytest.raises(ValueError, match="unknown leakage target 'bogus'"):
        leakage_oracle(cb, "bogus")


# ---------------------------------------------------------------------------
# codec tables
# ---------------------------------------------------------------------------


def test_type_classes_enumerated_once(tmp_path, monkeypatch):
    calls = []
    original = typecodec.type_class_members
    monkeypatch.setattr(typecodec, "type_class_members",
                        lambda t, *a, **k: calls.append(t.counts) or original(t, *a, **k))
    cb = build_codebook(ternary(r1=0.17, r2=0.17), 6, 0.05)
    inball = [tuple(c) for c in cb.type_counts.tolist()]
    assert calls == inball
    path = str(tmp_path / "book.srcb")
    save_codebook(cb, path)
    calls.clear()
    load_codebook(path)
    assert calls == inball


def test_verify_covering_names_first_violation():
    cb = build_codebook(binary(r1=0.25, r2=0.25, alpha=0.12), 8, 0.2)
    # flip every layer-1 codeword: the first book's first member fails first
    cb._Y = 1 - cb._Y
    counts = tuple(cb.type_counts[0].tolist())
    first = typecodec.type_class_members(typecodec.TypeClass(8, counts))[0]
    k, ypos, zpos = cb.lookup(first)
    g = cb._y_offset[k] + ypos
    dist1 = float(H2.matrix[first, cb._Y[g]].sum()) / 8
    dist2 = float(H2.matrix[first, cb._Z[cb._z_offset[g] + zpos]].sum()) / 8
    with pytest.raises(CodebookError) as err:
        typecodec.verify_covering(cb)
    assert str(err.value) == f"covering violated at type {counts}: distortions ({dist1}, {dist2})"


def test_load_rejects_an_assignment_table_short_of_its_class(tmp_path):
    cb = build_codebook(binary(), 6, 0.3)
    path = tmp_path / "book.srcb"
    save_codebook(cb, str(path))
    clean = path.read_bytes()
    # the last block ends with its assignment count and table: drop the last row
    _, end = block_spans(cb)[-1]
    m = int(np.count_nonzero(cb._seq_book == cb.type_ids.size - 1))
    raw = bytearray(clean[: end - 8])
    struct.pack_into("<I", raw, end - 8 * m - 4, m - 1)
    path.write_bytes(bytes(raw))
    want = f"assignment table of type {tuple(cb.type_counts[-1].tolist())} does not match its class"
    with pytest.raises(CodebookError, match=re.escape(want)):
        load_codebook(str(path))
    # the same file with its full table loads
    path.write_bytes(clean)
    load_codebook(str(path))


def test_load_rejects_assignment_to_missing_codeword(tmp_path):
    cb = build_codebook(binary(), 6, 0.3)
    # the first member of the first book, in its class order
    cb._seq_ypos[np.flatnonzero(cb._seq_book == 0)[0]] = cb._y_count[0]
    path = str(tmp_path / "book.srcb")
    save_codebook(cb, path)
    with pytest.raises(CodebookError, match="names a missing codeword"):
        load_codebook(path)


# message counts beyond the parametrised books: an empty ball, and up to
# four key bits per layer, so that some bins are short and some full
COUNT_BOOKS = [
    ("empty-ball", SystemSpec(Distribution([0.999, 0.001]), H2, H2, 0.2, 0.1, 1.0, 1.0,
                              0.0, 0.0, 1e-6), 4, 1e-6),
    ("binary-3-3", binary(r1=0.375, r2=0.375), 8, 0.2),
    ("binary-4-1", binary(r1=0.5, r2=0.125, alpha=0.3), 8, 0.2),
    ("binary-1-4", binary(p=0.4, r1=0.17, r2=0.5), 8, 0.2),
    ("ternary-2-2", ternary(r1=0.34, r2=0.34), 6, 0.05),
]


def check_message_counts(cb):
    assert cb.layer1_message_count() == loop_layer1_message_count(cb)
    assert cb.layer2_message_count() == loop_layer2_message_count(cb)
    blocks = codebook_blocks(cb)
    assert cb.total_y_codewords() == sum(len(y_codes) for _, y_codes, _, _ in blocks)
    assert cb.total_z_codewords() == sum(len(z) for _, _, z_codes, _ in blocks for z in z_codes)


def test_message_counts_match_per_bin_loops(book):
    check_message_counts(book)


@pytest.mark.parametrize("name, spec, n, delta", COUNT_BOOKS, ids=[c[0] for c in COUNT_BOOKS])
def test_message_counts_match_per_bin_loops_beyond_the_fixture(name, spec, n, delta):
    cb = build_codebook(spec, n, delta)
    check_message_counts(cb)
    if name == "empty-ball":
        assert cb.layer1_message_count() == cb.layer2_message_count() == 0
        assert cb._y_offset.shape == cb._y_count.shape == (0,)
        assert cb._z_offset.shape == cb._z_count.shape == (0,)
    else:
        assert any(cb._y_count % cb.cap1) or cb.cap1 == 1


def test_sequence_index_must_fit_int64():
    spec = binary()
    with pytest.raises(CapExceededError, match="int64 sequence index"):
        CoverCodebook(RateModel(spec), 64, 0.1, [])


def wide_alphabet(source, cols1, cols2):
    """Hamming measures over a uniform source, their columns widened."""
    return SystemSpec(Distribution.uniform(source), DistortionMeasure.hamming(source, cols1),
                      DistortionMeasure.hamming(source, cols2), 0.5, 0.0, 9.0, 9.0, 0.0, 0.0, 8.0)


# 200 letters wrap in the int8 symbol field: 127 + 1 reads as -128
@pytest.mark.parametrize("sizes", [(200, 200, 200), (2, 200, 2), (2, 2, 128)])
def test_alphabets_must_fit_int8_symbols(monkeypatch, sizes):
    spec = wide_alphabet(*sizes)
    want = f"a {max(sizes)}-letter alphabet exceeds the codec's 127-symbol limit"
    with pytest.raises(CapExceededError, match=want):
        CoverCodebook(RateModel(spec), 1, 1.0, [])
    # the build refuses before it enumerates a candidate
    monkeypatch.setattr(typecodec, "all_sequences", None)
    with pytest.raises(CapExceededError, match=want):
        build_codebook(spec, 1, 1.0)


def test_a_127_letter_alphabet_fits():
    # every point type is in the ball; 2^127 count patterns overflow an int64 type code
    cb = build_codebook(wide_alphabet(127, 127, 127), 1, 1.0)
    assert cb.total_types == cb.type_ids.size == 127


@pytest.mark.parametrize("layer, r1, r2", [(1, 15.75, 0.0), (2, 0.0, 15.75)])
def test_keys_must_fit_62_bits(tmp_path, layer, r1, r2):
    # floor(4 * 15.75) = 63 key bits; the codec's key fields are int64
    with pytest.raises(CapExceededError, match=f"layer-{layer} key of 63 bits"):
        build_codebook(binary(r1=r1, r2=r2), 4, 0.3)
    cb = build_codebook(binary(r1=15.5, r2=15.5), 4, 0.3)
    assert (cb.bits1, cb.bits2) == (62, 62)
    # a saved keyless codebook whose key rate is rewritten to 63 bits does not load
    path = tmp_path / "book.srcb"
    save_codebook(build_codebook(binary(), 4, 0.3), str(path))
    raw = bytearray(path.read_bytes())
    # header: magic, version, four sizes, then alpha, delta, D1, D2, R1, R2, r1, r2
    struct.pack_into("<2d", raw, 4 + 2 + 8 + 6 * 8, r1, r2)
    path.write_bytes(bytes(raw))
    with pytest.raises(CapExceededError, match=f"layer-{layer} key of 63 bits"):
        load_codebook(str(path))


# ---------------------------------------------------------------------------
# guessing attack
# ---------------------------------------------------------------------------


def stacked(joints, shape):
    return np.array(joints, dtype=np.int64).reshape((len(joints),) + shape)


ATTACK_SPECS = [
    ("binary", binary(D1=0.3, D2=0.15, R1=1.0, R2=1.0, r1=0.25, r2=0.25, alpha=1.7), 4),
    # the first-symbol guess sums many unequal terms, so their order shows
    ("binary-n6", binary(D1=0.3, D2=0.15, R1=1.0, R2=1.0, alpha=1.5), 6),
    ("erasure", binary(p=0.35, D1=0.3, D2=0.2, R1=1.0, R2=1.0, alpha=1.5, d1=ERASURE_D1), 4),
    # 27 joint cells at n = 5: (n + 1)^27 > 2^63, so no radix packing of joints fits int64
    ("ternary", ternary(alpha=0.5), 5),
]


@pytest.mark.parametrize("name, spec, n", ATTACK_SPECS, ids=[a[0] for a in ATTACK_SPECS])
def test_feasible_sets_match_loops(name, spec, n):
    ctx = _GuessContext(RateModel(spec))
    kx, ka, kb = spec.source.alphabet_size, spec.d1.cols, spec.d2.cols
    # codeword pairs of a built code, and pairs no source sequence explains
    cb = build_codebook(spec, n, 0.5)
    blocks = codebook_blocks(cb)[:: max(1, cb.type_ids.size // 2)]
    pairs = [(y_codes[0], z_codes[0][0]) for _, y_codes, z_codes, _ in blocks]
    pairs += [(np.zeros(n, np.int8), np.ones(n, np.int8)), (np.full(n, ka - 1), np.zeros(n))]
    pairs = [(y.astype(np.int64), z.astype(np.int64)) for y, z in pairs]
    nonempty = 0
    for xhat1, xhat2 in pairs:
        got = ctx.feasible([xhat1])
        assert np.array_equal(got, stacked(loop_feasible_g1(spec, xhat1), (kx, ka)))
        got = ctx.feasible([xhat1, xhat2])
        assert np.array_equal(got, stacked(loop_feasible_g2(spec, xhat1, xhat2, ctx), (kx, ka, kb)))
        nonempty += len(got) > 0
    assert nonempty >= 2
    if name == "ternary":
        assert (n + 1) ** (kx * ka * kb) > 2**63


# layer-1 rate caps that some x-types exceed, so the refined guesser's rate filter bites
RATE_CAPPED = [
    ("binary", binary(D1=0.25, D2=0.1, R1=0.1, R2=1.0), 5),
    ("erasure", binary(p=0.35, D1=0.3, D2=0.2, R1=0.05, R2=1.0, d1=ERASURE_D1), 5),
]


@pytest.mark.parametrize("name, spec, n", RATE_CAPPED, ids=[a[0] for a in RATE_CAPPED])
def test_feasible_g2_rate_filter_matches_loop(name, spec, n):
    ctx = _GuessContext(RateModel(spec))
    uncapped = _GuessContext(RateModel(dataclasses.replace(spec, R1=1.6)))
    pairs = [(y, z) for y in all_sequences(spec.d1.cols, n)[::17]
             for z in all_sequences(spec.d2.cols, n)[::3]]
    removed = 0
    for xhat1, xhat2 in pairs:
        got = ctx.feasible([xhat1, xhat2])
        assert np.array_equal(got, stacked(loop_feasible_g2(spec, xhat1, xhat2, ctx), got.shape[1:]))
        removed += len(uncapped.feasible([xhat1, xhat2])) - len(got)
    assert removed > 0


# every (guesser, target) pair; the constant and first-symbol targets sum many
# unequal draws into one mass, so a change in summation order shows
SCHEMES = [
    ("g1", FIRST_SYMBOL_TARGET), ("g2", IDENTITY_TARGET), ("g1", IDENTITY_TARGET),
    ("g2", FIRST_SYMBOL_TARGET), ("g1", CONSTANT_TARGET), ("g2", CONSTANT_TARGET),
]


@functools.lru_cache(maxsize=None)
def attack_case(name, guesser, target_name):
    """The codebook of an ``ATTACK_SPECS`` entry and the loop chain's probability on it."""
    _, spec, n = next(a for a in ATTACK_SPECS if a[0] == name)
    target = next(t for _, t in SCHEMES if t.name == target_name)
    cb = build_codebook(spec, n, 0.5)
    scheme = GuessScheme(guesser, target)
    return cb, scheme, loop_end_to_end(spec, n, cb, scheme, loop_g2_sets=name != "ternary")


@pytest.mark.parametrize("name, spec, n", ATTACK_SPECS, ids=[a[0] for a in ATTACK_SPECS])
@pytest.mark.parametrize("guesser, target", SCHEMES)
def test_end_to_end_matches_loop(name, spec, n, guesser, target):
    cb, scheme, want = attack_case(name, guesser, target.name)
    got = end_to_end_guess_probability(spec, n, cb, scheme).probability
    assert got > 0.0
    assert got == want


@pytest.mark.parametrize("name, spec, n", [a for a in ATTACK_SPECS if a[0] in ("binary-n6", "ternary")],
                         ids=["binary-n6", "ternary"])
@pytest.mark.parametrize("guesser, target", SCHEMES)
@pytest.mark.parametrize("one_per_pass", [True, False], ids=["one-observation", "all-observations"])
def test_end_to_end_chunk_boundaries(monkeypatch, name, spec, n, guesser, target, one_per_pass):
    # joint chunks of 7 rows put chunk boundaries inside candidate blocks;
    # with every observation in one guesser pass, chunks also span observations
    cb, scheme, want = attack_case(name, guesser, target.name)
    layers = 1 if guesser == "g1" else 2
    cells = spec.source.alphabet_size * spec.d1.cols * (spec.d2.cols if layers == 2 else 1)
    if one_per_pass:
        monkeypatch.setattr(adversary, "_OBS_CELLS", layers * n)
    monkeypatch.setattr(adversary, "_JOINT_CELLS", 7 * max(n, cells))
    chunks = []
    original = adversary._candidate_joints

    def recorded(seqs, cands, obs_cell, sizes, start, stop):
        chunks.append((len(obs_cell), cands.size, start, stop))
        return original(seqs, cands, obs_cell, sizes, start, stop)

    monkeypatch.setattr(adversary, "_candidate_joints", recorded)
    assert end_to_end_guess_probability(spec, n, cb, scheme).probability == want
    assert all(stop - start <= 7 for _, _, start, stop in chunks)
    assert any(start % size for _, size, start, _ in chunks)
    if one_per_pass:
        assert all(observations == 1 for observations, _, _, _ in chunks)
    else:
        assert any(start // size != (stop - 1) // size for _, size, start, stop in chunks)

import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import srleak
from srleak.cli import EXIT_CAP, EXIT_OK, EXIT_SPEC, _json_dump, load_system_spec, main
from srleak.exponents import RateModel
from srleak.typecodec import load_codebook, save_codebook

from conftest import block_spans


FIG_SPEC = {
    "source": [0.7, 0.3],
    "d1": {"hamming": True},
    "d2": {"hamming": True},
    "D1": 0.2,
    "D2": 0.1,
    "R1": 1.0,
    "R2": 1.0,
    "r1": 0.06,
    "r2": 0.1,
    "alpha": 0.1,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FIG_SPEC))
    return str(path)


def run(args):
    return main(args)


class TestSpecLoading:
    def test_hamming_shorthand(self, spec_file):
        spec = load_system_spec(spec_file)
        assert spec.is_binary_hamming

    def test_explicit_matrix(self, tmp_path):
        raw = dict(FIG_SPEC)
        raw["d1"] = {"matrix": [[0.0, 1.0], [1.0, 0.0]]}
        raw["d2"] = [[0.0, 2.0], [0.5, 0.0]]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        spec = load_system_spec(str(path))
        assert spec.d2.matrix[0, 1] == 2.0

    def test_missing_field_exit_code(self, tmp_path, capsys):
        raw = dict(FIG_SPEC)
        del raw["alpha"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run(["rd", "--spec", str(path)]) == EXIT_SPEC

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run(["rd", "--spec", str(path)]) == EXIT_SPEC


MALFORMED_SPECS = {
    "null rate": json.dumps(dict(FIG_SPEC, R1=None)),
    "top-level list": json.dumps([FIG_SPEC]),
    "string cols": json.dumps(dict(FIG_SPEC, d1={"hamming": True, "cols": "3"})),
    "NaN alpha": json.dumps(FIG_SPEC).replace('"alpha": 0.1', '"alpha": NaN'),
    "infinite alpha": json.dumps(FIG_SPEC).replace('"alpha": 0.1', '"alpha": Infinity'),
    "boolean D1": json.dumps(dict(FIG_SPEC, D1=True)),
}


@pytest.mark.parametrize("text", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
def test_malformed_spec_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["rd", "--spec", str(path)]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestCommands:
    def test_rd(self, spec_file, tmp_path, capsys):
        out = tmp_path / "rd.json"
        assert run(["rd", "--spec", spec_file, "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        hb = lambda p: -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert data["rd_at_D1"] == pytest.approx(hb(0.3) - hb(0.2), abs=1e-12)
        assert data["two_layer_sum_rate"] == pytest.approx(hb(0.3) - hb(0.1), abs=1e-12)

    def test_exponents(self, spec_file, tmp_path):
        out = tmp_path / "e.json"
        assert run(["exponents", "--spec", spec_file, "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["jep"]["joint_outer"] <= data["jep"]["joint_inner"] + 1e-9
        assert data["plateau_alpha"]["m1"] == pytest.approx(0.5 * math.log2(25 / 21), abs=1e-5)

    def test_sweep_shape(self, spec_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "sweep", "--spec", spec_file, "--alpha-range", "0:0.3:50", "--out", str(out)
        ]) == EXIT_OK
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("lambda1" in c for c in comments)
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        vals = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert vals.shape == (50, 4)
        for col in (1, 2, 3):
            assert np.all(np.diff(vals[:, col]) >= -1e-9)

    def test_sweep_determinism(self, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run([
                "sweep", "--spec", spec_file, "--alpha-range", "0:0.3:20", "--out", str(path),
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_sweep_rejects_a_range_without_points(self, spec_file, tmp_path, capsys, steps):
        # a header-only CSV would read as a successful sweep
        out = tmp_path / "sweep.csv"
        rng = f"0:0.3:{steps}"
        assert run(["sweep", "--spec", spec_file, "--alpha-range", rng, "--out", str(out)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: range must look like start:stop:steps, got {rng!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rng", ["0:nan:3", "-0.1:0.3:3"])
    def test_sweep_rejects_alphas_that_are_not_ball_radii(self, spec_file, tmp_path, rng):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", spec_file, f"--alpha-range={rng}", "--out", str(out)]) == EXIT_SPEC
        assert not out.exists()

    def test_region(self, spec_file, tmp_path):
        out = tmp_path / "r.json"
        assert run([
            "region", "--spec", spec_file, "--L1", "1.0", "--L2", "1.0", "--out", str(out)
        ]) == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "inside_inner"

    def test_simulate_and_determinism(self, spec_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run([
                "simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3",
                "--seed", "11", "--samples", "500", "--out", str(path),
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["leakage_bits"]["m1_paths_agree"] is True
        assert data["leakage_bits"]["joint_paths_agree"] is True
        assert data["jep"]["bound_holds"] is True

    def test_simulate_cache_roundtrip(self, spec_file, tmp_path):
        cache = tmp_path / "book.srcb"
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert run([
            "simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3",
            "--cache", str(cache), "--out", str(out1),
        ]) == EXIT_OK
        assert cache.exists()
        assert run([
            "simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3",
            "--cache", str(cache), "--out", str(out2),
        ]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("field, asked", [
        ("source", {"--spec": "other.json"}),
        ("n", {"--n": "8"}),
        ("delta", {"--delta": "0.25"}),
        ("delta", {"--delta": None}),  # the default delta of this spec is not 0.3
    ])
    def test_simulate_refuses_a_stale_cache(self, spec_file, tmp_path, capsys, field, asked):
        cache = tmp_path / "book.srcb"
        (tmp_path / "other.json").write_text(json.dumps(dict(FIG_SPEC, source=[0.6, 0.4])))
        args = {"--spec": spec_file, "--n": "6", "--delta": "0.3", "--cache": str(cache)}
        assert run(["simulate", *[a for kv in args.items() for a in kv]]) == EXIT_OK
        for flag, value in asked.items():
            if value is None:
                del args[flag]
            else:
                args[flag] = str(tmp_path / value) if flag == "--spec" else value
        capsys.readouterr()
        assert run(["simulate", *[a for kv in args.items() for a in kv]]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith(f"error: codebook cache {cache} was built for {field} = ")

    def test_simulate_default_delta_cache_matches_build(self, spec_file, tmp_path):
        cache = tmp_path / "book.srcb"
        outs = [tmp_path / "built.json", tmp_path / "cached.json"]
        for out in outs:
            assert run(["simulate", "--spec", spec_file, "--n", "6", "--samples", "300",
                        "--cache", str(cache), "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_at_a_small_delta(self, spec_file, tmp_path):
        # the exponent threshold lies far beyond any blocklength a scan would try
        out = tmp_path / "small.json"
        assert run(["simulate", "--spec", spec_file, "--n", "6", "--delta", "1e-5",
                    "--samples", "0", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["jep"]["exponent_threshold_n"] == 4_414_783

    def test_simulate_rejects_an_out_of_alphabet_cache(self, spec_file, tmp_path, capsys):
        cache = str(tmp_path / "book.srcb")
        args = ["simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3", "--cache", cache]
        assert run(args) == EXIT_OK
        cb = load_codebook(cache)
        cb._Y[0, 0] = -1  # saved as the byte 0xFF
        save_codebook(cb, cache)
        capsys.readouterr()
        assert run(args) == EXIT_SPEC
        assert capsys.readouterr().err.startswith("error: layer-1 codeword of type ")

    def test_simulate_rejects_a_cache_missing_a_type(self, spec_file, tmp_path, capsys):
        # without its block for an in-ball type, a cache would erase that type's
        # sequences while the exact JEP counts only the out-of-ball mass
        cache = tmp_path / "book.srcb"
        args = ["simulate", "--spec", spec_file, "--n", "8", "--samples", "0", "--cache", str(cache)]
        assert run(args) == EXIT_OK
        cb = load_codebook(str(cache))
        start, end = block_spans(cb)[0]
        raw = bytearray(cache.read_bytes())
        struct.pack_into("<I", raw, start - 4, cb.type_ids.size - 1)  # the block count
        cache.write_bytes(bytes(raw[:start] + raw[end:]))
        capsys.readouterr()
        assert run(args) == EXIT_SPEC
        assert "are not the in-ball type ids" in capsys.readouterr().err

    def test_simulate_beyond_the_oracle_cap_prints_closed_forms_alone(self, spec_file, tmp_path,
                                                                      monkeypatch):
        # 2^6 sequences times the key pairs exceed an enumeration cap of 1
        args = ["simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3", "--samples", "0"]
        full, capped = tmp_path / "full.json", tmp_path / "capped.json"
        assert run(args + ["--out", str(full)]) == EXIT_OK
        monkeypatch.setenv("SRLEAK_MAX_ENUM", "1")
        assert run(args + ["--out", str(capped)]) == EXIT_OK
        full, capped = json.loads(full.read_text()), json.loads(capped.read_text())
        assert full["invariants"]["oracle_enabled"] is True
        assert capped["invariants"]["oracle_enabled"] is False
        for field in ("m1_oracle", "m1_paths_agree", "joint_oracle", "joint_paths_agree"):
            assert capped["leakage_bits"].pop(field) is None
            full["leakage_bits"].pop(field)
        del full["invariants"]["oracle_enabled"], capped["invariants"]["oracle_enabled"]
        assert capped == full

    def test_simulate_beyond_the_oracle_cap_prints_null_oracle_fields(self, spec_file, capsys,
                                                                     monkeypatch):
        # 2^8 sequences exceed a cap of 1: closed forms print, oracle fields are null
        monkeypatch.setenv("SRLEAK_MAX_ENUM", "1")
        assert run(["simulate", "--spec", spec_file, "--n", "8", "--samples", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert '"oracle_enabled": false' in out
        report = json.loads(out)
        for field in ("m1_oracle", "m1_paths_agree", "joint_oracle", "joint_paths_agree"):
            assert report["leakage_bits"][field] is None

    def test_simulate_cap_exit(self, spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SRLEAK_MAX_SEQUENCES", "4")
        assert run([
            "simulate", "--spec", spec_file, "--n", "6", "--delta", "0.3",
        ]) == EXIT_CAP
        # adversary builds its codebook under the same cap
        assert run([
            "adversary", "--spec", spec_file, "--n", "6", "--delta", "0.3",
        ]) == EXIT_CAP

    def test_simulate_key_wider_than_62_bits_is_a_cap_exit(self, tmp_path, capsys):
        # floor(6 * 10.5) = 63 layer-1 key bits do not fit the int64 key field
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, r1=10.5)))
        assert run(["simulate", "--spec", str(path), "--n", "6", "--delta", "0.3"]) == EXIT_CAP
        assert capsys.readouterr().err == (
            "resource cap exceeded: a layer-1 key of 63 bits exceeds the 62-bit int64 key field\n"
        )

    def test_simulate_alphabet_beyond_int8_symbols_is_a_cap_exit(self, tmp_path, capsys):
        # at n = 1 every symbol covers itself; the refusal replaces a false covering failure
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, source=[1 / 200] * 200, D1=0.5, D2=0.0,
                                        R1=9.0, R2=9.0, r1=0.0, r2=0.0, alpha=8.0)))
        assert run(["simulate", "--spec", str(path), "--n", "1", "--delta", "1"]) == EXIT_CAP
        assert capsys.readouterr().err == (
            "resource cap exceeded: a 200-letter alphabet exceeds the codec's 127-symbol limit\n"
        )

    def test_adversary_on_a_24_letter_alphabet_runs_both_guessers(self, tmp_path, capsys):
        # 24^3 = 13,824 joint cells at n = 1, but an observation fills one
        # reconstruction cell: 24 candidate joint types, the same one-letter
        # guess as g1's
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, source=[1 / 24] * 24, D1=0.5, D2=0.0,
                                        R1=9.0, R2=9.0, r1=0.0, r2=0.0, alpha=8.0)))
        argv = ["adversary", "--spec", str(path), "--n", "1", "--delta", "1", "--target", "identity"]
        outputs = []
        for guesser in ("g2", "g1"):
            assert run([*argv, "--guesser", guesser]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            assert out.pop("guesser") == guesser
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", [6, 7])
    def test_adversary_ternary_g2_beyond_the_joint_type_count(self, tmp_path, capsys, n):
        # 27 joint cells: C(n + 26, 26) joint types, over the enumeration cap
        # as a table at n = 6 and 7, while each observation's candidates are few
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, source=[0.4, 0.33, 0.27], D1=0.3, D2=0.1,
                                        R1=1.6, R2=1.6, r1=0.0, r2=0.0, alpha=0.5)))
        assert math.comb(n + 26, 26) * 27 > 2**24
        assert run(["adversary", "--spec", str(path), "--n", str(n), "--guesser", "g2"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["p_star"] <= out["probability"] <= 1.0

    # each input asks for an array beyond the 128 TiB user address space, so
    # the allocation fails at once under any overcommit setting
    @pytest.mark.parametrize("argv, spec", [
        (["rd"], dict(FIG_SPEC, d1={"hamming": True, "cols": 10**14})),
        (["sweep", "--alpha-range", f"0:0.3:{10**14}"], FIG_SPEC),
        (["simulate", "--n", "6", "--samples", str(10**14)], FIG_SPEC),
    ])
    def test_refused_allocation_is_a_cap_exit(self, tmp_path, capsys, argv, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run([argv[0], "--spec", str(path), *argv[1:]]) == EXIT_CAP
        assert capsys.readouterr().err.startswith("resource cap exceeded: Unable to allocate ")

    # argparse refuses the flag before any file is read, so the spec need not exist
    @pytest.mark.parametrize("argv", [
        ["rd", "--spec", "s.json"],
        ["exponents", "--spec", "s.json"],
        ["sweep", "--spec", "s.json"],
        ["region", "--spec", "s.json", "--L1", "1", "--L2", "1"],
        ["adversary", "--spec", "s.json", "--n", "4"],
        ["reproduce"],
    ])
    def test_seed_is_simulate_only(self, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--seed", "1"])
        assert exc.value.code == EXIT_SPEC

    @pytest.mark.parametrize("command, name", [
        ("simulate", "SRLEAK_MAX_ENUM"),
        ("simulate", "SRLEAK_MAX_SEQUENCES"),
        ("adversary", "SRLEAK_MAX_ENUM"),
        ("adversary", "SRLEAK_MAX_SEQUENCES"),
    ])
    def test_negative_cap_exit(self, spec_file, tmp_path, capsys, monkeypatch, command, name):
        # a negative cap is a malformed value, not a request to skip the enumeration
        monkeypatch.setenv(name, "-1")
        out = tmp_path / "out.json"
        assert run([command, "--spec", spec_file, "--n", "4", "--delta", "0.3", "--out", str(out)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: environment cap {name} must be nonnegative, got '-1'\n"
        assert not out.exists()

    def test_adversary(self, spec_file, tmp_path):
        out = tmp_path / "adv.json"
        raw = dict(FIG_SPEC)
        raw.update(alpha=1.7, r1=0.0, r2=0.0, D1=0.3, D2=0.15)
        path = tmp_path / "adv_spec.json"
        path.write_text(json.dumps(raw))
        assert run([
            "adversary", "--spec", str(path), "--n", "4", "--delta", "0.5",
            "--tau", "1.42", "--out", str(out),
        ]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["chain_bound"]["valid"] is True
        assert data["meets_bound"] is True


    @pytest.mark.parametrize("argv, err", [
        (["region", "--L1", "nan", "--L2", "0.5"], "leakage budgets must be nonnegative"),
        (["simulate", "--n", "8", "--delta", "nan"], "delta must be positive"),
        (["adversary", "--n", "4", "--delta", "0.3", "--tau", "nan"], "tau must be a number"),
    ], ids=["region-L1", "simulate-delta", "adversary-tau"])
    def test_nan_option_exit(self, spec_file, tmp_path, capsys, argv, err):
        # NaN fails every comparison, so a check written as `x < 0` lets it through
        out = tmp_path / "out.json"
        assert run([argv[0], "--spec", spec_file, *argv[1:], "--out", str(out)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()


def strict_loads(text):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_exponents_on_a_radius_within_rounding_of_the_cap(tmp_path, capsys):
    # alpha lies between -log2(p) and binary_kl(1, p): the upper side of the
    # ball reaches q = 1
    p = 0.9941893105705301
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(dict(FIG_SPEC, source=[1.0 - p, p], alpha=0.008407503244129269)))
    assert run(["exponents", "--spec", str(path)]) == EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) >= {"jep", "expected", "plateau_alpha"}


def test_exponents_on_a_radius_within_rounding_of_zero(tmp_path, capsys):
    # the upper side of a 2e-16 ball around a 2e-5 parameter: the bracket
    # [p, 1] once ran Brent's method out of iterations
    p = 2.2761761997738282e-05
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(FIG_SPEC, source=[1.0 - p, p], alpha=2.260857107729504e-16)))
    assert run(["exponents", "--spec", str(path)]) == EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) >= {"jep", "expected", "plateau_alpha"}


class TestStrictJson:
    def test_rd_prints_null_sum_rate_below_layer1_rate(self, tmp_path):
        # R1 = 0.05 is below R(P, D1) = 0.159, so no two-layer code exists
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, R1=0.05)))
        out = tmp_path / "rd.json"
        assert run(["rd", "--spec", str(path), "--out", str(out)]) == EXIT_OK
        data = strict_loads(out.read_text())
        assert data["two_layer_sum_rate"] is None
        assert data["rd_at_D1"] > 0.05

    def test_simulate_rejects_infinite_delta(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["simulate", "--spec", spec_file, "--n", "6", "--delta", "inf", "--out", str(out)]
        assert run(argv) == EXIT_SPEC
        assert capsys.readouterr().err == "error: delta must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_output_refuses_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_dump({"value": value})


class TestLayer1RateCheck:
    def test_exponents_accepts_a_rate_that_fails_only_beyond_alpha(self, tmp_path):
        # R1 = 0.277 exceeds the ball maximum of R(Q, D1) at alpha = 0.1 (0.276643)
        # but not at the plateau scan's top radius (0.278072)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, R1=0.277)))
        exp_out, region_out = tmp_path / "e.json", tmp_path / "r.json"
        assert run(["exponents", "--spec", str(path), "--out", str(exp_out)]) == EXIT_OK
        assert run(["region", "--spec", str(path), "--L1", "0", "--L2", "0", "--criterion", "jep",
                    "--out", str(region_out)]) == EXIT_OK
        data = strict_loads(exp_out.read_text())
        boundary = strict_loads(region_out.read_text())["boundary"]
        assert data["jep"] == {"m1": boundary["lambda1"], "joint_inner": boundary["lambda2_in"],
                               "joint_outer": boundary["lambda2_out"]}
        assert data["plateau_alpha"] == {"m1": 0.12576887467401637, "joint": None}

    @pytest.mark.parametrize("criterion, radius, ball_max", [
        ("jep", "0.1", "0.276643"),
        ("expected", "0", "0.159363"),  # R(P, D1), the ball of radius zero
    ])
    def test_region_error_names_the_radius(self, tmp_path, capsys, criterion, radius, ball_max):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(FIG_SPEC, R1=0.05)))
        argv = ["region", "--spec", str(path), "--L1", "0", "--L2", "0", "--criterion", criterion]
        assert run(argv) == EXIT_SPEC
        assert capsys.readouterr().err == (
            "error: layer-1 rate 0.05 must strictly exceed the ball maximum of the "
            f"rate-distortion function at radius {radius} ({ball_max})\n"
        )


class TestOneModelPerCommand:
    @pytest.fixture
    def builds(self, monkeypatch):
        specs = []
        init = RateModel.__init__

        def spy(self, spec):
            specs.append(spec)
            init(self, spec)

        monkeypatch.setattr(RateModel, "__init__", spy)
        return specs

    @pytest.mark.parametrize("argv", [
        ["rd"],
        ["exponents"],
        ["sweep", "--alpha-range", "0:0.3:5"],
        ["region", "--L1", "0.1", "--L2", "0.2", "--criterion", "jep"],
        ["region", "--L1", "0.1", "--L2", "0.2", "--criterion", "expected"],
    ], ids=["rd", "exponents", "sweep", "region-jep", "region-expected"])
    def test_one_build_per_command(self, spec_file, tmp_path, builds, argv):
        assert run([argv[0], "--spec", spec_file, *argv[1:], "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(builds) == 1

    @pytest.mark.parametrize("guesser", ["g1", "g2"])
    def test_adversary_builds_one_model(self, spec_file, tmp_path, builds, guesser):
        # the codebook's model serves the build, the attack chain and the chain bound
        assert run(["adversary", "--spec", spec_file, "--n", "4", "--delta", "0.3",
                    "--guesser", guesser, "--out", str(tmp_path / "adv.json")]) == EXIT_OK
        assert len(builds) == 1

    @pytest.mark.parametrize("delta", [["--delta", "0.3"], []], ids=["delta", "default-delta"])
    def test_simulate_builds_one_model(self, spec_file, tmp_path, builds, delta):
        # a build, then a cache hit that loads the codebook (and, without
        # --delta, checks it against the default delta)
        argv = ["simulate", "--spec", spec_file, "--n", "6", *delta,
                "--cache", str(tmp_path / "book.srcb"), "--out", str(tmp_path / "sim.json")]
        for _ in ("build", "cache hit"):
            builds.clear()
            assert run(argv) == EXIT_OK
            assert len(builds) == 1

    @pytest.mark.parametrize("target, alphas", [("all", {0.03, 0.2}), ("match", {0.03}), ("plateau", {0.2})])
    def test_reproduce_builds_one_model_per_operating_point(self, tmp_path, builds, target, alphas):
        assert run(["reproduce", "--target", target, "--out", str(tmp_path / "rep.txt")]) == EXIT_OK
        assert len(builds) == len(alphas)
        assert {s.alpha for s in builds} == alphas


def test_public_names_resolve():
    missing = [name for name in srleak.__all__ if not hasattr(srleak, name)]
    assert missing == []


class TestReproduce:
    def test_all_targets_pass(self, tmp_path):
        out = tmp_path / "rep.txt"
        assert run(["reproduce", "--target", "all", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "FAIL" not in text
        assert "keyrates" in text and "plateau" in text and "sweep" in text and "match" in text

    def test_single_target(self, tmp_path):
        out = tmp_path / "rep.txt"
        assert run(["reproduce", "--target", "keyrates", "--out", str(out)]) == EXIT_OK
        assert "0.162" in out.read_text()


TERNARY_SPEC = dict(FIG_SPEC, source=[0.5, 0.3, 0.2], D1=0.3, R1=1.5, R2=1.5, r1=0.05, r2=0.0,
                    alpha=0.05)

# (id, subcommand arguments, operating point): every command on a small binary
# point, and the general-alphabet path of `region` on a ternary one
SCIPY_FREE_RUNS = [
    ("rd", ["rd"], FIG_SPEC),
    ("exponents", ["exponents"], FIG_SPEC),
    ("sweep", ["sweep", "--alpha-range", "0:0.3:5"], FIG_SPEC),
    ("region", ["region", "--L1", "0.25", "--L2", "0.4"], FIG_SPEC),
    ("simulate", ["simulate", "--n", "6", "--samples", "100", "--seed", "3"], FIG_SPEC),
    ("adversary", ["adversary", "--n", "6"], FIG_SPEC),
    ("reproduce", ["reproduce", "--target", "all"], None),
    ("region-expected-ternary", ["region", "--L1", "0.25", "--L2", "0.4", "--criterion", "expected"],
     TERNARY_SPEC),
]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's srleak."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(srleak.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          timeout=300)


class TestRunsWithoutScipy:
    """The command line needs numpy alone: scipy is only a test oracle."""

    @pytest.mark.parametrize("argv, spec", [r[1:] for r in SCIPY_FREE_RUNS],
                             ids=[r[0] for r in SCIPY_FREE_RUNS])
    def test_command_output_equals_an_in_process_run(self, tmp_path, capsys, argv, spec):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = argv[:1] + ["--spec", str(path)] + argv[1:]
        blocked = fresh_python(
            "import sys; sys.modules['scipy'] = None; from srleak.cli import main; sys.exit(main())",
            *argv,
        )
        assert blocked.returncode == EXIT_OK, blocked.stderr.decode()
        assert run(argv) == EXIT_OK
        assert blocked.stdout == capsys.readouterr().out.encode()

    def test_import_loads_no_scipy(self):
        proc = fresh_python(
            "import sys, srleak.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "[]"

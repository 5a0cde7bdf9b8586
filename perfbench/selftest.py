"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They check that the workload generator is deterministic per seed, that
each reference check accepts srleak's correct outputs and rejects
perturbed ones, and that the trace wrappers leave every module attribute
as they found it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import srleak  # noqa: E402
import srleak.adversary  # noqa: E402
import srleak.cli  # noqa: E402
import srleak.exponents  # noqa: E402
import srleak.typecodec  # noqa: E402

from perfbench import reference as ref  # noqa: E402
from perfbench import speed, tracing, workloads  # noqa: E402

NS = types.SimpleNamespace(cli=srleak.cli, exponents=srleak.exponents, typecodec=srleak.typecodec)


def _bumped(text: str, path: tuple, delta) -> str:
    out = json.loads(text)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] + delta if not isinstance(delta, bool) else delta
    return json.dumps(out)


def _ops(plan, tmp_path, keep):
    plan = dataclasses.replace(plan, ops=[d for d in plan.ops if keep(d)])
    return workloads.prepare(plan, str(tmp_path), NS)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b, c = (workloads.generate(name, s) for s in (3, 3, 4))
    assert a == b
    assert a.specs != c.specs
    assert [d.command for d in a.ops] == [d.command for d in c.ops]


def test_codebook_points_keep_their_structure():
    # the seed moves continuous parameters only: in-ball types and key widths stay put
    for name, n_of in (("codebook-build", {"cold-bin": 12, "cold-nh": 10, "cold-ter": 8}),
                       ("codebook-reuse", {"cached-bin": 12, "cached-nh": 9})):
        seen = {}
        for seed in range(4):
            plan = workloads.generate(name, seed)
            for key, n in n_of.items():
                spec = plan.specs[key]
                shape = (ref.in_ball_types(n, spec["source"], spec["alpha"] + 0.05),
                         math.floor(n * spec["r1"]), math.floor(n * spec["r2"]))
                assert seen.setdefault(key, shape) == shape
                assert shape[1:] == (1, 1)


def test_ternary_ladder_is_pinned():
    plan = workloads.generate("asym-ternary", 0)
    ladder = [plan.specs[d.spec]["R1"] for d in plan.ops if d.label.startswith("ladder")]
    assert tuple(ladder) == workloads.LADDER_R1


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def test_closed_forms_match_the_quoted_ternary_values():
    u = [1 / 3] * 3
    assert ref.rd_hamming(u, 0.3) == pytest.approx(0.40367160149046344, abs=1e-12)
    assert ref.rd_hamming(u, 0.1) == pytest.approx(1.0159669071318747, abs=1e-12)


def test_binary_checks_accept_outputs_and_reject_perturbations(tmp_path):
    plan = workloads.generate("asym-binary", 5)
    ops = _ops(plan, tmp_path, lambda d: d.spec == "bin0")
    perturb = {
        "rd": [("two_layer_sum_rate",), ("rd_at_D1",)],
        "exponents": [("jep", "m1"), ("plateau_alpha", "joint"), ("key_rate_thresholds", "r2")],
        "region": [("boundary", "lambda2_out"), ("boundary", "lambda1")],
    }
    for op in ops:
        rc, out = op.run()
        assert op.check(rc, out) == [], op.label
        assert op.check(3, out) != [], op.label
        if op.command == "sweep":
            lines = out.splitlines()
            *head, last = lines[-1].split(",")
            lines[-1] = ",".join(head + [repr(float(last) + 0.01)])
            assert op.check(rc, "\n".join(lines)) != []
            continue
        for path in perturb[op.command]:
            assert op.check(rc, _bumped(out, path, 0.01)) != [], (op.label, path)


def test_reproduce_check():
    assert ref.check_reproduce(0, "target ... PASS\n") == []
    assert ref.check_reproduce(3, "target ... FAIL\n") != []


def test_sum_rate_check_flags_a_shift_of_one_hundredth(tmp_path):
    plan = workloads.generate("asym-ternary", 0)
    (op,) = _ops(plan, tmp_path, lambda d: d.label == "ladder R1=1.2 rd")
    rc, out = op.run()
    assert op.check(rc, out) == []
    up = op.check(rc, _bumped(out, ("two_layer_sum_rate",), 0.01))
    down = op.check(rc, _bumped(out, ("two_layer_sum_rate",), -0.01))
    assert [f.kind for f in up] == [ref.SUM_RATE]
    assert [f.kind for f in down] == ["value"]


def test_region_check_classifies_the_sum_rate_defect():
    a, b, r1, r2 = 0.4, 1.0, 0.1, 0.2
    l1 = a - r1
    want = (l1, l1 + b - a - r2, b - r1 - r2)
    good = {"boundary": {"lambda1": want[0], "lambda2_in": want[1], "lambda2_out": want[2],
                         "matched": True}, "verdict": "outside_outer"}
    assert ref.check_region(want, good, 0.0, 0.0, (a, b, r1, r2)) == []
    high = json.loads(json.dumps(good))
    high["boundary"]["lambda2_in"] += 0.1
    high["boundary"]["lambda2_out"] += 0.1
    assert [f.kind for f in ref.check_region(want, high, 0.0, 0.0, (a, b, r1, r2))] == [ref.SUM_RATE]
    odd = json.loads(json.dumps(good))
    odd["boundary"]["lambda2_in"] += 0.1
    assert all(not f.known for f in ref.check_region(want, odd, 0.0, 0.0, (a, b, r1, r2)))


def test_ternary_m1_check():
    p, alpha, D1, r1 = [0.3, 0.3, 0.4], 0.01, 0.3, 0.05
    spec = srleak.exponents.SystemSpec(
        srleak.Distribution(p), srleak.DistortionMeasure.hamming(3),
        srleak.DistortionMeasure.hamming(3), D1, 0.1, 1.0, 1.0, r1, 0.1, alpha)
    value = srleak.exponents.leakage_exponent_m1(spec)
    assert ref.check_ternary_m1(p, alpha, D1, r1, value) == []
    assert ref.check_ternary_m1(p, alpha, D1, r1, value + 0.01) != []
    assert ref.check_ternary_m1(p, alpha, D1, r1, value - 0.01) != []


def _sim_out(tmp_path, samples: int):
    spec = {"source": [0.7, 0.3], "d1": {"hamming": True}, "d2": {"hamming": True},
            "D1": 0.2, "D2": 0.1, "R1": 1.6, "R2": 1.6, "r1": 0.2, "r2": 0.2, "alpha": 0.1}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    run = workloads._cli_call(NS, ["simulate", "--spec", str(path), "--n", "6", "--delta", "0.05",
                                   "--samples", str(samples), "--seed", "3"])
    rc, out = run()
    return spec, rc, out


def test_simulate_check(tmp_path):
    spec, rc, out = _sim_out(tmp_path, 2000)
    args = (6, spec["source"], spec["alpha"] + 0.05, (1, 1), 2000)
    assert ref.check_simulate(*args, rc, out) == []
    assert ref.check_simulate(*args, 4, out) != []
    assert ref.check_simulate(*args, rc, _bumped(out, ("jep", "exact"), 1e-9)) != []
    assert ref.check_simulate(*args, rc, _bumped(out, ("jep", "monte_carlo"), 0.1)) != []
    for path in (("leakage_bits", "m1_paths_agree"), ("invariants", "covering_verified"),
                 ("jep", "bound_holds")):
        assert ref.check_simulate(*args, rc, _bumped(out, path, False)) != [], path
    assert ref.check_simulate(6, spec["source"], spec["alpha"] + 0.05, (1, 2), 2000, rc, out) != []


def test_adversary_check(tmp_path):
    spec = {"source": [0.7, 0.3], "d1": {"hamming": True}, "d2": {"hamming": True},
            "D1": 0.25, "D2": 0.1, "R1": 1.0, "R2": 1.0, "r1": 0.0, "r2": 0.0, "alpha": 1.6}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(spec))
    run = workloads._cli_call(NS, ["adversary", "--spec", str(path), "--n", "4", "--delta", "0.7",
                                   "--tau", "1.45", "--guesser", "g2", "--target", "identity"])
    rc, out = run()
    assert ref.check_adversary(spec["source"], 4, "identity", rc, out) == []
    assert ref.check_adversary(spec["source"], 4, "identity", rc, _bumped(out, ("meets_bound",), False)) != []
    assert ref.check_adversary(spec["source"], 4, "identity", rc, _bumped(out, ("p_star",), 1e-3)) != []


def test_rescale_maps_the_reference_speed_to_itself():
    ref_s = speed.REFERENCE_S
    assert speed.rescale(2.0, ref_s, ref_s) == pytest.approx(2.0)
    assert speed.rescale(2.0, 2 * ref_s, 2 * ref_s) == pytest.approx(1.0)
    assert speed.rescale(2.0, ref_s, 3 * ref_s) == pytest.approx(1.0)
    assert speed.Calibrator().sample() > 0


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _attributes():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "srleak" or name.startswith("srleak.")}


def test_wrappers_patch_every_binding_and_restore(tmp_path):
    before = _attributes()
    bindings = [("srleak.rdsolver", "rd_function"), ("srleak.exponents", "rd_function"),
                ("srleak.typecodec", "rd_function"), ("srleak.typecodec", "encode"),
                ("srleak.adversary", "encode"), ("srleak.typecodec", "decode"),
                ("srleak.adversary", "decode"), ("srleak.cli", "build_codebook")]
    plan = workloads.generate("asym-ternary", 0)
    (op,) = _ops(plan, tmp_path, lambda d: d.label == "ladder R1=1.2 rd")
    with tracing.Tracer() as tracer:
        for mod, attr in bindings:
            assert getattr(sys.modules[mod], attr) is not before[mod][attr], (mod, attr)
        op.run()
    after = _attributes()
    for name, attrs in before.items():
        for key, value in attrs.items():
            assert after[name][key] is value, (name, key)
    m = tracer.metrics()
    assert m["rdsolver.min_sum_rate.calls"] == 1
    assert m["rdsolver.rd_function.calls"] >= 2
    assert m["rdsolver.min_sum_rate.unconverged"] == 1
    assert m["cli.self_s"] > 0
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))


def test_counters_survive_a_reset():
    spec = srleak.exponents.SystemSpec(
        srleak.Distribution.bernoulli(0.3), srleak.DistortionMeasure.hamming(2),
        srleak.DistortionMeasure.hamming(2), 0.2, 0.1, 1.6, 1.6, 0.0, 0.0, 0.1)
    book = srleak.typecodec.build_codebook(spec, 4, 0.3)
    keys = srleak.typecodec.KeyPair(0, 0, 0, 0)
    with tracing.Tracer() as tracer:
        tracer.reset()
        srleak.typecodec.decode(*srleak.typecodec.encode([0, 1, 0, 0], keys, book), keys, book)
        srleak.adversary.encode([0, 0, 0, 0], keys, book)
    m = tracer.metrics()
    assert (m["typecodec.encode.calls"], m["typecodec.decode.calls"]) == (2, 1)


def test_restore_runs_when_the_traced_code_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _attributes().keys() == before.keys()
    for name, attrs in before.items():
        for key, value in attrs.items():
            assert vars(sys.modules[name])[key] is value


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    self_s, calls, total = t.self_times()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "asym-binary",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""

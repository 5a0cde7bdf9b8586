#!/usr/bin/env python3
"""srleak benchmark: seeded, reference-checked workloads with end-to-end and per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload asym-binary --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

One workload runs in this process as a closed loop: a single caller runs
the workload's operation list (``workloads.py``) pass after pass, one
operation at a time, until another pass would overrun ``--seconds``
(at least one pass).  Every output is checked against ``reference.py``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics (see README.md).  ``--workload all``
runs each workload in its own child process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import speed, tracing, workloads  # noqa: E402
from perfbench.reference import Failure  # noqa: E402

SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
COMMANDS = ("rd", "exponents", "sweep", "region", "reproduce", "simulate", "adversary", "ball_m1")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# traced-run predictions: layer metrics that must read 0, and ones that must not
PREDICTED_ZERO = {
    "asym-binary": ("rdsolver.rd_function.calls", "rdsolver.min_sum_rate.calls",
                    "typecodec.cover_matrix.calls", "exponents.solver_calls_per_eval"),
    "asym-ternary": ("typecodec.cover_matrix.calls", "typecodec.encode.calls"),
    "codebook-build": ("rdsolver.min_sum_rate.calls", "exponents.ball_search.calls",
                       "typecodec.simulate_jep.self_s", "typecodec.load_codebook.self_s"),
    "codebook-reuse": ("rdsolver.min_sum_rate.calls", "exponents.ball_search.calls",
                       "rdsolver.rd_function.calls"),
}
PREDICTED_NONZERO = {
    "asym-binary": ("cli.self_s", "exponents.ball_search.calls"),
    "asym-ternary": ("rdsolver.rd_function.calls", "rdsolver.min_sum_rate.calls",
                     "rdsolver.min_sum_rate.unconverged", "exponents.ball_search.objective_evals",
                     "exponents.solver_calls_per_eval"),
    "codebook-build": ("typecodec.cover_matrix.calls", "typecodec.greedy_cover.selected",
                       "typecodec.leakage_oracle.self_s", "probcore.type_class_members.self_s",
                       "probcore.all_sequences.self_s"),
    "codebook-reuse": ("typecodec.load_codebook.self_s", "typecodec.verify_covering.self_s",
                       "typecodec.simulate_jep.samples_per_s", "typecodec.encode.calls",
                       "typecodec.decode.calls", "adversary.end_to_end_guess_probability.chain_evals",
                       "adversary.end_to_end_lower_bound.self_s",
                       "setup.typecodec.cover_matrix.self_s", "setup.typecodec.save_codebook.self_s"),
}


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def import_seconds() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import srleak.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    raw_s: float            # wall time of the operations
    wall_s: float           # the same, rescaled to the reference speed
    op_s: list[float]       # rescaled time of each operation
    kernel_s: float         # median calibration-kernel time during the pass
    results: list
    layer: dict | None = None


def run_pass(ops, cal, tracer=None) -> Pass:
    """One pass; every operation is timed between two calibration samples."""
    raw, op_s, results = 0.0, [], []
    samples = [cal.sample()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = op.run()
            else:
                with tracer.span("op"):
                    res = op.run()
        except Exception:  # an operation that raises is a failed operation
            res = (None, traceback.format_exc())
        dt = time.perf_counter() - t0
        samples.append(cal.sample())
        raw += dt
        op_s.append(speed.rescale(dt, samples[-2], samples[-1]))
        results.append(res)
    return Pass(raw, sum(op_s), op_s, statistics.median(samples), results)


def run_passes(ops, cal, budget: float, tracer=None) -> list[Pass]:
    """Passes until another one would overrun ``budget`` seconds (at least one)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(ops, cal, tracer)
        if tracer is not None:
            p.layer = rescaled_layer(tracer.metrics(), tracing.PASS_METRICS, p.kernel_s)
        passes.append(p)
        typical = time.perf_counter() - start
        if typical + typical / len(passes) > budget:
            return passes


def rescaled_layer(metrics: dict, units: dict, kernel_s: float) -> dict:
    """Layer times rescaled by one calibration sample, rates by its inverse."""
    factor = speed.REFERENCE_S / kernel_s
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {k: v * scale.get(units[k], 1.0) for k, v in metrics.items()}


def check_passes(ops, passes) -> tuple[int, int, bool, list[str]]:
    """Check every operation of every pass; returns attempted, failed, correct, messages."""
    memo: dict = {}
    attempted = failed = 0
    correct = True
    messages: list[str] = []
    for p in passes:
        for i, (op, (rc, out)) in enumerate(zip(ops, p.results)):
            key = (i, rc, out)
            if key not in memo:
                if rc is None:
                    memo[key] = [Failure("raised", out)]
                else:
                    try:
                        memo[key] = op.check(rc, out)
                    except Exception as exc:  # malformed output
                        memo[key] = [Failure("format", f"{type(exc).__name__}: {exc}")]
                for f in memo[key]:
                    tag = "known defect" if f.known else "FAILED"
                    messages.append(f"{tag}: {op.label}: {f.message}")
            attempted += 1
            if memo[key]:
                failed += 1
                correct &= all(f.known for f in memo[key])
    return attempted, failed, correct, messages


def per_command(ops, passes) -> dict[str, float]:
    out = {}
    for cmd in COMMANDS:
        idx = [i for i, op in enumerate(ops) if op.command == cmd]
        out[f"{cmd}_s"] = statistics.median(sum(p.op_s[i] for i in idx) for p in passes) if idx else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=SCRATCH)
    try:
        import srleak.cli
        import srleak.exponents
        import srleak.typecodec
        srleak_ns = types.SimpleNamespace(cli=srleak.cli, exponents=srleak.exponents,
                                          typecodec=srleak.typecodec)
        tracer = tracing.Tracer() if trace else None
        cal = speed.Calibrator()

        setup_times, setup_layers = [], []
        for rep in range(SETUP_REPEATS):
            before = cal.sample()
            imported = import_seconds()
            t0 = time.perf_counter()
            plan = workloads.generate(name, seed)
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                ops = workloads.prepare(plan, tempfile.mkdtemp(dir=workdir), srleak_ns)
            finally:
                if tracer is not None:
                    tracer.restore()
            raw = imported + time.perf_counter() - t0
            after = cal.sample()
            setup_times.append(speed.rescale(raw, before, after))
            if tracer is not None:
                setup_layers.append(rescaled_layer(tracer.setup_metrics(), tracing.SETUP_METRICS,
                                                   (before + after) / 2))

        if tracer is None:
            passes = run_passes(ops, cal, seconds)
            metrics = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        else:
            run_pass(ops, cal)  # warm-up, so neither half pays first-pass costs
            plain = run_passes(ops, cal, seconds / 2)
            with tracer:
                traced = run_passes(ops, cal, seconds / 2, tracer)
            passes = plain + traced
            metrics = per_command(ops, plain)
            for key in tracing.PASS_METRICS:
                metrics[key] = statistics.median(p.layer[key] for p in traced)
            for key in tracing.SETUP_METRICS:
                metrics[key] = statistics.median(s[key] for s in setup_layers)
            metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                           - statistics.median(p.wall_s for p in plain))
            metrics["raw_wall_s"] = statistics.median(p.raw_s for p in plain)
            metrics["calibration.kernel_s"] = statistics.median(p.kernel_s for p in passes)
            units = {f"{c}_s": "s" for c in COMMANDS}
            units.update(tracing.PASS_METRICS)
            units.update(tracing.SETUP_METRICS)
            units.update({"trace.overhead_s": "s", "raw_wall_s": "s", "calibration.kernel_s": "s"})

        attempted, failed, correct, messages = check_passes(ops, passes)
        notes = [f"workload {name} seed {seed}: {len(passes)} passes of {len(ops)} operations; "
                 f"unscaled pass {statistics.median(p.raw_s for p in passes):.4f} s, "
                 f"calibration kernel {statistics.median(p.kernel_s for p in passes):.5f} s "
                 f"(reference {speed.REFERENCE_S} s)"]
        notes += sorted(set(messages))
        if tracer is not None:
            notes += prediction_notes(name, metrics)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return result, notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass


def prediction_notes(name: str, metrics: dict) -> list[str]:
    notes = []
    for key in PREDICTED_ZERO[name]:
        if metrics[key] != 0:
            notes.append(f"prediction violated: {key} = {metrics[key]!r}, predicted 0")
    for key in PREDICTED_NONZERO[name]:
        if metrics[key] == 0:
            notes.append(f"prediction violated: {key} = 0, predicted nonzero")
    if len(notes) == 0:
        notes.append(f"trace predictions hold ({len(PREDICTED_ZERO[name])} zero, "
                     f"{len(PREDICTED_NONZERO[name])} nonzero)")
    return notes


def print_result(name: str, result: dict, notes: list[str]) -> None:
    for line in notes:
        print(f"# {line}")
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ops={result['failed'] / result['attempted']:.4f}")
    for key, m in result["metrics"].items():
        print(f"#   {key:<52} {m['value']:>16.6f} {m['unit']}")


def run_all(args) -> int:
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"workload {name} exited {proc.returncode}\n")
            return 1
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported, here or in a child
        os.environ[var] = "1"
    if not (SRC / "srleak" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no srleak sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    print(f"# environment: {json.dumps(environment(), sort_keys=True)}")
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

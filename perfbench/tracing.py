"""Span tracing of srleak's layers from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``srleak`` module that binds it (so calls made through any import path are
seen), and ``Tracer.restore`` puts the originals back.  A span is
(name, start, end, parent); spans stay in memory and are reduced to
per-layer metrics by ``Tracer.metrics``.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, function) -> span name; every one is patched wherever it is bound
SPANS = {
    ("srleak.cli", "main"): "cli",
    ("srleak.rdsolver", "rd_function"): "rdsolver.rd_function",
    ("srleak.rdsolver", "min_sum_rate"): "rdsolver.min_sum_rate",
    ("srleak.exponents", "kl_ball_maximize"): "exponents.ball_search",
    ("srleak.exponents", "kl_ball_minimize"): "exponents.ball_search",
    ("srleak.typecodec", "build_codebook"): "typecodec.build_codebook",
    ("srleak.typecodec", "_cover_matrix"): "typecodec.cover_matrix",
    ("srleak.typecodec", "_greedy_cover"): "typecodec.greedy_cover",
    ("srleak.typecodec", "load_codebook"): "typecodec.load_codebook",
    ("srleak.typecodec", "save_codebook"): "typecodec.save_codebook",
    ("srleak.typecodec", "verify_covering"): "typecodec.verify_covering",
    ("srleak.typecodec", "leakage_oracle"): "typecodec.leakage_oracle",
    ("srleak.typecodec", "simulate_jep"): "typecodec.simulate_jep",
    ("srleak.adversary", "end_to_end_guess_probability"): "adversary.end_to_end_guess_probability",
    ("srleak.adversary", "end_to_end_lower_bound"): "adversary.end_to_end_lower_bound",
    ("srleak.probcore", "type_class_members"): "probcore.type_class_members",
    ("srleak.probcore", "all_sequences"): "probcore.all_sequences",
}
# called per sequence, so counted without a span
COUNTERS = {
    ("srleak.typecodec", "encode"): "typecodec.encode.calls",
    ("srleak.typecodec", "decode"): "typecodec.decode.calls",
}
SOLVERS = ("rdsolver.rd_function", "rdsolver.min_sum_rate")
BALL = "exponents.ball_search"

# per-layer metrics of one pass, in output order, with units
PASS_METRICS = {
    "cli.self_s": "s",
    "rdsolver.rd_function.calls": "count",
    "rdsolver.rd_function.self_s": "s",
    "rdsolver.rd_function.iterations": "count",
    "rdsolver.min_sum_rate.calls": "count",
    "rdsolver.min_sum_rate.self_s": "s",
    "rdsolver.min_sum_rate.iterations": "count",
    "rdsolver.min_sum_rate.unconverged": "count",
    "rdsolver.min_sum_rate.gap_max": "bits",
    "exponents.ball_search.calls": "count",
    "exponents.ball_search.self_s": "s",
    "exponents.ball_search.objective_evals": "count",
    "exponents.solver_calls_per_eval": "ratio",
    "typecodec.build_codebook.self_s": "s",
    "typecodec.cover_matrix.calls": "count",
    "typecodec.cover_matrix.self_s": "s",
    "typecodec.cover_matrix.cells": "count",
    "typecodec.greedy_cover.self_s": "s",
    "typecodec.greedy_cover.selected": "count",
    "typecodec.load_codebook.self_s": "s",
    "typecodec.verify_covering.self_s": "s",
    "typecodec.leakage_oracle.self_s": "s",
    "typecodec.simulate_jep.self_s": "s",
    "typecodec.simulate_jep.samples_per_s": "1/s",
    "typecodec.encode.calls": "count",
    "typecodec.decode.calls": "count",
    "adversary.end_to_end_guess_probability.self_s": "s",
    "adversary.end_to_end_guess_probability.chain_evals": "count",
    "adversary.end_to_end_lower_bound.self_s": "s",
    "probcore.type_class_members.self_s": "s",
    "probcore.all_sequences.self_s": "s",
}
# per-layer metrics of one set-up (only the codebook caches do layer work there)
SETUP_METRICS = {
    "setup.typecodec.build_codebook.self_s": "s",
    "setup.typecodec.cover_matrix.self_s": "s",
    "setup.typecodec.greedy_cover.self_s": "s",
    "setup.typecodec.save_codebook.self_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.gap_max = 0.0
        self._stack: list[int] = []
        self._ball_depth = 0

    def span(self, name: str):
        """Context manager for a span the caller opens itself (one operation)."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _note(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name in SOLVERS:
            c[name + ".iterations"] += result.iterations
            if self._ball_depth:
                c["solver_calls_in_ball"] += 1
        if name == "rdsolver.min_sum_rate":
            c[name + ".unconverged"] += result.status != "converged"
            if math.isfinite(result.gap):
                self.gap_max = max(self.gap_max, result.gap)
        elif name == "typecodec.cover_matrix":
            c[name + ".cells"] += result.size
        elif name == "typecodec.greedy_cover":
            c[name + ".selected"] += len(result[0])
        elif name == "typecodec.simulate_jep":
            c["simulate_jep.samples"] += args[1]
        elif name == "adversary.end_to_end_guess_probability":
            spec, n, cb = args[:3]
            c[name + ".chain_evals"] += spec.source.alphabet_size**n * (cb.cap1 * cb.cap2) ** 2

    def _wrap(self, name: str, fn):
        tracer = self
        if name == BALL:
            def ball(p, alpha, objective, *args, **kwargs):
                outermost = tracer._ball_depth == 0
                if outermost:
                    def counted(q, _f=objective):
                        tracer.counts["exponents.ball_search.objective_evals"] += 1
                        return _f(q)
                    objective = counted
                    idx = tracer._open(name)
                tracer._ball_depth += 1
                try:
                    return fn(p, alpha, objective, *args, **kwargs)
                finally:
                    tracer._ball_depth -= 1
                    if outermost:
                        tracer._close(idx)
            return ball

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._note(name, args, result)
            return result
        return traced

    def _count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "srleak" or k.startswith("srleak."))]
        for table, make in ((SPANS, self._wrap), (COUNTERS, self._count)):
            for (home, attr), name in table.items():
                original = getattr(sys.modules[home], attr)
                wrapper = make(name, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: summed self time, call count, summed duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += (end - start) - inner
            calls[name] += 1
            total[name] += end - start
        return self_s, calls, total

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        self_s, calls, total = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for key in PASS_METRICS:
            base, _, field = key.rpartition(".")
            if field == "self_s":
                out[key] = self_s.get(base, 0.0)
            elif field == "calls":
                out[key] = float(calls.get(base, 0) + c.get(key, 0))
            else:
                out[key] = float(c.get(key, 0.0))
        out["rdsolver.min_sum_rate.gap_max"] = self.gap_max
        evals = c.get(BALL + ".objective_evals", 0.0)
        out["exponents.solver_calls_per_eval"] = c.get("solver_calls_in_ball", 0.0) / evals if evals else 0.0
        sim = total.get("typecodec.simulate_jep", 0.0)
        out["typecodec.simulate_jep.samples_per_s"] = c.get("simulate_jep.samples", 0.0) / sim if sim else 0.0
        return out

    def setup_metrics(self) -> dict[str, float]:
        self_s, _, _ = self.self_times()
        return {key: self_s.get(key[len("setup."):-len(".self_s")], 0.0) for key in SETUP_METRICS}


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)

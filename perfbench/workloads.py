"""Seeded workloads: the operation lists the benchmark runs and checks.

``generate(workload, seed)`` is pure: it draws operating points from the
seed and returns a ``Plan`` of operation descriptions and codebook caches.
``prepare(plan, workdir)`` writes the operating-point files, builds the
caches and returns runnable ``Op`` objects whose checks call
``reference``.  Blocklengths, distortion targets and (for the exact codes)
the set of in-ball types and key widths are fixed per workload, so every
seed costs about the same; the seed moves the continuous parameters within
that fixed structure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from . import reference as ref

HAMMING = {"hamming": True}
NON_HAMMING = {"matrix": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]}  # binary source, erasure symbol
LADDER_R1 = (0.5, 0.7, 0.9, 1.0, 1.1, 1.2)
SWEEP_RANGE = "0:0.3:200"
SIM_SAMPLES = 100_000
ADV_ARGS = ("--n", "9", "--delta", "0.7", "--tau", "1.11")

WORKLOADS = ("asym-binary", "asym-ternary", "codebook-build", "codebook-reuse")


@dataclass(frozen=True)
class OpDesc:
    command: str            # per-command metric group
    label: str
    args: tuple             # CLI arguments after the subcommand's --spec
    spec: str | None        # operating-point key in Plan.specs
    ref: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CacheDesc:
    spec: str
    n: int
    delta: float
    file: str


@dataclass
class Plan:
    workload: str
    seed: int
    specs: dict[str, dict]
    ops: list[OpDesc]
    caches: list[CacheDesc] = field(default_factory=list)


@dataclass
class Op:
    command: str
    label: str
    run: Callable[[], tuple[int, object]]
    check: Callable[[int, object], list]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _point(source, d1, D1, D2, R1, R2, r1, r2, alpha) -> dict:
    return {"source": list(source), "d1": d1, "d2": HAMMING, "D1": D1, "D2": D2,
            "R1": R1, "R2": R2, "r1": r1, "r2": r2, "alpha": alpha}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _asym_binary(rng: random.Random, plan: Plan) -> None:
    for i in range(2):
        # the plateau scan in `exponents` stops near D(1/2 || p), so p sets its cost
        p = _u(rng, 0.25, 0.35)
        key = f"bin{i}"
        plan.specs[key] = _point([1.0 - p, p], HAMMING, 0.2, 0.1, 1.0, 1.0,
                                 _u(rng, 0.0, 0.15), _u(rng, 0.0, 0.15), _u(rng, 0.02, 0.3))
        L1, L2 = _u(rng, 0.0, 0.4), _u(rng, 0.0, 0.6)
        plan.ops += [
            OpDesc("rd", f"{key} rd", ("rd",), key),
            OpDesc("exponents", f"{key} exponents", ("exponents",), key),
            OpDesc("sweep", f"{key} sweep", ("sweep", "--alpha-range", SWEEP_RANGE), key),
        ]
        for crit in ("jep", "expected"):
            plan.ops.append(OpDesc("region", f"{key} region {crit}",
                                   ("region", "--L1", str(L1), "--L2", str(L2), "--criterion", crit),
                                   key, {"L1": L1, "L2": L2}))
    plan.ops.append(OpDesc("reproduce", "reproduce all", ("reproduce", "--target", "all"), None))


def _ternary_source(rng: random.Random) -> list[float]:
    while True:
        a, b = _u(rng, 0.29, 0.38), _u(rng, 0.29, 0.38)
        c = round(1.0 - a - b, 6)
        if 0.29 <= c <= 0.38:
            return [a, b, c]


def _asym_ternary(rng: random.Random, plan: Plan) -> None:
    third = 1.0 / 3.0
    for R1 in LADDER_R1:
        key = f"ladder{R1:g}"
        plan.specs[key] = _point([third] * 3, HAMMING, 0.3, 0.1, R1, 1.0, 0.1, 0.2, 0.1)
        plan.ops.append(OpDesc("rd", f"ladder R1={R1:g} rd", ("rd",), key))
    src = _ternary_source(rng)
    # R1 inside the refinement range (R(P, D1), R(P, D2)), where the layer-1 cap binds
    lo, hi = ref.rd_hamming(src, 0.3), ref.rd_hamming(src, 0.1)
    key = "ter0"
    plan.specs[key] = _point(src, HAMMING, 0.3, 0.1, round(lo + (hi - lo) * rng.uniform(0.4, 0.9), 6), 1.0,
                             _u(rng, 0.0, 0.2), _u(rng, 0.0, 0.3), _u(rng, 0.025, 0.035))
    L1, L2 = _u(rng, 0.0, 0.4), _u(rng, 0.0, 1.0)
    plan.ops += [
        OpDesc("rd", f"{key} rd", ("rd",), key),
        OpDesc("region", f"{key} region expected",
               ("region", "--L1", str(L1), "--L2", str(L2), "--criterion", "expected"),
               key, {"L1": L1, "L2": L2}),
        OpDesc("ball_m1", f"{key} leakage_exponent_m1", (), key),
    ]


def _pinned(rng: random.Random, n: int, make_source, p_box, alpha_box, delta: float,
            centre: tuple[float, float]) -> tuple[list[float], float]:
    """Draw (source, alpha) whose widened ball holds the same types as at ``centre``."""
    want = ref.in_ball_types(n, make_source(centre[0]), centre[1] + delta)
    while True:
        src, alpha = make_source(_u(rng, *p_box)), _u(rng, *alpha_box)
        thr = alpha + delta
        if ref.in_ball_types(n, src, thr) == want and ref.ball_margin(n, src, thr) > 1e-6:
            return src, alpha


def _bernoulli(p: float) -> list[float]:
    return [1.0 - p, p]


def _rate_for_one_bit(rng: random.Random, n: int) -> float:
    """A key rate r with floor(n * r) == 1."""
    return round(rng.uniform(1.05, 1.95) / n, 6)


def _codebook_points(rng: random.Random, plan: Plan, sizes: tuple[int, int, int],
                     prefix: str) -> list[tuple[str, int, float]]:
    """Binary Hamming, binary non-Hamming and ternary Hamming points."""
    out = []
    n_bin, n_nh, n_ter = sizes
    delta = 0.05
    if n_bin:
        src, alpha = _pinned(rng, n_bin, _bernoulli, (0.3, 0.4), (0.05, 0.15), delta, (0.35, 0.1))
        plan.specs[f"{prefix}bin"] = _point(src, HAMMING, 0.2, 0.1, 1.6, 1.6,
                                            _rate_for_one_bit(rng, n_bin),
                                            _rate_for_one_bit(rng, n_bin), alpha)
        out.append((f"{prefix}bin", n_bin, delta))
    if n_nh:
        src, alpha = _pinned(rng, n_nh, _bernoulli, (0.3, 0.4), (0.05, 0.15), delta, (0.35, 0.1))
        plan.specs[f"{prefix}nh"] = _point(src, NON_HAMMING, 0.3, 0.1, 1.6, 1.6,
                                           _rate_for_one_bit(rng, n_nh),
                                           _rate_for_one_bit(rng, n_nh), alpha)
        out.append((f"{prefix}nh", n_nh, delta))
    if n_ter:
        def ternary(a: float) -> list[float]:
            b = round((1.0 - a) * 0.55, 6)
            return [a, b, round(1.0 - a - b, 6)]
        src, alpha = _pinned(rng, n_ter, ternary, (0.38, 0.42), (0.05, 0.15), delta, (0.4, 0.1))
        plan.specs[f"{prefix}ter"] = _point(src, HAMMING, 0.3, 0.1, 1.6, 1.6,
                                            _rate_for_one_bit(rng, n_ter),
                                            _rate_for_one_bit(rng, n_ter), alpha)
        out.append((f"{prefix}ter", n_ter, delta))
    return out


def _sim_ref(spec: dict, n: int, delta: float, samples: int) -> dict:
    return {"n": n, "threshold": spec["alpha"] + delta, "samples": samples,
            "bits": (math.floor(n * spec["r1"] + 1e-9), math.floor(n * spec["r2"] + 1e-9))}


def _codebook_build(rng: random.Random, plan: Plan) -> None:
    for key, n, delta in _codebook_points(rng, plan, (12, 10, 8), "cold-"):
        plan.ops.append(OpDesc("simulate", f"{key} simulate n={n} (build)",
                               ("simulate", "--n", str(n), "--delta", str(delta), "--samples", "0"),
                               key, _sim_ref(plan.specs[key], n, delta, 0)))


def _codebook_reuse(rng: random.Random, plan: Plan) -> None:
    mc_seed = str(rng.randrange(1 << 30))
    for key, n, delta in _codebook_points(rng, plan, (12, 9, 0), "cached-"):
        cache = f"{key}.srcb"
        plan.caches.append(CacheDesc(key, n, delta, cache))
        plan.ops.append(OpDesc("simulate", f"{key} simulate n={n} (cached)",
                               ("simulate", "--n", str(n), "--delta", str(delta),
                                "--samples", str(SIM_SAMPLES), "--seed", mc_seed, "--cache", cache),
                               key, _sim_ref(plan.specs[key], n, delta, SIM_SAMPLES)))
    p = _u(rng, 0.3, 0.4)
    plan.specs["attack"] = _point(_bernoulli(p), HAMMING, 0.25, 0.1, 1.0, 1.0, 0.0, 0.0, 1.3)
    for guesser, target in (("g2", "identity"), ("g1", "first")):
        plan.ops.append(OpDesc("adversary", f"attack adversary {guesser}/{target}",
                               ("adversary", *ADV_ARGS, "--guesser", guesser, "--target", target),
                               "attack", {"target": target, "n": 9}))


_GENERATORS = {
    "asym-binary": _asym_binary,
    "asym-ternary": _asym_ternary,
    "codebook-build": _codebook_build,
    "codebook-reuse": _codebook_reuse,
}


def generate(workload: str, seed: int) -> Plan:
    plan = Plan(workload, seed, {}, [])
    _GENERATORS[workload](random.Random(f"{workload}/{seed}"), plan)
    return plan


# ---------------------------------------------------------------------------
# materialisation
# ---------------------------------------------------------------------------


def _check(plan: Plan, desc: OpDesc) -> Callable[[int, object], list]:
    spec = plan.specs.get(desc.spec)
    r = desc.ref
    cmd = desc.command

    def parsed(fn, parse=json.loads):
        def check(rc: int, out) -> list:
            if rc != 0:
                return [ref.Failure("exit", f"{desc.label} exited {rc}")]
            return fn(parse(out))
        return check

    if cmd == "reproduce":
        return ref.check_reproduce
    if cmd in ("simulate", "adversary"):
        src = spec["source"]
        if cmd == "simulate":
            return lambda rc, out: ref.check_simulate(r["n"], src, r["threshold"], r["bits"],
                                                      r["samples"], rc, out)
        return lambda rc, out: ref.check_adversary(src, r["n"], r["target"], rc, out)

    src = spec["source"]
    if len(src) == 2:
        pt = ref.BinaryPoint(src[1], spec["D1"], spec["D2"], spec["r1"], spec["r2"], spec["alpha"])
        if cmd == "rd":
            return parsed(lambda out: ref.check_binary_rd(pt, out))
        if cmd == "exponents":
            return parsed(lambda out: ref.check_binary_exponents(pt, out))
        if cmd == "sweep":
            return parsed(lambda out: ref.check_binary_sweep(pt, out), parse=str)
        crit = desc.args[-1]
        want = pt.jep_floors() if crit == "jep" else pt.floors(pt.p)
        return parsed(lambda out: ref.check_region(want, out, r["L1"], r["L2"]))

    D1, D2, r1, r2 = spec["D1"], spec["D2"], spec["r1"], spec["r2"]
    a, b = ref.rd_hamming(src, D1), ref.rd_hamming(src, D2)
    if cmd == "rd":
        return parsed(lambda out: ref.check_ternary_rd(src, D1, D2, spec["R1"], out))
    if cmd == "region":
        l1 = ref.pos(a - r1)
        want = (l1, l1 + ref.pos(b - a - r2), ref.pos(b - r1 - r2))
        return parsed(lambda out: ref.check_region(want, out, r["L1"], r["L2"], (a, b, r1, r2)))
    return lambda rc, value: ref.check_ternary_m1(src, spec["alpha"], D1, r1, value)


def prepare(plan: Plan, workdir: str, srleak) -> list[Op]:
    """Write the plan's files into ``workdir``, build its caches, return its ops.

    ``srleak`` is a namespace with the package's ``cli``, ``exponents`` and
    ``typecodec`` modules; calls go through module attributes so that a
    tracer's patches are seen.
    """
    paths = {}
    for key, spec in plan.specs.items():
        paths[key] = os.path.join(workdir, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(spec, fh)
    for c in plan.caches:
        system = srleak.cli.load_system_spec(paths[c.spec])
        book = srleak.typecodec.build_codebook(system, c.n, c.delta)
        srleak.typecodec.save_codebook(book, os.path.join(workdir, c.file))

    ops = []
    for desc in plan.ops:
        if desc.command == "ball_m1":
            system = srleak.cli.load_system_spec(paths[desc.spec])
            run = _library_call(srleak, system)
        else:
            argv = list(desc.args[:1])
            if desc.spec is not None:
                argv += ["--spec", paths[desc.spec]]
            argv += [os.path.join(workdir, a) if a.endswith(".srcb") else a for a in desc.args[1:]]
            run = _cli_call(srleak, argv)
        ops.append(Op(desc.command, desc.label, run, _check(plan, desc)))
    return ops


def _cli_call(srleak, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = srleak.cli.main(argv)
        return rc, out.getvalue()
    return run


def _library_call(srleak, system) -> Callable[[], tuple[int, float]]:
    def run() -> tuple[int, float]:
        return 0, srleak.exponents.leakage_exponent_m1(system)
    return run

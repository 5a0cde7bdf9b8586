"""Command-line front end.

Subcommands:

* ``rd``: rate-distortion quantities of the configured operating point.
* ``exponents``: leakage exponents, plateau thresholds, matching conditions.
* ``sweep``: CSV of the exponent curves over a range of reliability exponents.
* ``region``: classify a leakage pair against the inner/outer region bounds.
* ``simulate``: build (or load) a finite-blocklength codebook and report the
  exact error probability and both leakage computations.
* ``adversary``: run the guessing chain on a built code and compare it with
  its converse bound.
* ``reproduce``: pinned numerical checks with pass/fail verdicts.

Outputs are deterministic, ``simulate``'s for a fixed ``--seed``: floats are
printed with 17 significant digits, JSON keys are sorted, and wall-clock
timings go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .adversary import (
    CONSTANT_TARGET,
    FIRST_SYMBOL_TARGET,
    IDENTITY_TARGET,
    GuessScheme,
    end_to_end_guess_probability,
    end_to_end_lower_bound,
)
from .errors import CapExceededError, SrleakError
from .exponents import (
    RateModel,
    RegionPoint,
    SystemSpec,
    binary_plateau_alpha,
    criterion_radius,
    jep_floors,
    key_rate_thresholds,
    keys_within_thresholds,
    leakage_floors,
    leakage_plateau_thresholds,
    partial_secrecy_holds,
    region_boundary,
    region_check,
)
from .probcore import Distribution, DistortionMeasure, binary_entropy
from .typecodec import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SEQ_CAP,
    build_codebook,
    codebook_mismatch,
    default_delta,
    jep_exact,
    jep_exponent_threshold,
    jep_type_count_bound,
    leakage_report,
    load_codebook,
    sample_keys,
    save_codebook,
    simulate_jep,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_CHECK = 3
EXIT_CAP = 4

_TARGETS = {
    "identity": IDENTITY_TARGET,
    "first": FIRST_SYMBOL_TARGET,
    "constant": CONSTANT_TARGET,
}


def env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"environment cap {name} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"environment cap {name} must be nonnegative, got {raw!r}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def load_system_spec(path: str) -> SystemSpec:
    """Parse a JSON operating-point file into a SystemSpec.

    Distortion measures are either explicit matrices, ``{"matrix": [[...]]}``,
    or the shorthand ``{"hamming": true}`` (square, sized by the source).
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("operating-point file must hold a JSON object")

    def number(name: str) -> float:
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"operating-point field {name!r} must be a number, got {value!r}")
        return float(value)

    try:
        source = Distribution(raw["source"])

        def measure(entry) -> DistortionMeasure:
            if isinstance(entry, dict) and entry.get("hamming"):
                return DistortionMeasure.hamming(source.alphabet_size, entry.get("cols"))
            if isinstance(entry, dict):
                return DistortionMeasure(entry["matrix"])
            return DistortionMeasure(entry)

        return SystemSpec(
            source=source,
            d1=measure(raw["d1"]),
            d2=measure(raw["d2"]),
            **{name: number(name) for name in ("D1", "D2", "R1", "R2", "r1", "r2", "alpha")},
        )
    except KeyError as exc:
        raise ValueError(f"operating-point file is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed operating-point file: {exc}") from exc


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> np.ndarray:
    try:
        a, b, steps = text.split(":")
        if int(steps) < 1 or not (math.isfinite(float(a)) and math.isfinite(float(b))):
            raise ValueError("no points")
        return np.linspace(float(a), float(b), int(steps))
    except ValueError as exc:
        raise ValueError(f"range must look like start:stop:steps, got {text!r}") from exc


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rd(args) -> int:
    spec = load_system_spec(args.spec)
    model = RateModel(spec)
    sum_rate = model.sum_rate(spec.source)
    out = {
        "rd_at_D1": model.rd(spec.source, 1),
        "rd_at_D2": model.rd(spec.source, 2),
        # null when R1 is below R(P, D1)
        "two_layer_sum_rate": sum_rate if math.isfinite(sum_rate) else None,
    }
    _write(args.out, _json_dump(out))
    return EXIT_OK


def cmd_exponents(args) -> int:
    spec = load_system_spec(args.spec)
    model = RateModel(spec)
    # null joint plateau when R1 fails the layer-1 check at the cap radius (the whole simplex)
    a1, a2 = leakage_plateau_thresholds(model)
    criteria = ("jep", "expected")
    thresholds = {c: key_rate_thresholds(model, criterion_radius(spec, c)) for c in criteria}
    names = ("m1", "joint_inner", "joint_outer")
    out = {
        **{c: dict(zip(names, leakage_floors(model, c))) for c in criteria},
        "plateau_alpha": {"m1": a1, "joint": a2},
        "partial_secrecy": {c: keys_within_thresholds(spec, t) for c, t in thresholds.items()},
        "key_rate_thresholds": dict(zip(("r1", "r2"), thresholds["jep"])),
    }
    _write(args.out, _json_dump(out))
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_system_spec(args.spec)
    alphas = _parse_range(args.alpha_range)
    lines = [
        "# leakage-exponent sweep over the reliability exponent",
        "# column alpha: reliability exponent of the error-probability constraint",
        "# column lambda1: normalized maximal-leakage floor of the first message",
        "# column lambda2: inner-bound floor for both messages together",
        "# column lambda2_out: outer-bound floor for both messages together",
        "alpha,lambda1,lambda2,lambda2_out",
    ]
    model = RateModel(spec)
    for a in alphas.tolist():
        lines.append(",".join(_fmt(v) for v in (a, *jep_floors(model, a))))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_region(args) -> int:
    spec = load_system_spec(args.spec)
    point = RegionPoint(args.L1, args.L2)
    b = region_boundary(RateModel(spec), args.criterion)
    out = {
        "verdict": region_check(b, point),
        "boundary": {
            "lambda1": b.lambda1,
            "lambda2_in": b.lambda2_in,
            "lambda2_out": b.lambda2_out,
            "matched": b.matched,
        },
    }
    _write(args.out, _json_dump(out))
    return EXIT_OK


def _require_cache_matches(cb, spec: SystemSpec, n: int, delta: float | None, path: str) -> None:
    """Refuse a cached codebook built for another operating point, n or delta."""
    if delta is None:
        delta = default_delta(cb.model)
    mismatch = codebook_mismatch(cb, spec, n)
    if mismatch is None and cb.delta != delta:
        mismatch = f"delta = {cb.delta!r}, not {delta!r}"
    if mismatch is not None:
        raise ValueError(f"codebook cache {path} was built for {mismatch}")


def cmd_simulate(args) -> int:
    spec = load_system_spec(args.spec)
    max_sequences = env_cap("SRLEAK_MAX_SEQUENCES", DEFAULT_SEQ_CAP)
    max_enum = env_cap("SRLEAK_MAX_ENUM", DEFAULT_ENUM_CAP)
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    if args.cache and os.path.exists(args.cache):
        cb = load_codebook(args.cache)
        _require_cache_matches(cb, spec, args.n, args.delta, args.cache)
    else:
        cb = build_codebook(spec, args.n, args.delta, max_sequences=max_sequences)
        if args.cache:
            save_codebook(cb, args.cache)
    build_seconds = time.perf_counter() - t0

    jep = jep_exact(cb)
    bound = jep_type_count_bound(cb.n, spec.source.alphabet_size, spec.alpha, cb.delta)
    rep1 = leakage_report(cb, "M1", max_enum=max_enum)
    rep12 = leakage_report(cb, "M1M2", max_enum=max_enum)
    mc = simulate_jep(cb, args.samples, rng) if args.samples else None
    keys = sample_keys(cb, rng)
    out = {
        "n": cb.n,
        "delta": cb.delta,
        "key_bits": [cb.bits1, cb.bits2],
        "codebook": {
            "in_ball_types": cb.type_ids.size,
            "total_types": cb.total_types,
            "layer1_codewords": cb.total_y_codewords(),
            "layer2_codewords": cb.total_z_codewords(),
            "layer1_messages": cb.layer1_message_count(),
            "layer2_messages": cb.layer2_message_count(),
        },
        "jep": {
            "exact": jep,
            "type_count_bound": bound,
            "bound_holds": jep <= bound + 1e-15,
            "exponent_threshold_n": jep_exponent_threshold(
                spec.source.alphabet_size, cb.delta
            ),
            "monte_carlo": mc,
        },
        "leakage_bits": {
            "m1_closed_form": rep1.closed_form_bits,
            "m1_oracle": rep1.oracle_bits,
            "m1_paths_agree": rep1.agree,
            "joint_closed_form": rep12.closed_form_bits,
            "joint_oracle": rep12.oracle_bits,
            "joint_paths_agree": rep12.agree,
        },
        "invariants": {
            "covering_verified": True,  # a CoverCodebook checks it when it is made
            "oracle_enabled": rep1.oracle_enabled and rep12.oracle_enabled,
        },
        "sample_key": [keys.k1, keys.k2],
    }
    sys.stderr.write(f"codebook build: {build_seconds:.3f}s\n")
    _write(args.out, _json_dump(out))
    return EXIT_OK


def cmd_adversary(args) -> int:
    spec = load_system_spec(args.spec)
    max_sequences = env_cap("SRLEAK_MAX_SEQUENCES", DEFAULT_SEQ_CAP)
    max_enum = env_cap("SRLEAK_MAX_ENUM", DEFAULT_ENUM_CAP)
    cb = build_codebook(spec, args.n, args.delta, max_sequences=max_sequences)
    scheme = GuessScheme(args.guesser, _TARGETS[args.target])
    res = end_to_end_guess_probability(spec, args.n, cb, scheme, max_enum=max_enum)
    bound = end_to_end_lower_bound(spec, args.n, cb, args.tau, res.p_star)
    out = {
        "guesser": scheme.guesser,
        "target": args.target,
        "probability": res.probability,
        "p_star": res.p_star,
        "gain_bits": math.log2(res.probability / res.p_star) if res.probability > 0 else None,
        "chain_bound": {
            "value": bound.value,
            "valid": bound.valid,
            "conditions": bound.conditions,
        },
        "meets_bound": (res.probability >= bound.value - 1e-15) if bound.valid else None,
    }
    _write(args.out, _json_dump(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# pinned reproduction checks
# ---------------------------------------------------------------------------


def _hamming_spec(p, D1, D2, R1, R2, r1, r2, alpha) -> SystemSpec:
    h = DistortionMeasure.hamming(2)
    return SystemSpec(Distribution.bernoulli(p), h, h, D1, D2, R1, R2, r1, r2, alpha)


def _reproduce_keyrates(model: RateModel) -> list[tuple[str, float, float, float]]:
    t1, t2 = key_rate_thresholds(model, model.spec.alpha)
    return [
        ("key-rate threshold r1", 0.162, t1, 1e-3),
        ("key-rate threshold r2", 0.112, t2, 1e-3),
    ]


def _reproduce_plateau(model: RateModel) -> list[tuple[str, float, float, float]]:
    a1, a2 = leakage_plateau_thresholds(model)
    closed = binary_plateau_alpha(0.3)
    return [
        ("plateau onset, first layer", closed, a1, 1e-6),
        ("plateau onset, both layers", closed, a2, 1e-6),
    ]


def _reproduce_sweep(model: RateModel) -> list[tuple[str, float, float, float]]:
    alphas = np.linspace(0.0, 0.3, 200)
    v1, v2 = [], []
    for a in alphas.tolist():
        v1.append(model.ball_max(model.m1, a))
        model.require_layer1_rate(a)
        v2.append(model.ball_max(model.joint, a))
    mono1 = min(y - x for x, y in zip(v1, v1[1:]))
    mono2 = min(y - x for x, y in zip(v2, v2[1:]))
    return [
        ("curve 1 monotone (min step)", 0.0, min(mono1, 0.0), 1e-9),
        ("curve 2 monotone (min step)", 0.0, min(mono2, 0.0), 1e-9),
        ("plateau value, first layer", 1.0 - binary_entropy(0.2) - 0.06, v1[-1], 1e-6),
        ("plateau value, both layers", 1.0 - binary_entropy(0.1) - 0.16, v2[-1], 1e-6),
    ]


def _reproduce_match(model: RateModel) -> list[tuple[str, float, float, float]]:
    holds = partial_secrecy_holds(model, model.spec.alpha)
    _, inner, outer = jep_floors(model, model.spec.alpha)
    return [
        ("matching conditions hold", 1.0, 1.0 if holds else 0.0, 0.0),
        ("inner equals outer", 0.0, abs(inner - outer), 1e-6),
    ]


# the two pinned operating points, as _hamming_spec arguments; each target
# checks the one model of its point
_KEYRATE_POINT = (0.4, 0.2, 0.15, 1.0, 1.0, 0.1, 0.1, 0.03)
_CURVE_POINT = (0.3, 0.2, 0.1, 1.0, 1.0, 0.06, 0.1, 0.2)
_REPRODUCE = {
    "keyrates": (_KEYRATE_POINT, _reproduce_keyrates),
    "plateau": (_CURVE_POINT, _reproduce_plateau),
    "sweep": (_CURVE_POINT, _reproduce_sweep),
    "match": (_KEYRATE_POINT, _reproduce_match),
}


def cmd_reproduce(args) -> int:
    targets = list(_REPRODUCE) if args.target == "all" else [args.target]
    lines = []
    ok = True
    header = f"{'target':<10} {'quantity':<32} {'expected':>22} {'computed':>22} {'tol':>9} verdict"
    lines.append(header)
    lines.append("-" * len(header))
    models: dict[tuple, RateModel] = {}
    for t in targets:
        point, checks = _REPRODUCE[t]
        if point not in models:
            models[point] = RateModel(_hamming_spec(*point))
        for name, expected, computed, tol in checks(models[point]):
            good = abs(computed - expected) <= tol
            ok &= good
            lines.append(
                f"{t:<10} {name:<32} {_fmt(expected):>22} {_fmt(computed):>22} "
                f"{tol:>9.0e} {'PASS' if good else 'FAIL'}"
            )
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache  # one per process: each parser is ~75 KB of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srleak",
        description="Leakage regions and exact simulation of two-layer encrypted source coding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="operating-point JSON file")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    p = sub.add_parser("rd", help="rate-distortion quantities at the operating point")
    common(p)
    p.set_defaults(func=cmd_rd)

    p = sub.add_parser("exponents", help="leakage exponents and matching conditions")
    common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("sweep", help="CSV sweep of exponent curves over alpha")
    common(p)
    p.add_argument("--alpha-range", default="0:0.3:200", help="start:stop:steps")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("region", help="classify a leakage pair")
    common(p)
    p.add_argument("--L1", type=float, required=True)
    p.add_argument("--L2", type=float, required=True)
    p.add_argument("--criterion", choices=("jep", "expected"), default="jep")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="build a finite-blocklength code and verify it")
    common(p)
    p.add_argument("--n", type=int, required=True, help="blocklength")
    p.add_argument("--delta", type=float, default=None, help="ball widening (default: rate margin / 2)")
    p.add_argument("--samples", type=int, default=0, help="Monte-Carlo error-rate samples")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Monte-Carlo samples and the sample key")
    p.add_argument("--cache", default=None, help="codebook cache file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("adversary", help="run the guessing chain against a built code")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--guesser", choices=("g1", "g2"), default="g2")
    p.add_argument("--target", choices=tuple(_TARGETS), default="identity")
    p.add_argument("--tau", type=float, default=0.5, help="ball shrink used by the chain bound")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("reproduce", help="pinned numerical checks")
    common(p, needs_spec=False)
    p.add_argument(
        "--target", choices=("keyrates", "plateau", "sweep", "match", "all"), default="all"
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, MemoryError) as exc:
        # an array too large for the machine (an oversized input) is a cap as well
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_CAP
    except (SrleakError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())

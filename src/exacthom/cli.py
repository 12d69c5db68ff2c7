"""Command-line front door: load algebra descriptions, run homology
computations and certification suites, emit machine-readable reports.

Reports are canonical JSON (sorted keys, two-space indent, trailing
newline) so that repeated runs with the same configuration are
byte-identical; per-slice wall-clock times are only included when
explicitly requested, since they would break that guarantee.
"""

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .algebras import Coefficients, PRESETS, load_algebra, preset
from .chains import (CertificationError, NotAComplexError,
                     long_exact_sequence_nodes)
from .fields import QQ, field_from_name
from .gamma import GammaComplex
from .hochschild import HochschildComplex, harrison_homology
from .symhom import ComparisonData, SymmetricComplex, hs0_consistency
from .verify import SUITES, BoundsError, run_suite

THEORIES = ("hochschild", "harrison", "gamma", "symmetric", "comparison")
# theories whose weight slices are computed independently (and in parallel
# with --jobs)
WEIGHTWISE = ("hochschild", "gamma", "symmetric")

DEFAULT_BASIS_CEILING = 200_000


class ConfigError(Exception):
    pass


def _field(args):
    if not args.field:
        return None
    try:
        return field_from_name(args.field)
    except ValueError as exc:
        raise ConfigError(f"--field {args.field}: {exc}") from None


def _load_algebra(path, field):
    try:
        return load_algebra(path, field_override=field)
    except KeyError as exc:
        raise ConfigError(
            f"algebra file {path}: unknown or missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"algebra file {path}: {exc}") from None


def _resolve_algebra(args):
    field = _field(args)
    if args.algebra_file:
        alg = _load_algebra(args.algebra_file, field)
        problems = alg.validate()
        if problems:
            raise ConfigError("algebra file failed validation: "
                              + "; ".join(problems))
        return alg
    return preset(args.preset, field or QQ)


def _require_non_negative(args, *names):
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be "
                              f"non-negative, got {value}")


def _config_echo(args, alg):
    return {
        "algebra": alg.name,
        "algebra_file": args.algebra_file,
        "field": alg.field.name,
        "theory": getattr(args, "theory", None),
        "coefficients": getattr(args, "coefficients", None),
        "max_degree": getattr(args, "max_degree", None),
        "max_weight": getattr(args, "max_weight", None),
        "jobs": getattr(args, "jobs", 1),
    }


def _guard_dim(dim, ceiling, what):
    if dim > ceiling:
        raise ConfigError(
            f"{what} has {dim} basis elements, over the ceiling {ceiling}; "
            "lower --max-degree/--max-weight or raise --max-basis")


def _timer(timings):
    def timed(label, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[label] = round(time.perf_counter() - t0, 6)
        return out
    return timed


def _cert(name, failure=None):
    """A certification entry; failure, when given, is the failing witness."""
    if failure is None:
        return {"name": name, "status": "pass"}
    return {"name": name, "status": "fail", "witness": failure}


def _weight_rows(alg, args, weights, timings):
    """Dimension-table rows of a theory whose weight slices are independent
    (hochschild, gamma, symmetric), for the given weights only, and the
    text of each failed d o d = 0 check (that weight gets no rows)."""
    theory = args.theory
    N = args.max_degree
    ceiling = args.max_basis
    co = Coefficients(alg, args.coefficients)
    timed = _timer(timings)
    if theory == "gamma":
        complexes = [(v, GammaComplex(alg, co, v)) for v in ("I", "A")]
    elif theory == "hochschild":
        complexes = [(None, HochschildComplex(alg, co))]
    else:
        complexes = [(None, SymmetricComplex(alg, "full"))]
    rows = []
    broken = []
    for variant, cx in complexes:
        tag = {"variant": variant} if variant else {}
        name = f"{theory}({variant})" if variant else theory
        prefix = f"{variant} " if variant else ""
        for w in weights:
            _guard_dim(max(cx.dim(n, w) for n in range(N + 2)), ceiling,
                       f"{name} slice w={w}")
            try:
                dims = timed(f"{prefix}w={w}",
                             lambda: cx.slice(w, N + 1).homology().dims())
            except NotAComplexError as exc:
                broken.append(f"{name} w={w}: {exc}")
                continue
            rows += [{"theory": theory, **tag, "n": n, "w": w,
                      "dim": dims[n]} for n in range(N + 1)]
    return rows, broken


def _weight_certs(alg, args, broken):
    """Certifications of a theory whose tables _weight_rows builds, given
    the failed d o d = 0 checks it reported."""
    certs = []
    if args.theory in ("hochschild", "gamma") or broken:
        certs.append(_cert("boundary squares to zero",
                           "; ".join(sorted(broken)) or None))
    if args.theory == "gamma":
        certs.append(_cert("full-algebra variant truncated to strings with "
                           "initial domain <= weight"))
    if args.theory == "symmetric":
        bad = [(w, got, exp)
               for w, got, exp in hs0_consistency(alg, args.max_weight)
               if got != exp]
        certs.append(_cert("degree-zero law vs algebra dimensions",
                           str(bad) if bad else None))
    return certs


def _compute_rows(alg, args, timings):
    """Dimension-table rows plus inline certifications of the theories
    computed over all weights at once (harrison, comparison)."""
    theory = args.theory
    N, W = args.max_degree, args.max_weight
    co = Coefficients(alg, args.coefficients)
    timed = _timer(timings)
    rows = []
    certs = []
    if theory == "harrison":
        p = alg.field.characteristic
        if p and p <= N + 1:
            raise ConfigError(
                f"harrison homology through degree {N} uses slices through "
                f"degree {N + 1} and needs a field characteristic above "
                f"{N + 1}; got {p}")
        name = "quotient and eulerian pipelines agree"
        try:
            table = timed("table",
                          lambda: harrison_homology(alg, co, N, W))
        except CertificationError as exc:
            certs.append(_cert(name, str(exc)))
        else:
            rows += [{"theory": theory, "n": n, "w": w,
                      "dim": table[(n, w)]} for (n, w) in sorted(table)]
            certs.append(_cert(name))
    elif theory == "comparison":
        for w in range(W + 1):
            try:
                wrows, wcerts = _comparison_weight(alg, args, w, timed)
            except CertificationError as exc:
                certs.append(_cert(f"comparison slices certified (w={w})",
                                   str(exc)))
                continue
            rows += wrows
            certs += wcerts
    else:
        raise ConfigError(f"unknown theory {theory!r}")
    return rows, certs


def _comparison_weight(alg, args, w, timed):
    """Rows and certifications of the comparison at one weight.  A failed
    d o d = 0 check or a kernel span not closed under the boundary raises
    CertificationError."""
    N = args.max_degree
    cd = timed(f"build w={w}", lambda: ComparisonData(alg, w, N + 1))
    _guard_dim(max(cd.sym_chain.dims), args.max_basis,
               f"symmetric slice w={w}")
    certs = []
    for label, flag in (
            ("quotient map is a chain map", cd.q_is_chain_map()),
            ("comparison map is a chain map", cd.phi_is_chain_map()),
            ("comparison map surjective", cd.surjective())):
        certs.append({"name": f"{label} (w={w})",
                      "status": "pass" if flag else "fail"})
    inc, proj, sub, total, quot = cd.ses()
    nodes = timed(f"les w={w}", lambda: long_exact_sequence_nodes(
        inc, proj, sub, total, quot, N))
    bad = [node for node, rin, kout in nodes if rin != kout]
    certs.append(_cert(f"long exact sequence exact (w={w})",
                       str(bad) if bad else None))
    rows = []
    for src, chain in (("kernel", sub), ("symmetric", total),
                       ("gamma", quot)):
        hom = chain.homology()
        rows += [{"theory": f"comparison/{src}", "n": n, "w": w,
                  "dim": hom.dim(n)} for n in range(N + 1)]
    return rows, certs


def _emit(report, args):
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["theory", "variant", "n", "w", "dim"])
        for row in report.get("tables", []):
            writer.writerow([row.get("theory"), row.get("variant", ""),
                             row.get("n"), row.get("w"), row.get("dim")])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args):
    _require_non_negative(args, "max_degree", "max_weight")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.theory in ("symmetric", "comparison") and args.coefficients != "k":
        raise ConfigError(f"{args.theory} runs with k coefficients")
    alg = _resolve_algebra(args)
    timings = {}
    if args.theory in WEIGHTWISE:
        weights = range(args.max_weight + 1)
        workers = worker_count(args.jobs, args.max_weight, os.cpu_count())
        if workers > 1:
            rows, broken = _parallel_rows(args, weights, workers, timings)
        else:
            rows, broken = _weight_rows(alg, args, weights, timings)
        certs = _weight_certs(alg, args, broken)
    else:
        rows, certs = _compute_rows(alg, args, timings)
    rows.sort(key=lambda r: (r["theory"], r.get("variant", ""),
                             r["w"], r["n"]))
    report = {
        "tool": "exacthom",
        "version": __version__,
        "config": _config_echo(args, alg),
        "tables": rows,
        "certifications": certs,
    }
    if args.timings:
        report["timings"] = timings
    _emit(report, args)
    failed = [c for c in certs if c["status"] != "pass"]
    return 1 if failed else 0


def worker_count(jobs, max_weight, cpus):
    """Worker processes for --jobs: no more than requested, than there are
    weight slices, or than there are CPUs (cpus may be None: unknown)."""
    return max(1, min(jobs, max_weight + 1, cpus or 1))


def _parallel_worker(payload):
    args, w = payload
    return _weight_rows(_resolve_algebra(args), args, [w], {})


def _parallel_rows(args, weights, workers, timings):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.perf_counter()
    # spawned workers start from a fresh import and get everything they
    # need (the parsed arguments and their weight) as the payload
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        results = list(pool.map(_parallel_worker,
                                 [(args, w) for w in weights]))
    timings["parallel total"] = round(time.perf_counter() - t0, 6)
    return ([row for wrows, _ in results for row in wrows],
            [text for _, wbroken in results for text in wbroken])


def cmd_verify(args):
    if args.algebra_file:
        raise ConfigError("verify runs its suites on shipped presets; "
                          "--algebra-file is not supported here")
    _require_non_negative(args, "max_n", "max_degree", "max_weight")
    config = {
        "max_n": args.max_n,
        "max_degree": args.max_degree,
        "max_weight": args.max_weight,
    }
    config = {k: v for k, v in config.items() if v is not None}
    if args.preset:
        config["presets"] = [args.preset]
    if args.field:
        config["field"] = _field(args)
    try:
        checks, elapsed = run_suite(args.suite, config)
    except BoundsError as exc:
        raise ConfigError(str(exc)) from None
    report = {
        "tool": "exacthom",
        "version": __version__,
        "suite": args.suite,
        "config": {k: str(v) for k, v in config.items()},
        "certifications": [c.as_dict() for c in checks],
    }
    if args.timings:
        report["timings"] = {"suite": round(elapsed, 6)}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c.ok for c in checks) else 1


def cmd_presets(args):
    rows = []
    for name in sorted(PRESETS):
        alg = preset(name)
        rows.append({
            "name": name,
            "generators": [{"symbol": s, "weight": w}
                           for s, w in zip(alg.generators, alg.weights)],
        })
    sys.stdout.write(json.dumps({"presets": rows}, sort_keys=True, indent=2)
                     + "\n")
    return 0


def cmd_validate(args):
    alg = _load_algebra(args.algebra_file, _field(args))
    problems = alg.validate()
    report = {
        "algebra": alg.name,
        "valid": not problems,
        "violations": problems,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if not problems else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exacthom",
        description="Exact homology workbench for weight-graded augmented "
                    "commutative algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_opts(p, preset_default, preset_help):
        p.add_argument("--preset", default=preset_default,
                       choices=sorted(PRESETS), help=preset_help)
        p.add_argument("--algebra-file", default=None,
                       help="JSON algebra description (overrides --preset)")
        p.add_argument("--field", default=None,
                       help="field override: Q or Fp:<prime>")

    comp = sub.add_parser("compute", help="compute homology dimension tables")
    add_algebra_opts(comp, "dual-numbers", None)
    comp.add_argument("--theory", required=True, choices=THEORIES)
    comp.add_argument("--coefficients", default="k", choices=("k", "A"))
    comp.add_argument("--max-degree", type=int, default=3)
    comp.add_argument("--max-weight", type=int, default=3)
    comp.add_argument("--format", default="json", choices=("json", "csv"))
    comp.add_argument("--output", default=None)
    comp.add_argument("--jobs", type=int, default=1,
                      help="parallel weight-slice workers, capped at the "
                           "number of weights and of CPUs (default "
                           "sequential)")
    comp.add_argument("--timings", action="store_true",
                      help="include wall-clock times (breaks byte-for-byte "
                           "reproducibility)")
    comp.add_argument("--max-basis", type=int, default=DEFAULT_BASIS_CEILING,
                      help="abort if a slice basis exceeds this size")
    comp.set_defaults(fn=cmd_compute)

    ver = sub.add_parser("verify", help="run a certification suite")
    add_algebra_opts(ver, None,
                     "run the suite on this preset only (default: the "
                     "suite's own presets)")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--max-n", type=int, default=None,
                     help="symmetric-group bound for the eulerian suite")
    ver.add_argument("--max-degree", type=int, default=None)
    ver.add_argument("--max-weight", type=int, default=None)
    ver.add_argument("--output", default=None)
    ver.add_argument("--timings", action="store_true")
    ver.set_defaults(fn=cmd_verify)

    pre = sub.add_parser("presets", help="list shipped algebra presets")
    pre.set_defaults(fn=cmd_presets)

    val = sub.add_parser("validate", help="validate an algebra description")
    val.add_argument("--algebra-file", required=True)
    val.add_argument("--field", default=None)
    val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

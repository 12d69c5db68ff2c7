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
from functools import partial

from . import __version__
from .algebras import Coefficients, PRESETS, load_algebra, preset
from .chains import (CertificationError, NotAComplexError,
                     long_exact_sequence_nodes)
from .fields import QQ, field_from_name
from .gamma import GammaComplex
from .hochschild import HochschildComplex, harrison_weight
from .symhom import ComparisonData, SymmetricComplex, hs0_law
from .verify import (SUITES, BoundsError, Check, require_characteristic,
                     require_shuffle_separates, run_suite)

THEORIES = ("hochschild", "harrison", "gamma", "symmetric", "comparison")

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


def _require_writable_output(args):
    """Refuse an --output path that cannot be written, before any work."""
    path = getattr(args, "output", None)
    if path and (os.path.isdir(path) or not os.access(
            os.path.dirname(os.path.abspath(path)), os.W_OK)):
        raise ConfigError(f"--output {path}: not a writable file path")


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


def _complexes(alg, args):
    """(variant, name, complex) of every complex whose slices args.theory
    computes from, or, for comparison, sizes up."""
    co = Coefficients(alg, args.coefficients)
    if args.theory == "gamma":
        return [(v, f"gamma({v})", GammaComplex(alg, co, v))
                for v in ("I", "A")]
    if args.theory in ("hochschild", "harrison"):
        # the normalized complex C(I, M); see hochschild_homology and
        # harrison_weight
        return [(None, args.theory, HochschildComplex(alg, co, "I"))]
    return [(None, "symmetric", SymmetricComplex(alg, "full"))]


def _guard_basis(alg, args):
    """Refuse the run when a weight's slice through degree max_degree + 1
    has more basis elements than --max-basis.  The sizes come from
    closed-form counts, so no basis is built and every weight is checked
    before any is computed."""
    complexes = _complexes(alg, args)
    for w in range(args.max_weight + 1):
        for _, name, cx in complexes:
            dim = max(cx.count(n, w) for n in range(args.max_degree + 2))
            if dim > args.max_basis:
                raise ConfigError(
                    f"{name} slice w={w} has {dim} basis elements, over the "
                    f"ceiling {args.max_basis}; lower --max-degree/"
                    f"--max-weight or raise --max-basis")


def _timer(timings):
    def timed(label, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[label] = round(time.perf_counter() - t0, 6)
        return out
    return timed


def _rows(theory, w, dims, n_max, **tag):
    return [{"theory": theory, **tag, "n": n, "w": w, "dim": dims[n]}
            for n in range(n_max + 1)]


def _joined(fails):
    return "; ".join(sorted(fails))


# Certificates that span weights.  Each weight reports its own Check under
# the name with the list of its failures as witness; the report holds one
# Check per name, in this order, whose witness reads all those failures.
SPANNING = {
    "boundary squares to zero": _joined,
    "quotient and eulerian pipelines agree": _joined,
    "degree-zero law vs algebra dimensions": str,
}


def _complex_weight(alg, args, w, timed):
    """Rows and certificates of hochschild, gamma or symmetric at one
    weight: the homology of each slice, whose d o d = 0 check is the
    "boundary squares to zero" certificate."""
    theory, N = args.theory, args.max_degree
    rows, broken = [], []
    for variant, name, cx in _complexes(alg, args):
        label = f"{variant} w={w}" if variant else f"w={w}"
        try:
            dims = timed(label, lambda: cx.slice(w, N + 1).homology())
        except NotAComplexError as exc:
            broken.append(f"{name} w={w}: {exc}")
            continue
        tag = {"variant": variant} if variant else {}
        rows += _rows(theory, w, dims, N, **tag)
    checks = []
    # symmetric lists its d o d = 0 check only when it fails
    if theory != "symmetric" or broken:
        checks.append(Check("boundary squares to zero", not broken, broken))
    if theory == "symmetric":
        law = hs0_law(cx, w)
        bad = [law] if law[1] != law[2] else []
        checks.append(Check("degree-zero law vs algebra dimensions", not bad,
                            bad))
    return rows, checks


def _harrison_weight(alg, args, w, timed):
    """Rows and certificate of harrison at one weight: both pipelines,
    certified to agree."""
    N = args.max_degree
    co = Coefficients(alg, args.coefficients)
    name = "quotient and eulerian pipelines agree"
    try:
        dims = timed(f"w={w}", lambda: harrison_weight(alg, co, w, N))
    except CertificationError as exc:
        return [], [Check(name, False, [f"harrison w={w}: {exc}"])]
    return _rows("harrison", w, dims, N), [Check(name, True, [])]


def _comparison_weight(alg, args, w, timed):
    """Rows and certificates of the comparison at one weight.  A failed
    d o d = 0 check or a short exact sequence that check_ses refuses fails
    "comparison slices certified" and costs the weight its rows."""
    N = args.max_degree
    try:
        cd = timed(f"build w={w}", lambda: ComparisonData(alg, w, N + 1))
        checks = timed(f"certify w={w}", lambda: [
            Check(f"{label} (w={w})", flag) for label, flag in (
                ("quotient map is a chain map", cd.q_is_chain_map()),
                ("comparison map is a chain map", cd.phi_is_chain_map()),
                ("comparison map surjective", cd.surjective()))])
        sub, quot = timed(f"ses w={w}", cd.ses)
        nodes = timed(f"les w={w}", lambda: long_exact_sequence_nodes(
            sub, quot, N))
    except CertificationError as exc:
        return [], [Check(f"comparison slices certified (w={w})", False,
                          str(exc))]
    bad = [node for node, rin, kout in nodes if rin != kout]
    checks.append(Check(f"long exact sequence exact (w={w})", not bad, bad))
    rows = []
    for src, chain in (("kernel", sub), ("symmetric", sub.total),
                       ("gamma", quot)):
        rows += _rows(f"comparison/{src}", w, chain.homology(), N)
    return rows, checks


def compute_weight(alg, args, w):
    """Table rows, Check certificates and timings of args.theory at weight
    w; a failed check becomes a failing Check."""
    timings = {}
    weight = {"harrison": _harrison_weight,
              "comparison": _comparison_weight}.get(args.theory,
                                                    _complex_weight)
    rows, checks = weight(alg, args, w, _timer(timings))
    return rows, checks, timings


def _certificates(per_weight):
    """The report's certificates from each weight's: one per spanning name
    reported, in SPANNING order, then the others in weight order."""
    failures = {}
    rest = []
    for checks in per_weight:
        for check in checks:
            if check.name in SPANNING:
                failures.setdefault(check.name, []).extend(check.witness)
            else:
                rest.append(check)
    return [Check(name, not failures[name], fmt(failures[name]))
            for name, fmt in SPANNING.items() if name in failures] + rest


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
    _require_non_negative(args, "max_degree", "max_weight", "max_basis")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.theory in ("symmetric", "comparison") and args.coefficients != "k":
        raise ConfigError(f"{args.theory} runs with k coefficients")
    alg = _resolve_algebra(args)
    N = args.max_degree
    if args.theory == "harrison":
        # harrison_weight builds the slices through degree N + 1
        what = f"harrison homology through degree {N}"
        require_characteristic(alg.field, N + 1, what)
        require_shuffle_separates(alg.field, N, what)
    _guard_basis(alg, args)
    timings = {}
    work = partial(compute_weight, alg, args)
    weights = range(args.max_weight + 1)
    workers = worker_count(args.jobs, args.max_weight, os.cpu_count())
    if workers > 1:
        results = _pool_map(work, weights, workers, timings)
    else:
        results = list(map(work, weights))
    rows = [row for wrows, _, _ in results for row in wrows]
    rows.sort(key=lambda r: (r["theory"], r.get("variant", ""),
                             r["w"], r["n"]))
    certs = _certificates([checks for _, checks, _ in results])
    report = {
        "tool": "exacthom",
        "version": __version__,
        "config": _config_echo(args, alg),
        "tables": rows,
        "certifications": [c.as_dict() for c in certs],
    }
    if args.timings:
        for _, _, wtimings in results:
            timings.update(wtimings)
        report["timings"] = timings
    _emit(report, args)
    return 0 if all(c.ok for c in certs) else 1


def worker_count(jobs, max_weight, cpus):
    """Worker processes for --jobs: no more than requested, than there are
    weight slices, or than there are CPUs (cpus may be None: unknown)."""
    return max(1, min(jobs, max_weight + 1, cpus or 1))


def _pool_map(fn, items, workers, timings):
    """list(map(fn, items)) in spawned worker processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.perf_counter()
    # spawned workers start from a fresh import and get everything they
    # need (fn with its bound arguments, and their item) pickled
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        results = list(pool.map(fn, items))
    timings["parallel total"] = round(time.perf_counter() - t0, 6)
    return results


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
    checks, elapsed = run_suite(args.suite, config)
    report = {
        "tool": "exacthom",
        "version": __version__,
        "suite": args.suite,
        "config": {k: str(v) for k, v in config.items()},
        "certifications": [c.as_dict() for c in checks],
    }
    if args.timings:
        report["timings"] = {"suite": round(elapsed, 6)}
    _emit(report, args)
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
                      help="parallel weight workers, capped at the number "
                           "of weights and of CPUs (default sequential)")
    comp.add_argument("--timings", action="store_true",
                      help="include wall-clock times (breaks byte-for-byte "
                           "reproducibility)")
    comp.add_argument("--max-basis", type=int, default=DEFAULT_BASIS_CEILING,
                      help="refuse a weight whose slice basis exceeds this "
                           "size, before building its boundaries")
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
    ver.set_defaults(fn=cmd_verify, format="json")

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
        _require_writable_output(args)
        return args.fn(args)
    except (ConfigError, BoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

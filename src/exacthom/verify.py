"""Certification suites: each one runs a battery of exact identities from
the theory at configurable bounds and reports named pass/fail checks.

These are the checks behind `exacthom verify` and the acceptance tests;
everything asserted here is an exact identity, never a tolerance.
"""

import time
from functools import cache
from math import comb

from .algebras import Coefficients, preset
from .chains import CertificationError, long_exact_sequence_nodes
from .fields import QQ
from .gamma import GammaComplex, prune_split_certificates
from .groupalg import (certify_eulerian, shuffle_annihilating_product,
                       shuffle_permutations)
from .hochschild import (HochschildComplex, NormalizedHarrison,
                         aug_split_iso, barr_map, harrison_homology,
                         harrison_weight, hodge_checks)
from .sparse import rank
from .symhom import ComparisonData, hs0_consistency


class BoundsError(ValueError):
    """The bounds or the field leave a suite nothing it can check."""


def require_characteristic(field, n, what):
    """The Eulerian idempotents of Sigma_n need n! invertible: p > n."""
    p = field.characteristic
    if p and p <= n:
        raise BoundsError(
            f"{what} uses the Eulerian idempotents of Sigma_{n} and "
            f"needs a field characteristic above {n}; got {p}")


def require_shuffle_separates(field, max_n, what):
    """C/im(sh) is e^(1) C through degree max_n only if the total shuffle's
    eigenvalue 2^i - 2 on e^(i) (groupalg.shuffle_annihilating_product) is
    not 0 for 2 <= i <= max_n; else im(sh) misses e^(i) C."""
    p = field.characteristic
    bad = [i for i in range(2, max_n + 1) if p and (2 ** i - 2) % p == 0]
    if bad:
        raise BoundsError(
            f"{what} needs the shuffle eigenvalue 2^i - 2 nonzero mod {p} "
            f"for 2 <= i <= {max_n}; it vanishes at i = {bad[0]}")


def _require_boundaries(max_n, suite):
    """Chain-map, commutation and acyclicity checks compare boundaries,
    which start at degree 1; below it they would pass having compared
    nothing."""
    if max_n < 1:
        raise BoundsError(
            f"suite {suite} compares boundaries and needs a maximum degree "
            f"of at least 1; got {max_n}")


class Check:
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name, ok, witness=None):
        self.name = name
        self.ok = bool(ok)
        self.witness = witness

    def as_dict(self):
        out = {"name": self.name, "status": "pass" if self.ok else "fail"}
        if not self.ok and self.witness is not None:
            out["witness"] = str(self.witness)
        return out


def _checked(name, certify, *args):
    """Check `name` with the (ok, witness) that certify(*args) returns; a
    certificate that raises on the way (d o d != 0, a boundary leaving its
    subcomplex) fails the check with its message as the witness."""
    try:
        return Check(name, *certify(*args))
    except CertificationError as exc:
        return Check(name, False, exc)


def suite_eulerian(config):
    max_n = config.get("max_n", 6)
    field = config.get("field", QQ)
    require_characteristic(field, max_n, "suite eulerian")
    checks = []
    for n in range(1, max_n + 1):
        results = certify_eulerian(field, n)
        ok = all(flag for _, flag in results)
        bad = [name for name, flag in results if not flag]
        checks.append(Check(f"eulerian certificates n={n}", ok, bad or None))
    for n in range(2, max_n + 1):
        prod = shuffle_annihilating_product(field, n)
        checks.append(Check(f"shuffle eigenvalue polynomial n={n}",
                            prod.is_zero()))
    for n in range(2, min(max_n, 7) + 1):
        for i in range(1, n):
            size = len(shuffle_permutations(i, n))
            checks.append(Check(
                f"shuffle support size ({i},{n - i})", size == comb(n, i),
                f"{size} != C({n},{i})"))
    return checks


def _hochschild_setups(config):
    algs = config.get("presets", ["dual-numbers", "trunc3"])
    modules = config.get("modules", ["k", "A"])
    field = config.get("field", QQ)
    for name in algs:
        alg = preset(name, field)
        for kind in modules:
            yield alg, Coefficients(alg, kind)


def suite_hodge(config):
    max_n = config.get("max_degree", 5)
    max_w = config.get("max_weight", 5)
    _require_boundaries(max_n, "hodge")
    require_characteristic(config.get("field", QQ), max_n, "suite hodge")
    checks = []
    for alg, co in _hochschild_setups(config):
        hc = HochschildComplex(alg, co)
        for w in range(max_w + 1):
            ok_comm, ok_dims = hodge_checks(hc, w, max_n)
            checks.append(Check(
                f"hodge commutation {alg.name} M={co.kind} w={w}", ok_comm))
            checks.append(Check(
                f"eulerian slice dims complete {alg.name} M={co.kind} w={w}",
                ok_dims))
    return checks


def _aug_split(hc, w, max_n):
    """(ok, witness) of aug_split_iso, which raises on a difference."""
    aug_split_iso(hc, w, max_n)
    return True, None


def suite_augsplit(config):
    max_n = config.get("max_degree", 5)
    max_w = config.get("max_weight", 5)
    _require_boundaries(max_n, "augsplit")
    checks = []
    for alg, co in _hochschild_setups(config):
        hc = HochschildComplex(alg, co)
        for w in range(max_w + 1):
            checks.append(_checked(
                f"normalized = ideal-only {alg.name} M={co.kind} w={w}",
                _aug_split, hc, w, max_n))
    return checks


def suite_harrison(config):
    max_n = config.get("max_degree", 4)
    max_w = config.get("max_weight", 4)
    idems = config.get("idempotents", (1, 2, 3))
    _require_boundaries(max_n, "harrison")
    field = config.get("field", QQ)
    # harrison_weight builds slices one degree past max_n
    require_characteristic(field, max_n + 1, "suite harrison")
    require_shuffle_separates(field, max_n, "suite harrison")
    checks = []
    for alg, co in _hochschild_setups(config):
        hc = HochschildComplex(alg, co)
        for w in range(max_w + 1):
            for i in idems:
                label = f"{alg.name} M={co.kind} w={w} i={i}"
                try:
                    nh = NormalizedHarrison(hc, w, max_n, i)
                except CertificationError as exc:
                    checks.append(Check(
                        f"normalized harrison certified {label}", False, exc))
                    continue
                if not any(reps.ncols for reps in nh.c_reps):
                    continue  # e^(i) is zero here: the checks compare nothing
                checks.append(Check(
                    f"composite identity {label}", nh.composite_is_identity()))
                checks.append(Check(
                    f"kernel dim accounting {label}",
                    nh.kernel_dims_match_degenerate()))
                checks.append(Check(
                    f"comparison maps are chain maps {label}",
                    nh.maps_are_chain_maps()))
                cdims = nh.c_chain.homology()
                qdims = nh.i_chain.homology()
                checks.append(Check(
                    f"quotient map quasi-iso {label}",
                    cdims[:-1] == qdims[:-1], (cdims, qdims)))
                ddims = nh.d_chain.homology()
                checks.append(Check(
                    f"degenerate summand acyclic {label}",
                    all(d == 0 for d in ddims[:-1]), ddims))
        try:
            for w in range(max_w + 1):
                harrison_weight(alg, co, w, max_n)
            ok, witness = True, None
        except CertificationError as exc:
            ok, witness = False, exc
        checks.append(Check(
            f"harrison pipelines agree {alg.name} M={co.kind} "
            f"n<={max_n} w<={max_w}", ok, witness))
    if all(c.name.startswith("harrison pipelines agree") for c in checks):
        raise BoundsError(f"suite harrison finds every Eulerian piece e^(i), "
                          f"i in {list(idems)}, zero through degree {max_n}")
    return checks


def _barr_iso(hc, w, max_n):
    """(ok, witness) of the Barr isomorphism e^(1) C -> C/Sh at weight w."""
    mats, e1_chain, quot = barr_map(hc, w, max_n)
    for n in range(max_n + 1):
        if e1_chain.dims[n] != quot.chain.dims[n]:
            return False, f"dim mismatch at degree {n}"
        if rank(mats[n]) != e1_chain.dims[n]:
            return False, f"rank drop at degree {n}"
    return True, None


def suite_barr(config):
    max_n = config.get("max_degree", 4)
    max_w = config.get("max_weight", 4)
    field = config.get("field", QQ)
    require_characteristic(field, max_n, "suite barr")
    require_shuffle_separates(field, max_n, "suite barr")
    checks = []
    for alg, co in _hochschild_setups(config):
        hc = HochschildComplex(alg, co)
        for w in range(max_w + 1):
            checks.append(_checked(f"barr iso {alg.name} M={co.kind} w={w}",
                                   _barr_iso, hc, w, max_n))
    return checks


def _pruning_compared(dims):
    """Which pruning certificates compared anything, read off the
    per-degree (full, ideal) dimensions: chain_map compares the full
    generators with a unit slot in degrees >= 1, retraction_identity the
    ideal generators and surjective every generator of either side."""
    return {"retraction_identity": any(i for _, i in dims),
            "chain_map": any(f > i for f, i in dims[1:]),
            "surjective": any(f or i for f, i in dims)}


def suite_pruning(config):
    max_n = config.get("max_degree", 4)
    max_w = config.get("max_weight", 4)
    presets_ = config.get("presets", ["dual-numbers", "trunc3"])
    field = config.get("field", QQ)
    _require_boundaries(max_n, "pruning")
    checks = []
    for name in presets_:
        alg = preset(name, field)
        co = Coefficients(alg, "k")
        for w in range(max_w + 1):
            res = prune_split_certificates(alg, co, w, max_n)
            # a certificate that compared nothing reports nothing
            for key, compared in _pruning_compared(res["dims"]).items():
                if compared:
                    checks.append(Check(
                        f"pruning {key} {name} w={w}", res[key], res["dims"]))
    if not any(c.name.startswith("pruning chain_map") for c in checks):
        raise BoundsError(
            f"suite pruning compares no unit-carrying generator through "
            f"degree {max_n} and weight {max_w}; raise --max-weight or "
            "--max-degree")
    return checks


def _gamma_variants_agree(ideal, max_n, max_w):
    """(ok, witness) of the ideal and full gamma variants of dual-numbers
    having the same dimensions; ideal(name) gives a preset's coefficients
    and the homology table of its ideal variant."""
    co, gi = ideal("dual-numbers")
    ga = GammaComplex(co.algebra, co, "A").homology_table(max_n, max_w)
    diff = {k: (gi[k], ga[k]) for k in ga if gi[k] != ga[k]}
    return not diff, diff or None


def _gamma_shifts_harrison(ideal, name, shift_n, max_w):
    """(ok, witness) of HGamma_{n-1} = Harr_n, via the ideal variant (exact
    in every weight; the full variant agrees for weight-1-generated
    presets)."""
    co, gi = ideal(name)
    harr = harrison_homology(co.algebra, co, shift_n, max_w)
    bad = {}
    for n in range(1, shift_n + 1):
        for w in range(max_w + 1):
            if gi[(n - 1, w)] != harr[(n, w)]:
                bad[(n, w)] = (gi[(n - 1, w)], harr[(n, w)])
    return not bad, bad or None


def suite_gamma_iso(config):
    max_n = config.get("max_degree", 3)
    max_w = config.get("max_weight", 3)
    # HGamma_{n-1} = Harr_n reads HGamma in degrees 0..max_n, as the
    # variant check does
    shift_n = max_n + 1
    field = config.get("field", QQ)
    require_characteristic(field, shift_n + 1, "suite gamma-iso")
    require_shuffle_separates(field, shift_n, "suite gamma-iso")
    names = config.get("presets", ["dual-numbers", "trunc3"])

    # one ideal-variant table per preset, so no slice is eliminated twice;
    # it is computed inside the first check that needs it, where a failing
    # certificate is caught
    @cache
    def ideal(name):
        co = Coefficients(preset(name, field), "k")
        return co, GammaComplex(co.algebra, co, "I").homology_table(
            max_n, max_w)

    checks = [_checked(
        f"gamma ideal vs full dims dual-numbers n<={max_n} w<={max_w}",
        _gamma_variants_agree, ideal, max_n, max_w)]
    for name in names:
        checks.append(_checked(
            f"degree shift vs harrison {name} n<={shift_n} w<={max_w}",
            _gamma_shifts_harrison, ideal, name, shift_n, max_w))
    return checks


def suite_comparison(config):
    max_n = config.get("max_degree", 3)
    max_w = config.get("max_weight", 3)
    presets_ = config.get("presets", ["dual-numbers", "trunc3"])
    field = config.get("field", QQ)
    _require_boundaries(max_n, "comparison")
    checks = []
    for name in presets_:
        alg = preset(name, field)
        for w in range(max_w + 1):
            try:
                cd = ComparisonData(alg, w, max_n)
                flags = (cd.q_is_chain_map(), cd.phi_is_chain_map())
            except CertificationError as exc:
                checks.append(Check(
                    f"comparison slices certified {name} w={w}", False, exc))
                continue
            checks.append(Check(
                f"quotient map chain map {name} w={w}", flags[0]))
            checks.append(Check(
                f"comparison map chain map {name} w={w}", flags[1]))
            checks.append(Check(
                f"comparison map surjective {name} w={w}", cd.surjective()))
        rows = hs0_consistency(alg, max_w)
        bad = [(w, got, exp) for w, got, exp in rows if got != exp]
        checks.append(Check(
            f"reduced HS_0 matches algebra dims {name} w<={max_w}",
            not bad, bad or None))
    return checks


def _les_exact(alg, w, max_n):
    """(ok, witness) of the comparison's long exact sequence at weight w
    being exact through degree max_n."""
    cd = ComparisonData(alg, w, max_n + 1)
    nodes = long_exact_sequence_nodes(*cd.ses(), max_n)
    bad = [(node, rin, kout) for node, rin, kout in nodes if rin != kout]
    return not bad, bad or None


def suite_les(config):
    max_n = config.get("max_degree", 3)
    max_w = config.get("max_weight", 3)
    presets_ = config.get("presets", ["dual-numbers"])
    field = config.get("field", QQ)
    checks = []
    for name in presets_:
        alg = preset(name, field)
        for w in range(max_w + 1):
            checks.append(_checked(
                f"long exact sequence {name} w={w} (degrees <= {max_n})",
                _les_exact, alg, w, max_n))
    return checks


SUITES = {
    "eulerian": suite_eulerian,
    "hodge": suite_hodge,
    "augsplit": suite_augsplit,
    "harrison": suite_harrison,
    "barr": suite_barr,
    "pruning": suite_pruning,
    "gamma-iso": suite_gamma_iso,
    "comparison": suite_comparison,
    "les": suite_les,
}


def run_suite(name, config=None):
    """Run one suite; returns (checks, elapsed seconds).  Raises
    BoundsError when the configuration leaves the suite no check to run,
    so that an empty report never reads as a pass."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    t0 = time.perf_counter()
    checks = SUITES[name](config or {})
    if not checks:
        raise BoundsError(f"suite {name} has nothing to check within "
                          "these bounds")
    return checks, time.perf_counter() - t0

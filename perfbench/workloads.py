"""The benchmark workloads, their seeded inputs and the golden check.

Each workload is a short sequence of parts, each one call sequence into
exacthom's public library functions on one preset.  Its output is
flattened into "operations": one table cell, one certificate boolean or
one long-exact-sequence node per key, so that a run can count how many of
them disagree with the golden record.

Callables are looked up on their modules at call time (``hochschild.
hochschild_homology``, not a name bound at import), so the wrappers the
traced run installs on those modules are the ones that run.
"""

import json
import os
import random
from fractions import Fraction

from exacthom import algebras, chains, gamma, hochschild, symhom

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def _hochschild_table(alg, max_n, max_w):
    table = hochschild.hochschild_homology(
        alg, algebras.Coefficients(alg, "A"), max_n, max_w)
    return {f"n={n},w={w}": d for (n, w), d in sorted(table.items())}


def _harrison_certify(alg, max_n, max_w):
    # harrison_homology raises CertificationError unless its two pipelines
    # agree on every cell, so each returned cell is a certified one
    table = hochschild.harrison_homology(
        alg, algebras.Coefficients(alg, "A"), max_n, max_w)
    return {f"n={n},w={w}": d for (n, w), d in sorted(table.items())}


def _pruning_stream(alg, top, max_w):
    out = {}
    coeffs = algebras.Coefficients(alg, "k")
    for w in range(max_w + 1):
        certs = gamma.prune_split_certificates(alg, coeffs, w, top)
        for name in ("retraction_identity", "chain_map", "surjective"):
            out[f"w={w}:{name}"] = certs[name]
        for n, (full, ideal) in enumerate(certs["dims"]):
            out[f"w={w}:dims:n={n}"] = [full, ideal]
    return out


def _les_symmetric(alg, top, max_w):
    out = {}
    for w in range(max_w + 1):
        cd = symhom.ComparisonData(alg, w, top)
        nodes = chains.long_exact_sequence_nodes(*cd.ses(), top - 1)
        for node, rank_in, kernel_out in nodes:
            out[f"w={w}:{node}"] = [rank_in, kernel_out]
    return out


class Part:
    """One call sequence on one preset, at fixed sizes."""

    def __init__(self, label, preset, run, sizes):
        self.label = label
        self.preset = preset
        self.run = run          # run(alg, *sizes) -> {operation key: value}
        self.sizes = sizes


class Workload:
    """A named sequence of parts; its operation keys are "<label>:<key>"."""

    def __init__(self, name, *parts):
        self.name = name
        self.parts = parts
        self.sizes = [list(part.sizes) for part in parts]

    def algebras(self, seed, sample):
        """The sample's input algebra of every preset its parts use."""
        presets = dict.fromkeys(part.preset for part in self.parts)
        return {preset: algebra(preset, seed, sample) for preset in presets}

    def outputs(self, algs, sizes=None):
        out = {}
        for part, args in zip(self.parts, sizes or self.sizes):
            for key, value in part.run(algs[part.preset], *args).items():
                out[f"{part.label}:{key}"] = value
        return out


# Two workloads of two parts each, not four of one: with fewer workloads
# each run can last 55 s in the time a whole set of runs may take, and the
# median over a longer run's samples varies less.  Every layer is still
# measured on one of them.  README.md says why each part is in the
# benchmark and gives the command-line equivalent of each.
HOCHSCHILD = Part("hochschild", "trunc4", _hochschild_table, (6, 6))
HARRISON = Part("harrison", "trunc3", _harrison_certify, (4, 6))
PRUNING = Part("pruning", "trunc4", _pruning_stream, (5, 3))
LES = Part("les", "trunc4", _les_symmetric, (3, 3))

WORKLOADS = {w.name: w for w in (
    Workload("hochschild-les", HOCHSCHILD, LES),
    Workload("harrison-pruning", HARRISON, PRUNING),
)}


def _scale(rng):
    """A small rational other than 0, 1 and -1."""
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if c != 1:
            return c if rng.random() < 0.5 else -c


def algebra(preset, seed, sample):
    """The input algebra of one sample.

    Seed 0 is the shipped preset.  Any other seed rescales every generator,
    b_i -> c_i b_i, by small rationals drawn from (seed, sample); the
    rescaled table goes through algebra_from_dict and validate().  The
    algebra is isomorphic to the preset, so every golden table still holds,
    but its structure constants c_i c_j / c_l are genuine fractions.
    """
    alg = algebras.preset(preset)
    if seed == 0:
        return alg
    rng = random.Random(f"{seed}:{sample}")
    scale = [_scale(rng) for _ in alg.generators]
    products = []
    for i, left in enumerate(alg.generators, start=1):
        for j, right in enumerate(alg.generators, start=1):
            prod = alg.basis_product(i, j)
            result = {alg.generators[l]: str(scale[i - 1] * scale[j - 1]
                                             * Fraction(c) / scale[l])
                      for l, c in enumerate(prod.ideal) if c != 0}
            if result:
                products.append({"left": left, "right": right,
                                 "result": result})
    data = {
        "name": f"{preset}-rescaled",
        "field": "Q",
        "generators": [{"symbol": s, "weight": w}
                       for s, w in zip(alg.generators, alg.weights)],
        "products": products,
    }
    scaled = algebras.algebra_from_dict(data)
    problems = scaled.validate()
    if problems:
        raise ValueError(f"rescaled {preset} failed validation: {problems}")
    return scaled


def _normalize(value):
    # tuples and lists compare equal after a JSON round trip
    return json.loads(json.dumps(value))


def compare(outputs, golden):
    """(attempted, failed, first mismatches) of outputs against golden.

    Every golden key is one operation; a key missing from either side is a
    failed operation, and a long-exact-sequence node also fails when its
    incoming rank differs from its outgoing kernel dimension.
    """
    outputs = _normalize(outputs)
    keys = sorted(set(golden) | set(outputs))
    bad = []
    for key in keys:
        got = outputs.get(key)
        ok = key in golden and got == golden[key]
        if ok and ":H_" in key:
            ok = got[0] == got[1]
        if not ok:
            bad.append((key, golden.get(key), got))
    return len(keys), len(bad), bad[:5]


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_for(workload, golden=None):
    """Golden outputs of a workload, refusing a record made at other sizes."""
    entry = (golden or load_golden())[workload.name]
    if entry["sizes"] != workload.sizes:
        raise ValueError(f"golden record of {workload.name} is for sizes "
                         f"{entry['sizes']}, workload has {workload.sizes}")
    return entry["outputs"]

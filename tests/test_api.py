"""The public API is pinned: a name joins or leaves ``exacthom.__all__``
only with an edit here, so every API change is deliberate."""

import exacthom

PINNED = [
    "ChainSlice", "Coefficients", "ComparisonData", "FiberOrderedMap",
    "GF", "GammaComplex", "GradedAlgebra", "GroupAlgebraElement",
    "HochschildComplex", "PRESETS", "Permutation", "QQ",
    "SparseMatrix", "SymmetricComplex", "connecting_homomorphism",
    "eulerian_idempotents", "field_from_name", "gamma_homology",
    "harrison_homology", "hochschild_homology", "induced_map_on_homology",
    "kernel_basis", "load_algebra", "long_exact_sequence_nodes", "preset",
    "prune_split_certificates", "rank", "reduced_symmetric_homology",
    "shuffle_element", "total_shuffle",
]


def test_star_import_binds_exactly_the_pinned_api():
    namespace = {}
    exec("from exacthom import *", namespace)  # a missing name raises here
    namespace.pop("__builtins__")
    assert sorted(exacthom.__all__) == sorted(PINNED)
    assert sorted(namespace) == sorted(PINNED)
    for name in PINNED:
        assert namespace[name] is getattr(exacthom, name)

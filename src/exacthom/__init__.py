"""Exact-arithmetic workbench for the Hochschild, Harrison, gamma and
symmetric homology of finite-dimensional weight-graded augmented
commutative algebras, with certificates for the splittings and the
comparison long exact sequence relating the theories."""

__version__ = "0.1.0"

from .algebras import (Coefficients, GradedAlgebra, load_algebra, preset,
                       PRESETS)
from .chains import (ChainSlice, KernelSlice, connecting_homomorphism,
                     induced_map_on_homology, long_exact_sequence_nodes)
from .fields import GF, QQ, field_from_name
from .gamma import GammaComplex, gamma_homology, prune_split_certificates
from .groupalg import (GroupAlgebraElement, Permutation, eulerian_idempotents,
                       shuffle_element, total_shuffle)
from .hochschild import (HochschildComplex, harrison_homology,
                         hochschild_homology)
from .sparse import SparseMatrix, kernel_basis, rank
from .symhom import (ComparisonData, FiberOrderedMap, SymmetricComplex,
                     reduced_symmetric_homology)

__all__ = [
    "ChainSlice", "Coefficients", "ComparisonData", "FiberOrderedMap",
    "GF", "GammaComplex", "GradedAlgebra", "GroupAlgebraElement",
    "HochschildComplex", "KernelSlice", "PRESETS", "Permutation", "QQ",
    "SparseMatrix", "SymmetricComplex", "connecting_homomorphism",
    "eulerian_idempotents", "field_from_name", "gamma_homology",
    "harrison_homology", "hochschild_homology", "induced_map_on_homology",
    "kernel_basis", "load_algebra", "long_exact_sequence_nodes", "preset",
    "prune_split_certificates", "rank", "reduced_symmetric_homology",
    "shuffle_element", "total_shuffle",
]

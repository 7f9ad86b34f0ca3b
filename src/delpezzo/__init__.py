"""Exceptional-curve combinatorics of del Pezzo surfaces and the arithmetic
of cubic surfaces over finite fields.

Three layers: exact lattice/group combinatorics (`lattice`, `permgroup`,
`incidence`, `verify`), finite-field geometry (`gf`, `surface`), and the
certification pipeline with its function-field density experiment
(`certify`, `experiment`, `cli`).
"""

__version__ = "0.1.0"

from .lattice import DegreeContext, exceptional_classes, pairing, roots
from .permgroup import Permutation, PermutationGroup, cycle_type
from .incidence import automorphism_group, incidence_graph, weyl_image
from .gf import UniPoly, embed, field, monic_irreducibles
from .surface import CubicForm, count_points, lines_on_surface, smoothness_certificate
from .certify import build_class_table, h1_certificate, h1_invariants
from .experiment import ExperimentConfig, run_density

__all__ = [
    "DegreeContext",
    "exceptional_classes",
    "pairing",
    "roots",
    "Permutation",
    "PermutationGroup",
    "cycle_type",
    "incidence_graph",
    "automorphism_group",
    "weyl_image",
    "UniPoly",
    "embed",
    "field",
    "monic_irreducibles",
    "CubicForm",
    "count_points",
    "lines_on_surface",
    "smoothness_certificate",
    "build_class_table",
    "h1_certificate",
    "h1_invariants",
    "ExperimentConfig",
    "run_density",
]

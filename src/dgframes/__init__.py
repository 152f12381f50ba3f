"""Coherent diagrams of integer chain complexes and their cofibrant resolutions.

The package implements, with exact integer arithmetic throughout:

* bounded finitely generated free chain complexes, graded maps, cones,
  shifts, mapping complexes and homology (``complexes``),
* order maps and the direct category of sequences (``simplicial``),
* coherent simplices of chain complexes — a twisting cochain per simplex —
  with a Maurer-Cartan validator, reindexing action and generators
  (``dg_nerve``),
* the resolution B(alpha): a twisted sum over the subset lattice which is
  Reedy cofibrant, homotopical and compatible with reindexing, together with
  last-vertex retraction data, an integer splitting solver for acyclic
  cofibrations and edge recovery from cylinder frames (``frames``),
* Smith normal form and integer linear solvers (``exact_linalg``), and a
  deterministic JSON command line (``cli``).
"""

from .complexes import (
    ChainComplex,
    GradedMap,
    HomologySummary,
    cone,
    hom_complex,
    hom_complex_diff,
    hom_differential,
    homology,
    is_acyclic,
    is_nullhomotopic,
    random_chain_map,
    random_complex,
    random_graded_map,
    shift,
    zero_complex,
)
from .dg_nerve import (
    NerveSimplex,
    act,
    coherence_defect,
    gauge,
    make_strict,
    random_simplex,
    validate_maurer_cartan,
)
from .exact_linalg import IntMatrix, invariant_factors, kernel_basis, snf, solve
from .frames import (
    FrameDiagram,
    FrameObject,
    build_frame_diagram,
    build_frame_object,
    check_simplicial_compat,
    include_last,
    homotopy,
    is_homotopical,
    is_reedy_cofibrant,
    last_vertex_data,
    recover_map_from_cylinder,
    retraction,
    solve_retraction,
    split_acyclic_cofibration,
)
from .reporting import CheckItem, Report
from .simplicial import (
    DMorphism,
    OrderMap,
    enumerate_d_objects,
    enumerate_order_maps,
)

__all__ = [
    "ChainComplex",
    "CheckItem",
    "DMorphism",
    "FrameDiagram",
    "FrameObject",
    "GradedMap",
    "HomologySummary",
    "IntMatrix",
    "NerveSimplex",
    "OrderMap",
    "Report",
    "act",
    "build_frame_diagram",
    "build_frame_object",
    "check_simplicial_compat",
    "coherence_defect",
    "cone",
    "enumerate_d_objects",
    "enumerate_order_maps",
    "gauge",
    "hom_complex",
    "hom_complex_diff",
    "hom_differential",
    "homology",
    "homotopy",
    "include_last",
    "invariant_factors",
    "is_acyclic",
    "is_homotopical",
    "is_nullhomotopic",
    "is_reedy_cofibrant",
    "kernel_basis",
    "last_vertex_data",
    "make_strict",
    "random_chain_map",
    "random_complex",
    "random_graded_map",
    "random_simplex",
    "recover_map_from_cylinder",
    "retraction",
    "shift",
    "snf",
    "solve",
    "solve_retraction",
    "split_acyclic_cofibration",
    "validate_maurer_cartan",
    "zero_complex",
]

__version__ = "0.1.0"

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

The package root exports two names, ``NerveSimplex`` and
``validate_maurer_cartan``; everything else is imported from its module.
"""

from .dg_nerve import NerveSimplex, validate_maurer_cartan

__all__ = ["NerveSimplex", "validate_maurer_cartan"]

__version__ = "0.1.0"

"""Symplectic verification toolkit for incompressible flows.

The package checks, numerically and at machine precision where the algebra
is exact, the structures attached to a planar or stretched incompressible
flow: the effective 2-form with pfaffian coefficient a = (Laplacian p)/2,
the almost-(para)complex triple it generates, the pair of 3-forms on the
six-dimensional phase space, their tensor invariants and split metrics,
symmetry reductions back to the plane, and the curvature of the lifted
metric. Scalar inputs are exact jets, so derivatives carry no truncation
error; randomized checks are seeded and reproducible.
"""

from .ma4 import flow_structure, triple_relations
from .sampling import sample_points

__version__ = "0.1.0"

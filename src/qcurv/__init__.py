"""Exact curvature and bifurcation analysis of canonical variations.

Scaling the fibres of a horizontally Einstein Riemannian submersion by
t > 0 turns every natural curvature quantity into a Laurent polynomial
in t with rational coefficients.  This package computes those
polynomials exactly, locates the degenerate instants of the associated
fourth-order (Q-curvature) problem as isolated algebraic roots, and
classifies when infinitely many such instants accumulate at the
collapsed (t -> 0) or expanded (t -> infinity) end of the family.
"""

__version__ = "0.1.0"

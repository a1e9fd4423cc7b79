"""Exact arithmetic: rationals, Laurent polynomials, root isolation,
and signs in real quadratic extensions."""

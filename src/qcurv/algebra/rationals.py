"""Canonical parsing and formatting of exact rational numbers.

The wire format is ``p/q`` in lowest terms with a positive denominator,
or a bare integer ``p`` when the denominator is 1.  Decimal notation is
rejected on input: every quantity in this package is exact and a decimal
string usually means the caller is about to feed us a rounded value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction, rejecting anything else."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    return Fraction(text)


def format_rational(value: Scalar) -> str:
    """Render an int or Fraction in the canonical ``p/q`` (or bare ``p``) form."""
    return str(value)


def sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)

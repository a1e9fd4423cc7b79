"""Dense univariate polynomial utilities over the integers and rationals.

Coefficients are stored ascending (index k holds the t**k coefficient)
with no trailing zeros, so the zero polynomial is the empty tuple.  The
integer-only routines back the root isolation code: Taylor shift,
dyadic scaling, content, the value of p at a dyadic point m / 2**k
scaled to an integer, and the gcd, a primitive polynomial remainder
sequence (pseudo-division, then division by the content at every step).
Sturm chains, the division behind the squarefree part and the Cauchy
root bound work over Q; none of them runs per bisection step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Coeff = Union[int, Fraction]
Poly = tuple[Coeff, ...]


def trim(coeffs: Sequence[Coeff]) -> Poly:
    """Drop trailing zero coefficients so the leading term is genuine."""
    last = len(coeffs)
    while last > 0 and not coeffs[last - 1]:
        last -= 1
    return tuple(coeffs[:last])


def degree(p: Sequence[Coeff]) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(p) - 1


def evaluate(p: Sequence[Coeff], x: Coeff) -> Coeff:
    acc: Coeff = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def evaluate_dyadic(p: Sequence[int], m: int, k: int) -> int:
    """2**(k * deg p) * p(m / 2**k) for integer p: an integer with the sign of p(m / 2**k).

    Homogeneous Horner: the t**i coefficient is weighted by 2**(k * (deg p - i)).
    """
    acc = 0
    shift = 0
    for c in reversed(p):
        acc = acc * m + (c << shift)
        shift += k
    return acc


def derivative(p: Sequence[Coeff]) -> Poly:
    return tuple(k * p[k] for k in range(1, len(p)))


def monomial_substitute(p: Sequence[Coeff], factor: Coeff) -> Poly:
    """p(factor * x), exact when factor is an integer."""
    return trim([c * factor**k for k, c in enumerate(p)])


def taylor_shift_1(p: Sequence[Coeff]) -> Poly:
    """p(x + 1) by repeated synthetic addition; integer in, integer out."""
    out = list(p)
    n = len(out)
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            out[j - 1] += out[j]
    return trim(out)


def reverse(p: Sequence[Coeff]) -> Poly:
    """x**deg(p) * p(1/x); requires a trimmed nonzero polynomial."""
    return trim(tuple(reversed(p)))


def strip_low_zeros(p: Sequence[Coeff]) -> tuple[Poly, int]:
    """Factor out the largest power of x, returning (quotient, power)."""
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    return tuple(p[k:]), k


def divexact_x_minus_1(p: Sequence[Coeff]) -> Poly:
    """Exact quotient of p by (x - 1); requires p(1) == 0."""
    out: list[Coeff] = [0] * (len(p) - 1)
    carry: Coeff = 0
    for k in range(len(p) - 1, 0, -1):
        carry = carry + p[k]
        out[k - 1] = carry
    return trim(out)


def content(p: Sequence[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def primitive(p: Sequence[int]) -> Poly:
    g = content(p)
    if g <= 1:
        return tuple(p)
    return tuple(c // g for c in p)


def to_integer(p: Sequence[Coeff]) -> Poly:
    """Clear denominators and divide out the content, keeping the sign."""
    q = trim(p)
    if not q:
        return q
    m = lcm(*(Fraction(c).denominator for c in q))
    ints = [int(Fraction(c) * m) for c in q]
    return primitive(ints)


def sign_variations(values: Sequence[Coeff]) -> int:
    """Count strict sign changes in a sequence, skipping zeros."""
    count = 0
    prev = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s and prev and s != prev:
            count += 1
        if s:
            prev = s
    return count


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> Poly:
    """Primitive gcd of two integer polynomials, leading coefficient positive.

    A primitive polynomial remainder sequence: each pseudo-remainder is
    divided by its content, so coefficients stay as small as the gcd
    allows and no rational number is formed.
    """
    a, b = primitive(trim(p)), primitive(trim(q))
    while b:
        a, b = b, primitive(_pseudo_remainder(a, b))
    if a and a[-1] < 0:
        a = tuple(-c for c in a)
    return a


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of c * a divided by b, c a power of b's leading coefficient.

    Each step scales the running remainder by the leading coefficient of
    b before cancelling its top term, so all arithmetic is in the
    integers; when deg a < deg b the remainder is a itself.
    """
    rem = list(a)
    lead, low = b[-1], b[:-1]
    while len(rem) >= len(b):
        top = rem.pop()
        offset = len(rem) - len(low)
        rem = [c * lead for c in rem]
        for i, c in enumerate(low):
            rem[offset + i] -= top * c
        while rem and not rem[-1]:
            rem.pop()
    return rem


def squarefree_part(p: Sequence[int]) -> Poly:
    """The product of the distinct irreducible factors of p."""
    q = trim(p)
    if degree(q) < 1:
        return q
    g = poly_gcd(q, derivative(q))
    if degree(g) < 1:
        return q
    quot, rem = divmod_frac(q, g)
    assert not rem, "gcd must divide exactly"
    return to_integer(quot)


def divmod_frac(p: Sequence[Coeff], d: Sequence[Coeff]) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q: the one division over Q here."""
    rem = list(trim(p))
    den = trim(d)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead, low = Fraction(den[-1]), den[:-1]
    quot: list[Coeff] = [0] * max(len(rem) - len(den) + 1, 0)
    while len(rem) >= len(den):
        # The leading term cancels exactly, so it is popped, not subtracted.
        factor = rem.pop() / lead
        offset = len(rem) - len(low)
        quot[offset] = factor
        for i, c in enumerate(low):
            rem[offset + i] -= factor * c
        while rem and not rem[-1]:
            rem.pop()
    return tuple(quot), tuple(rem)


def sturm_chain(p: Sequence[Coeff]) -> list[Poly]:
    """Canonical Sturm chain p, p', then negated Euclidean remainders."""
    chain: list[Poly] = []
    a = tuple(Fraction(c) for c in trim(p))
    if not a:
        return chain
    chain.append(a)
    b = trim(derivative(a))
    while b:
        chain.append(b)
        a, b = b, tuple(-c for c in divmod_frac(a, b)[1])
    return chain


def sturm_count(chain: Sequence[Poly], lo: Coeff, hi: Coeff) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    at_lo = sign_variations([evaluate(q, lo) for q in chain])
    at_hi = sign_variations([evaluate(q, hi) for q in chain])
    return at_lo - at_hi


def count_roots_halfopen(p: Sequence[int], lo: Coeff, hi: Coeff) -> int:
    """Distinct real roots of p in (lo, hi], multiplicities ignored.

    The squarefree part is taken first: zero-skipping sign variations
    give the half-open count for a squarefree chain even when an
    endpoint is itself a root, which a degenerate chain would miscount.
    """
    q = trim(p)
    if degree(q) < 1:
        return 0
    return sturm_count(sturm_chain(squarefree_part(q)), lo, hi)


def cauchy_root_bound_pow2(p: Sequence[Coeff]) -> int:
    """A power of two strictly exceeding every real root of p."""
    q = trim(p)
    if degree(q) < 1:
        return 1
    lead = abs(Fraction(q[-1]))
    bound = 1 + max(abs(Fraction(c)) for c in q[:-1]) / lead
    b = 1
    while b < bound:
        b <<= 1
    return b

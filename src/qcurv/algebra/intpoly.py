"""Dense univariate polynomials over the integers, Z[x] only.

Coefficients are stored ascending (index k holds the t**k coefficient)
with no trailing zeros, so the zero polynomial is the empty tuple.  The
routines back the root isolation code: Taylor shift, monomial scaling,
content, the value of p at num / den scaled to an integer, exact
division, a positive-root bound and one pseudo-remainder that drives
both the gcd and the Sturm chain (a primitive remainder sequence:
pseudo-division, then division by the content at every step).  No
rational number is formed.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational
from typing import Sequence

Poly = tuple[int, ...]


def trim(coeffs: Sequence[int]) -> Poly:
    """Drop trailing zero coefficients so the leading term is genuine."""
    last = len(coeffs)
    while last > 0 and not coeffs[last - 1]:
        last -= 1
    return tuple(coeffs[:last])


def degree(p: Sequence[int]) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(p) - 1


def evaluate(p: Sequence[int], num: int, den: int) -> int:
    """den**deg(p) * p(num / den) for den > 0: an integer with the sign of p(num / den).

    Homogeneous Horner: the t**i coefficient is weighted by den**(deg p - i).
    """
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def derivative(p: Sequence[int]) -> Poly:
    return tuple(k * p[k] for k in range(1, len(p)))


def monomial_substitute(p: Sequence[int], factor: int) -> Poly:
    """p(factor * x)."""
    return trim([c * factor**k for k, c in enumerate(p)])


def taylor_shift_1(p: Sequence[int]) -> Poly:
    """p(x + 1) by repeated synthetic addition."""
    out = list(p)
    n = len(out)
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            out[j - 1] += out[j]
    return trim(out)


def reverse(p: Sequence[int]) -> Poly:
    """x**deg(p) * p(1/x); requires a trimmed nonzero polynomial."""
    return trim(tuple(reversed(p)))


def strip_low_zeros(p: Sequence[int]) -> tuple[Poly, int]:
    """Factor out the largest power of x, returning (quotient, power)."""
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    return tuple(p[k:]), k


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


def divexact(p: Sequence[int], d: Sequence[int]) -> Poly:
    """The quotient p / d; requires d to divide p exactly in Z[x]."""
    rem = list(p)
    quot = [0] * (len(rem) - len(d) + 1)
    for k in range(len(quot) - 1, -1, -1):
        factor = quot[k] = rem[k + len(d) - 1] // d[-1]
        for i, c in enumerate(d):
            rem[k + i] -= factor * c
    assert not any(rem), "divisor must divide exactly"
    return tuple(quot)


def sign_variations(values: Sequence[int]) -> int:
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
    """Primitive gcd of two integer polynomials, leading coefficient positive."""
    a, b = primitive(trim(p)), primitive(trim(q))
    while b:
        a, b = b, primitive(_pseudo_remainder(a, b))
    if a and a[-1] < 0:
        a = tuple(-c for c in a)
    return a


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of c * a divided by b, c a power of |lead(b)|.

    Each step scales the running remainder by |lead(b)| and cancels its
    top term with top * sign(lead(b)), so all arithmetic is in the
    integers and c > 0: the remainder has the sign of the Euclidean one,
    which a Sturm chain needs.  When deg a < deg b the remainder is a.
    """
    rem = list(a)
    lead, low = b[-1], b[:-1]
    scale, flip = abs(lead), (lead > 0) - (lead < 0)
    while len(rem) >= len(b):
        top = rem.pop() * flip
        offset = len(rem) - len(low)
        rem = [c * scale for c in rem]
        for i, c in enumerate(low):
            rem[offset + i] -= top * c
        while rem and not rem[-1]:
            rem.pop()
    return rem


def squarefree_part(p: Sequence[int]) -> Poly:
    """The product of the distinct irreducible factors of p, primitive, sign kept.

    The gcd is primitive, so by Gauss's lemma p / gcd(p, p') is integral.
    """
    q = trim(p)
    if degree(q) < 1:
        return q
    g = poly_gcd(q, derivative(q))
    if degree(g) < 1:
        return q
    return primitive(divexact(q, g))


def sturm_chain(p: Sequence[int]) -> list[Poly]:
    """Sturm chain p, p', then primitive negated pseudo-remainders.

    Each term is a positive multiple of the canonical (Euclidean) term,
    so sign variations at every point are the same.
    """
    a = trim(p)
    if not a:
        return []
    chain = [a]
    b = derivative(a)
    while b:
        chain.append(b)
        a, b = b, primitive([-c for c in _pseudo_remainder(a, b)])
    return chain


def sturm_count(chain: Sequence[Poly], lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    at_lo = sign_variations([evaluate(q, lo.numerator, lo.denominator) for q in chain])
    at_hi = sign_variations([evaluate(q, hi.numerator, hi.denominator) for q in chain])
    return at_lo - at_hi


def count_roots_halfopen(p: Sequence[int], lo: Rational, hi: Rational) -> int:
    """Distinct real roots of p in (lo, hi], multiplicities ignored.

    The squarefree part is taken first: zero-skipping sign variations
    give the half-open count for a squarefree chain even when an
    endpoint is itself a root, which a degenerate chain would miscount.
    """
    q = trim(p)
    if degree(q) < 1:
        return 0
    return sturm_count(sturm_chain(squarefree_part(q)), lo, hi)


def cauchy_root_bound_pow2(p: Sequence[int]) -> int:
    """A power of two b >= 1 strictly exceeding every positive root of p.

    With a_n > 0, every positive root is below 2 max (-a_i / a_n)**(1 / (n - i))
    over the negative a_i (Kioustelidis, JCAM 16, 1986).  b is the smallest
    power of two above that bound, a_n (b / 2)**(n - i) > -a_i for each such
    i, unless the Cauchy bound is smaller: the smallest b with
    b a_n >= a_n + max |a_i|, which exceeds every real root.
    """
    q = trim(p)
    if degree(q) < 1:
        return 1
    if q[-1] < 0:
        q = tuple(-c for c in q)
    lead, n = q[-1], len(q) - 1
    cauchy = 1 << (-(-max(abs(c) for c in q[:-1]) // lead)).bit_length()
    j = 0
    for i, c in enumerate(q[:-1]):
        if c < 0:
            # a_n 2**(j (n - i)) > -a_i 2**(n - i), with b = 2**j.
            k, x = n - i, -c << (n - i)
            j = max(j, (x.bit_length() - lead.bit_length()) // k)
            while lead << (j * k) <= x:
                j += 1
    return min(1 << j, cauchy)

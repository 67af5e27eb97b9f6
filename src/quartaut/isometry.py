"""Isometries of a quartic Picard lattice and generator synthesis.

An isometry is a 2x2 integer matrix m with m^T Q m = Q, acting on coordinate
columns in the (H, W) basis. Two criteria decide whether a Hodge isometry
descends from an actual automorphism of the surface:

* gluing_ok: (m + I) Q^{-1} or (m - I) Q^{-1} is integral (the isometry
  extends over the transcendental lattice), an integrality criterion;
* torelli_ok: m(H) is ample (so the extended isometry is effective), not
  an integrality test: without (-2)-classes every power of the minimal
  hyperbolic element below passes it.

Involutions of the lattice that fix no ample class come in the one-parameter
family involution_form; infinite-order isometries are powers of the minimal
hyperbolic element h = ((alpha, beta), (-2*beta/c, alpha - b*beta/c)) at the
least solution of the conic c*a^2 - b*a*t + 2*t^2 = c
(minimal_quadeq_solution). generators_for builds the generator list inside
surface.classify_aut; aut_generators reads it back. This module and surface
import each other and load together; each reads the other's names only when
called, so either may be imported first.
"""
from __future__ import annotations

from math import gcd, isqrt

from . import pell
from . import surface as surf
from .lattice import Mat, Vec, mat_mul, mat_transpose

_QUADEQ_HARD_CAP = 1_000_000


def is_isometry(L: surf.QuarticLattice, m: Mat) -> bool:
    """Exact check that m preserves the intersection form: m^T Q m == Q."""
    Q = L.base.gram()
    return mat_mul(mat_transpose(m), mat_mul(Q, m)) == Q


def gluing_ok(L: surf.QuarticLattice, m: Mat) -> bool:
    """True iff (m + I) Q^{-1} or (m - I) Q^{-1} has integer entries.

    Q^{-1} = adj(Q)/det(Q) with adj(Q) = ((2c, -b), (-b, 4)) and
    det(Q) = -r, so the test is that r divides each entry of
    n·adj(Q) for n = m ± I: 2c*n11 - b*n12, 4*n12 - b*n11,
    2c*n21 - b*n22 and 4*n22 - b*n21; no rational types needed.
    """
    b, c2, r = L.b, 2 * L.c, L.r
    (m11, m12), (m21, m22) = m
    for sign in (1, -1):
        n11, n22 = m11 + sign, m22 + sign
        if not ((c2 * n11 - b * m12) % r or (4 * m12 - b * n11) % r
                or (c2 * m21 - b * n22) % r or (4 * n22 - b * m21) % r):
            return True
    return False


def torelli_ok(L: surf.QuarticLattice, m: Mat) -> bool:
    """True iff m sends the polarization H to an ample class; m(H) is the
    first column of m."""
    return surf.is_ample(L, (m[0][0], m[1][0]))


def _check_on_conic(L: surf.QuarticLattice, alpha: int, beta: int) -> None:
    """ValueError unless c != 0 and (alpha, beta) solves c*a^2 - b*a*t + 2*t^2 = c."""
    b, c = L.b, L.c
    if c == 0:
        raise ValueError("the isometry families are undefined for c = 0")
    if c * alpha * alpha - b * alpha * beta + 2 * beta * beta != c:
        raise ValueError("(alpha, beta) = (%d, %d) does not solve the conic" % (alpha, beta))


def involution_form(L: surf.QuarticLattice, alpha: int, beta: int) -> Mat | None:
    """The trace-zero isometry ((alpha, beta), ((-b*alpha + 2*beta)/c, -alpha))
    of a conic point, or None when the lower-left entry is not an integer."""
    _check_on_conic(L, alpha, beta)
    num = -L.b * alpha + 2 * beta
    if num % L.c:
        return None
    return ((alpha, beta), (num // L.c, -alpha))


def minimal_quadeq_solution(L: surf.QuarticLattice) -> Vec:
    """Smallest positive (alpha, beta) solving c*a^2 - b*a*t + 2*t^2 = c whose
    determinant-one isometry h = ((alpha, beta), (-2*beta/c, alpha - b*beta/c))
    is integral with positive trace.

    h is integral exactly when c | 2*beta and c | b*beta, that is when
    sigma = |c|/gcd(c, 2, b) divides beta, so the scan steps |beta| by sigma.
    Then alpha is a root of the monic integer polynomial
    a^2 - (b*beta/c)*a + (2*beta^2/c - 1), whose discriminant is s^2/c^2 with
    s^2 = r*beta^2 + 4c^2; when s is an integer both roots (b*beta ± s)/(2c)
    are rational, hence integers. h's trace 2*alpha - b*beta/c is ±s/c, so
    the root of positive trace is (b*beta + sgn(c)*s)/(2c), and only it is
    tried. The scan needs no bound of its own: with (t, u) the fundamental
    Pell solution, |beta| = 2|c|u is a multiple of sigma with s = 2|c|t,
    and the roots tried at ±beta, alpha = t ± b*u (the Pell automorph and
    its inverse), sum to 2t > 0, so the scan returns by that |beta|; its
    one bound is a hard cap on |beta|. h^-1 shares |beta| and beta > 0 is
    tried first, so h's orientation depends on the model (a model change
    may invert the conjugated h); the published curve models have beta > 0.
    """
    b, c, r = L.b, L.c, L.r
    if pell.is_square(r):
        raise ValueError("no infinite-order isometry exists for square discriminant")
    sigma = abs(c) // gcd(c, 2, b)
    for size in range(sigma, _QUADEQ_HARD_CAP + 1, sigma):
        for beta in (size, -size):
            s2 = r * beta * beta + 4 * c * c
            s = isqrt(s2)
            if s * s != s2:
                continue
            alpha = (b * beta + (s if c > 0 else -s)) // (2 * c)
            if alpha > 0:
                return (alpha, beta)
    raise RuntimeError("no positive conic solution with |beta| <= %d; lattice outside the "
                       "supported range" % _QUADEQ_HARD_CAP)


def reflection(L: surf.QuarticLattice, A: Vec) -> Mat:
    """Reflection x -> (A.x)A - x along a class with A^2 = 2."""
    if L.dot(A, A) != 2:
        raise ValueError("reflection axis must have self-intersection 2")
    k0, k1 = L.dot(surf.H, A), L.dot((0, 1), A)
    return ((k0 * A[0] - 1, k1 * A[0]), (k0 * A[1], k1 * A[1] - 1))


def generators_for(L: surf.QuarticLattice, tag: str, axes: list[Vec]) -> list[Mat]:
    """Generator matrices for a classify_aut tag: h^k for Z, otherwise the
    reflections in the axes, the ample square-2 classes A already in the
    order (|y|, y, A.H) (none for Trivial). AutKind checks the count."""
    if tag == "Z":
        # no (-2)-class, so every power of h passes torelli_ok
        return [_gluing_power(L)[0]]
    return [reflection(L, A) for A in axes]


def minimal_gluing_exponent(L: surf.QuarticLattice) -> int:
    """The least k >= 1 for which h^k glues, h the minimal hyperbolic
    isometry, on any nonsquare lattice without (-2)-walls. aut_generators
    returns that h^k only for the Z tag; on Z2starZ2 models a k comes back
    too (2 on the r = 28 and r = 56 curve models), where two reflections
    generate instead.

    A (-2)-class on nonsquare r is refused before the conic scan: its walls
    bound the ample chamber on both sides, and no hyperbolic isometry maps
    a bounded chamber to itself (square r has no h: the scan refuses it).
    Past that there is no (-2)-class, so every positive class is ample, and
    h^k passes torelli_ok unchecked: H.h^k(H) = 2 tr(h^k) > 0.
    """
    if not pell.is_square(L.r) and surf._chamber_walls(L):
        raise RuntimeError("(-2)-walls bound the ample chamber, so no power of the "
                           "minimal isometry sends H to an ample class")
    return _gluing_power(L)[1]


def _gluing_power(L: surf.QuarticLattice) -> tuple[Mat, int]:
    """(h^k, k) for the least k >= 1 at which the minimal hyperbolic element
    h satisfies gluing_ok.

    h is read off the scan's conic point and is integral, as sigma | beta.
    gluing_ok(h^k) depends only on h^k mod det Q and holds once h^k ≡ I, so
    the loop is finite: the first such k bounds it.
    """
    alpha, beta = minimal_quadeq_solution(L)
    b, c = L.b, L.c
    h = ((alpha, beta), (-2 * beta // c, alpha - b * beta // c))
    hk, k = h, 1
    while not gluing_ok(L, hk):
        hk, k = mat_mul(hk, h), k + 1
    return hk, k


def aut_generators(L: surf.QuarticLattice) -> list[Mat]:
    """Generators of the automorphism group acting on (H, W) coordinates:
    [] / [reflection] / [two reflections] / [h^k] per the classification."""
    return list(surf.classify_aut(L).generators)


"""Oracles that only the tests use: the matrix-vector product, matrix
powers, the Pell unit's action on classes, and the infinite-order family of
isometries. The package does not call them; the tests check its answers
against them."""
from quartaut import pell
from quartaut.lattice import IDENTITY, Mat, Vec, mat_inv_unimodular, mat_mul
from quartaut.surface import QuarticLattice


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_pow(m: Mat, k: int) -> Mat:
    if k < 0:
        return mat_pow(mat_inv_unimodular(m), -k)
    out = IDENTITY
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def automorph(L: QuarticLattice) -> Mat:
    """The class-vector action T of the fundamental solution (t, u) of
    x^2 - r*y^2 = 1, an isometry of determinant 1.

    The isometries of determinant 1 are ±A^j, A the automorph that
    surface._reduced_cycle reads off one cycle, and T = ±A^j for some
    j >= 1. T need not generate them: j is 2, 3 or 4 on 491 of the 1925
    nonsquare models with -8 <= b <= 8 and r <= 1000. On
    QuarticLattice(2, -1), r = 12, A = ((-1, -1), (-2, -3)) and
    T = A^2 = ((3, 4), (8, 11)).
    """
    t, u = pell.fundamental_solution(L.r)
    return ((t - L.b * u, -2 * L.c * u), (4 * u, t + L.b * u))


def infinite_order_form(L: QuarticLattice, alpha: int, beta: int) -> Mat | None:
    """The determinant-one isometry ((alpha, beta), (-2*beta/c, alpha - b*beta/c))
    of a point on the conic c*a^2 - b*a*t + 2*t^2 = c, or None when an entry
    is not an integer. ValueError for c = 0 or a point off the conic."""
    b, c = L.b, L.c
    if c == 0:
        raise ValueError("the infinite-order family is undefined for c = 0")
    if c * alpha * alpha - b * alpha * beta + 2 * beta * beta != c:
        raise ValueError("(%d, %d) does not solve the conic" % (alpha, beta))
    if (2 * beta) % c or (b * beta) % c:
        return None
    return ((alpha, beta), (-2 * beta // c, alpha - b * beta // c))

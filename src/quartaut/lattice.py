"""Exact arithmetic for rank-2 even lattices given by a symmetric Gram matrix.

Conventions used everywhere in this package: divisor classes are integer
coordinate pairs (column vectors), 2x2 integer matrices act on the left, and
the first basis vector is always the hyperplane class H. Classes and matrices
are plain tuples; the lattice is passed explicitly to every operation.
"""
from __future__ import annotations

from typing import NamedTuple

Vec = tuple[int, int]
Mat = tuple[Vec, Vec]

IDENTITY: Mat = ((1, 0), (0, 1))


class GramLattice(NamedTuple("GramLattice", [("q11", int), ("q12", int), ("q22", int)])):
    """Rank-2 even lattice with Gram matrix ((q11, q12), (q12, q22))."""

    __slots__ = ()

    def __new__(cls, q11: int, q12: int, q22: int) -> GramLattice:
        if q11 % 2 or q22 % 2:
            raise ValueError("not an even lattice: diagonal entries must be even")
        if q11 * q22 - q12 * q12 == 0:
            raise ValueError("degenerate Gram matrix")
        return super().__new__(cls, q11, q12, q22)

    def det(self) -> int:
        return self.q11 * self.q22 - self.q12 * self.q12

    def gram(self) -> Mat:
        return ((self.q11, self.q12), (self.q12, self.q22))


def pairing(L: GramLattice, u: Vec, v: Vec) -> int:
    """Symmetric bilinear value u^T Q v; pairing(L, u, u) is the self-intersection."""
    return (
        L.q11 * u[0] * v[0]
        + L.q12 * (u[0] * v[1] + u[1] * v[0])
        + L.q22 * u[1] * v[1]
    )


def reflection_in(L: GramLattice, v: Vec) -> Mat:
    """Matrix of x -> 2(x.v)/(v.v) v - x, which fixes v and negates its
    orthogonal complement; ValueError when it is not integral."""
    vv = pairing(L, v, v)
    n0, n1 = 2 * pairing(L, (1, 0), v), 2 * pairing(L, (0, 1), v)
    if vv == 0 or n0 % vv or n1 % vv:
        raise ValueError("the reflection in %r is not integral" % (v,))
    k0, k1 = n0 // vv, n1 // vv
    return ((k0 * v[0] - 1, k1 * v[0]), (k0 * v[1], k1 * v[1] - 1))


def discriminant(L: GramLattice) -> int:
    """disc(L) = -det(Q)."""
    return -L.det()


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with det = +-1."""
    d = mat_det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return (
        (m[1][1] * d, -m[0][1] * d),
        (-m[1][0] * d, m[0][0] * d),
    )


def mat_transpose(m: Mat) -> Mat:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def change_basis(L: GramLattice, B: Mat) -> GramLattice:
    """The Gram matrix B^T Q B of the columns of B; disc multiplies by (det B)^2.
    |det B| > 1 is allowed (the columns span a sublattice of that index);
    det B = 0 is rejected."""
    if mat_det(B) == 0:
        raise ValueError("basis-change matrix must be nonsingular")
    g = mat_mul(mat_transpose(B), mat_mul(L.gram(), B))
    return GramLattice(g[0][0], g[0][1], g[1][1])

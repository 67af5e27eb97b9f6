"""Rank-2 Picard lattices of smooth quartic surfaces.

The lattice is spanned by the hyperplane class H (H^2 = 4) and one more
class, so the Gram matrix is ((4, b), (b, 2c)) and the discriminant is
r = b^2 - 8c. Everything downstream keys off r:

* classes D with D^2 = k correspond to solutions of x^2 - r*y^2 = 4k
  satisfying x ≡ b*y (mod 4), via D = ((x - b*y)/4, y) in the (H, W) basis;
* effective (-2)-classes cut the positive cone into chambers, and the
  chamber containing H is the ample cone. In rank 2 the projectivized
  positive cone is a hyperbolic line, so that chamber is an interval bounded
  by at most two walls, one on each side of H; the distance from H to the
  wall of delta grows with H.delta, so on each side the wall of least degree
  is the nearest one (_chamber_walls);
* the automorphism group of a general surface with this Picard lattice is
  one of: trivial, Z/2, Z/2 * Z/2 (free product), or Z, decided by which
  class squares occur (classify_aut).

Discriminants 1, 4 and 8 are excluded: each forces a class that no very
ample degree-4 polarization tolerates (forbidden_small_disc exhibits it).
"""
from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from . import pell
from .lattice import (
    GramLattice,
    Mat,
    Vec,
    mat_inv_unimodular,
    mat_vec,
    pairing,
)

H: Vec = (1, 0)

# discriminants excluded by forbidden_small_disc
FORBIDDEN_DISCS = frozenset({1, 4, 8})

AUT_TAGS = ("Trivial", "Z2", "Z2starZ2", "Z")


def canonical_bc(r: int) -> tuple[int, int]:
    """Smallest b >= 0 with b^2 ≡ r (mod 8), and the matching c."""
    if r <= 0:
        raise ValueError("discriminant must be positive")
    m = r % 8
    if m == 0:
        b = 0
    elif m == 1:
        b = 1
    elif m == 4:
        b = 2
    else:
        raise ValueError(
            "no even lattice with a square-4 vector has discriminant %d" % r
        )
    return b, (b * b - r) // 8


# Models (b, c) = (d, g - 1) in which W itself is an irreducible curve of
# genus g and degree d from the link catalog, one per discriminant that
# carries one. The printed generator matrices live in these coordinates.
CURVE_MODELS: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    17: ((11, 13), (14, 11)),
    20: ((10, 10), (11, 10)),
    28: ((10, 9), (10, 10)),
    32: ((8, 4), (5, 8)),
    40: ((8, 3), (4, 8)),
    41: ((9, 5), (6, 9)),
    48: ((8, 2), (3, 8)),
    56: ((8, 1), (2, 8)),
}


class QuarticLattice(NamedTuple("QuarticLattice", [("b", int), ("c", int)])):
    """Picard lattice ZH + ZW with H^2 = 4, H.W = b, W^2 = 2c."""

    __slots__ = ()

    def __new__(cls, b: int, c: int) -> "QuarticLattice":
        r = b * b - 8 * c
        if r <= 0:
            raise ValueError("discriminant must be positive (hyperbolic signature)")
        if r in FORBIDDEN_DISCS:
            raise ValueError(
                "discriminant %d carries a class incompatible with a very ample "
                "degree-4 polarization; see forbidden_small_disc" % r
            )
        return super().__new__(cls, b, c)

    @classmethod
    def from_disc(cls, r: int) -> "QuarticLattice":
        return cls(*canonical_bc(r))

    @property
    def r(self) -> int:
        return self.b * self.b - 8 * self.c

    @property
    def base(self) -> GramLattice:
        return GramLattice(4, self.b, 2 * self.c)

    def dot(self, u: Vec, v: Vec) -> int:
        return pairing(self.base, u, v)


def curve_model(r: int) -> tuple[QuarticLattice, tuple[int, int]]:
    """The curve-bearing model of discriminant r and its (genus, degree).

    KeyError for the ten discriminants without a catalog curve.
    """
    (b, c), gd = CURVE_MODELS[r]
    return QuarticLattice(b, c), gd


class AutKind(NamedTuple("AutKind", [("tag", str), ("generators", tuple[Mat, ...]),
                                     ("obstruction", Vec | None),
                                     ("axes", tuple[Vec, ...])])):
    """Result of classify_aut: a tag and matching generator matrices, with
    the witnesses that decide the tag: obstruction, a nonzero class of
    square 0 or -2 (None when there is none), and axes, the ample square-2
    classes sorted by their Pell key (the reflection axes for Z2 and
    Z2starZ2)."""

    __slots__ = ()

    def __new__(cls, tag: str, generators: tuple[Mat, ...] = (),
                obstruction: Vec | None = None, axes: tuple[Vec, ...] = ()) -> "AutKind":
        if tag not in AUT_TAGS:
            raise ValueError("unknown tag %r" % (tag,))
        want = {"Trivial": 0, "Z2": 1, "Z2starZ2": 2, "Z": 1}[tag]
        if len(generators) != want:
            raise ValueError(
                "tag %s needs %d generators, got %d" % (tag, want, len(generators))
            )
        return super().__new__(cls, tag, generators, obstruction, axes)


def genus_degree(L: QuarticLattice, C: Vec) -> tuple[int, int]:
    """(arithmetic genus, degree) = (C^2/2 + 1, C.H) of a curve class."""
    d = L.dot(H, C)
    sq = L.dot(C, C)
    if sq % 2:
        raise ValueError("odd self-intersection on an even lattice; corrupted input")
    if d <= 0:
        raise ValueError("curve class must have positive degree")
    if sq < -2:
        raise ValueError("curve class must have self-intersection >= -2")
    return sq // 2 + 1, d


def realizable_gd(g: int, d: int) -> bool:
    """Whether a smooth quartic contains a curve of genus g and degree d:
    g = d^2/8 + 1 (complete intersection) or g < d^2/8, except (g, d) = (3, 5)."""
    if g < 0 or d < 1:
        return False
    if (g, d) == (3, 5):
        return False
    return 8 * g == d * d + 8 or 8 * g < d * d


def _congruent_class(b: int, x: int, y: int) -> Vec | None:
    """Map a Pell solution to a class of the lattice with H.W = b when the
    mod-4 congruence holds."""
    if (x - b * y) % 4:
        return None
    return ((x - b * y) // 4, y)


def _normalize_effective(L: QuarticLattice, D: Vec) -> Vec:
    """Flip sign so D.H > 0, breaking a D.H = 0 tie lexicographically."""
    d = L.dot(H, D)
    if d < 0 or (d == 0 and D < (-D[0], -D[1])):
        return (-D[0], -D[1])
    return D


def class_with_square_exists(L: QuarticLattice, k: int, nonzero: bool = False) -> Vec | None:
    """A class D with D^2 = k, or None.

    Solves x^2 - r*y^2 = 4k and keeps the first representative with
    x ≡ b*y (mod 4): the representatives cover every automorph-and-sign
    orbit (for square r, every solution), and the automorph and negation
    preserve the congruence. No sign normalization is applied (both signs
    of a class answer the existence question). The zero class only counts
    when nonzero is False.
    """
    if k % 2:
        raise ValueError("an even lattice has no class of odd square")
    r = L.r
    if k == 0:
        if not nonzero:
            return (0, 0)
        if not pell.is_square(r):
            return None
        t = isqrt(r)
        for y in range(1, 5):
            for x in (t * y, -t * y):
                D = _congruent_class(L.b, x, y)
                if D is not None:
                    return D
        return None
    for x, y in pell.solution_class_reps(r, 4 * k):
        D = _congruent_class(L.b, x, y)
        if D is not None:
            return D
    return None


def find_curve_class(L: QuarticLattice, target: tuple[int, int]) -> Vec | None:
    """A class D with genus_degree(L, D) == target, or None.

    Exact: (H.D)^2 - H^2 D^2 = r*y^2 fixes y^2 = (d^2 - 8(g - 1))/r, and
    H.D = d fixes D = ((d - b*y)/4, y). The first of y = -|y|, +|y| meeting
    the mod-4 congruence is returned.
    """
    g, d = target
    y2, rem = divmod(d * d - 8 * (g - 1), L.r)
    if rem or y2 < 0 or not pell.is_square(y2):
        return None
    y = isqrt(y2)
    for sy in ((-y, y) if y else (0,)):
        D = _congruent_class(L.b, d, sy)
        if D is not None:
            return D
    return None


def forbidden_small_disc(b: int, c: int) -> tuple[Vec, tuple[int, int]]:
    """For r = b^2 - 8c in {1, 4, 8}: a witness class E together with its
    profile (E^2, H.E), one of (0,1), (0,2), (-2,0). Any of those profiles
    contradicts very ampleness of a degree-4 polarization."""
    r = b * b - 8 * c
    if r not in FORBIDDEN_DISCS:
        raise ValueError("only discriminants 1, 4, 8 are excluded this way")
    L_base = GramLattice(4, b, 2 * c)
    for sq, deg in ((0, 1), (0, 2), (-2, 0)):
        # 4*E^2 = (H.E)^2 - r*y^2
        num = deg * deg - 4 * sq
        if num % r:
            continue
        if num < 0:
            continue
        y2 = num // r
        y = isqrt(y2)
        if y * y != y2:
            continue
        for sy in ((y, -y) if y else (0,)):
            E = _congruent_class(b, deg, sy)
            if E is None:
                continue
            d0 = pairing(L_base, H, E)
            if d0 < 0 or (d0 == 0 and E < (-E[0], -E[1])):
                E = (-E[0], -E[1])
            return E, (sq, deg)
    raise RuntimeError("no witness found; unreachable for r in {1, 4, 8}")


def automorph(L: QuarticLattice) -> Mat:
    """Generator of the infinite cyclic isometry group fixing H's Pell frame:
    the class-vector action of the fundamental solution of x^2 - r*y^2 = 1."""
    t, u = pell.fundamental_solution(L.r)
    return ((t - L.b * u, -2 * L.c * u), (4 * u, t + L.b * u))


def neg2_wall_orbits(L: QuarticLattice) -> list[Vec]:
    """Effective-wall generators: one class per automorph-and-sign orbit of
    classes with square -2 (for square r, the full finite list), each with
    its effective sign."""
    walls: list[Vec] = []
    for x, y in pell.solution_class_reps(L.r, -8):
        D = _congruent_class(L.b, x, y)
        if D is None:
            continue
        D = _normalize_effective(L, D)
        if D not in walls:
            walls.append(D)
    return walls


def _pell_key(L: QuarticLattice, D: Vec) -> tuple[int, int, int]:
    """The order in which classes are listed: (|y|, y, D.H)."""
    return abs(D[1]), D[1], L.dot(H, D)


def _least_degree_each_side(L: QuarticLattice, starts: list[Vec]) -> list[Vec]:
    """Among the classes of one square k != 0 reached from starts, the class
    of least degree D.H with y < 0 and the one with y > 0 (each normalized
    effective), sorted by _pell_key; at most two classes.

    For square r the starts are the whole finite set. For nonsquare r they
    are one per automorph orbit, and each orbit is walked both ways: along
    it the normalized y changes sign once, and the degree falls toward that
    flip and rises after it, so past the flip with the degree nondecreasing
    nothing smaller comes.
    """
    walks: tuple[tuple[Mat, int], ...] = ()
    if not pell.is_square(L.r):
        T = automorph(L)
        walks = ((T, 1), (mat_inv_unimodular(T), -1))
    best: dict[int, tuple[int, Vec]] = {}

    def keep(D: Vec) -> tuple[int, int]:
        d, side = L.dot(H, D), (1 if D[1] > 0 else -1)
        if side not in best or (d, D) < best[side]:
            best[side] = (d, D)
        return d, side

    for start in starts:
        first = _normalize_effective(L, start)
        first_d, _ = keep(first)
        for M, stop_side in walks:
            D, prev_d = first, first_d
            while True:
                D = _normalize_effective(L, mat_vec(M, D))
                d, side = keep(D)
                if side == stop_side and d >= prev_d:
                    break
                prev_d = d
    return sorted((D for _, D in best.values()), key=lambda D: _pell_key(L, D))


def _chamber_walls(L: QuarticLattice) -> list[Vec]:
    """The effective (-2)-classes whose walls bound the ample chamber: the
    nearest wall on each side of H, i.e. the least degree on each side."""
    return _least_degree_each_side(L, neg2_wall_orbits(L))


def is_ample(L: QuarticLattice, A: Vec) -> bool:
    """Exact ampleness: A.H > 0, A^2 > 0, and A pairs strictly positively
    with every effective (-2)-class, i.e. with both chamber walls."""
    return (
        L.dot(H, A) > 0
        and L.dot(A, A) > 0
        and all(L.dot(A, w) > 0 for w in _chamber_walls(L))
    )


def _ample_representative(L: QuarticLattice, A: Vec, walls: list[Vec]) -> Vec:
    """Reflect a square-2 class across violated chamber walls until it is ample.

    Each reflection strictly decreases A.H while the Weyl group preserves the
    half-cone of H, so the loop terminates; a square-2 class cannot lie on a
    wall (that would force discriminant 1 or 4), so progress is guaranteed.
    """
    if L.dot(H, A) < 0:
        A = (-A[0], -A[1])
    while True:
        for w in walls:
            p = L.dot(A, w)
            if p <= 0:
                assert p < 0, "square-2 class on a wall; discriminant should forbid this"
                A = (A[0] + p * w[0], A[1] + p * w[1])
                break
        else:
            return A


def ample_square2_axes(L: QuarticLattice) -> list[Vec]:
    """The distinguished ample square-2 classes, sorted by _pell_key.
    Empty when no congruent square-2 class exists.

    With effective (-2)-classes present the ample chamber is cut out by
    its two walls and every congruent Pell orbit reflects into it. With no
    walls every positive square-2 class is ample, and the generators of the
    reflection group are the two classes of least degree, one on each side
    of H (y < 0 and y > 0 after normalizing A.H > 0).
    """
    r = L.r
    if pell.is_square(r):
        return []
    reps = [D for x, y in pell.solution_class_reps(r, 8)
            if (D := _congruent_class(L.b, x, y)) is not None]
    if not reps:
        return []
    walls = _chamber_walls(L)
    if not walls:
        return _least_degree_each_side(L, reps)
    axes = {_ample_representative(L, D, walls) for D in reps}
    return sorted(axes, key=lambda A: _pell_key(L, A))


def classify_aut(L: QuarticLattice) -> AutKind:
    """Four-way classification of the automorphism group of a general quartic
    with this Picard lattice, with generators acting on (H, W) coordinates.

    P1: some nonzero class has square 0 or -2 (the surface carries elliptic
    or rational curves). P2: some ample class has square 2.
    P1 and not P2 -> Trivial; P1 and P2 -> Z2; not P1 and P2 -> Z2starZ2
    (two involutions, free product); neither -> Z. The witnesses of P1 and
    P2 come back as the record's obstruction and axes.
    """
    obstruction = class_with_square_exists(L, 0, nonzero=True) \
        or class_with_square_exists(L, -2)
    axes = ample_square2_axes(L)
    if obstruction:
        tag = "Z2" if axes else "Trivial"
    else:
        tag = "Z2starZ2" if axes else "Z"
    from . import isometry

    gens = isometry.generators_for(L, tag, axes)
    return AutKind(tag, tuple(gens), obstruction, tuple(axes))

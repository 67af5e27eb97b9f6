"""Rank-2 Picard lattices of smooth quartic surfaces.

The lattice is spanned by the hyperplane class H (H^2 = 4) and one more
class, so the Gram matrix is ((4, b), (b, 2c)) and the discriminant is
r = b^2 - 8c. Everything downstream keys off r:

* classes D with D^2 = k correspond to solutions of x^2 - r*y^2 = 4k
  satisfying x ≡ b*y (mod 4), via D = ((x - b*y)/4, y) in the (H, W) basis;
* effective (-2)-classes cut the positive cone into chambers, and the
  chamber containing H is the ample cone;
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


class AutKind(NamedTuple("AutKind", [("tag", str), ("generators", tuple[Mat, ...])])):
    """Result of classify_aut: a tag and matching generator matrices."""

    __slots__ = ()

    def __new__(cls, tag: str, generators: tuple[Mat, ...] = ()) -> "AutKind":
        if tag not in AUT_TAGS:
            raise ValueError("unknown tag %r" % (tag,))
        want = {"Trivial": 0, "Z2": 1, "Z2starZ2": 2, "Z": 1}[tag]
        if len(generators) != want:
            raise ValueError(
                "tag %s needs %d generators, got %d" % (tag, want, len(generators))
            )
        return super().__new__(cls, tag, generators)


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

    Solves x^2 - r*y^2 = 4k and keeps the first solution with x ≡ b*y
    (mod 4); sign variants of each Pell representative are tried because the
    congruence is not sign-symmetric. No sign normalization is applied (both
    signs of a class answer the existence question). The zero class only
    counts when nonzero is False.
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
    reps = pell.solution_class_reps(r, 4 * k)
    for x, y in reps:
        for sx, sy in ((x, y), (-x, -y), (x, -y), (-x, y)):
            D = _congruent_class(L.b, sx, sy)
            if D is not None:
                return D
    return None


def find_curve_class(L: QuarticLattice, target: tuple[int, int]) -> Vec | None:
    """A class D with genus_degree(L, D) == target, or None.

    Tries the two closed-form candidates ((b±d)/4, ∓1) first, then a bounded
    search over |y| <= 16.
    """
    g, d = target
    want_sq = 2 * g - 2

    def check(D: Vec) -> bool:
        return L.dot(H, D) == d and L.dot(D, D) == want_sq

    b = L.b
    if (b + d) % 4 == 0:
        D = ((b + d) // 4, -1)
        if check(D):
            return D
    if (b - d) % 4 == 0:
        D = ((b - d) // 4, 1)
        if check(D):
            return D
    for ay in range(17):
        for y in ((0,) if ay == 0 else (-ay, ay)):
            if (d - b * y) % 4:
                continue
            D = ((d - b * y) // 4, y)
            if check(D):
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
    classes with square -2 (for square r, the full finite list, one sign)."""
    r = L.r
    if pell.is_square(r):
        walls = []
        for x, y in pell.solution_class_reps(r, -8):
            D = _congruent_class(L.b, x, y)
            if D is None:
                continue
            D = _normalize_effective(L, D)
            if D not in walls:
                walls.append(D)
        return walls
    out = []
    for x, y in pell.solution_class_reps(r, -8):
        D = _congruent_class(L.b, x, y)
        if D is not None:
            out.append(D)
    return out


def _scan_wall_orbit(L: QuarticLattice, A: Vec, gamma: Vec, auts: tuple[Mat, Mat] | None) -> Vec | None:
    """First wall in the orbit of gamma that A fails to pair positively with,
    returned with its effective sign; None when the whole orbit is clear.

    Along the orbit, a_j = (T^j gamma).H and p_j = A.(T^j gamma) both satisfy
    the two-term recurrence x_{j+1} = 2t*x_j - x_{j-1} with 2t >= 4, so once
    two consecutive terms of each share a sign and grow in magnitude the
    direction diverges and stays clear; that is the stopping rule.
    """

    def verdict(g: Vec) -> tuple[bool, int, int]:
        a = L.dot(H, g)
        p = L.dot(A, g)
        assert a != 0, "a (-2)-class orthogonal to H cannot occur here"
        s = 1 if a > 0 else -1
        return s * p <= 0, a, p

    bad, a0, p0 = verdict(gamma)
    if bad:
        s = 1 if a0 > 0 else -1
        return (s * gamma[0], s * gamma[1])
    if auts is None:
        return None
    for M in auts:
        prev_a, prev_p = a0, p0
        g = mat_vec(M, gamma)
        while True:
            bad, a, p = verdict(g)
            if bad:
                s = 1 if a > 0 else -1
                return (s * g[0], s * g[1])
            if (
                a * prev_a > 0
                and abs(a) >= abs(prev_a)
                and p * prev_p > 0
                and abs(p) >= abs(prev_p)
            ):
                break
            prev_a, prev_p = a, p
            g = mat_vec(M, g)
    return None


def _violating_wall(L: QuarticLattice, A: Vec) -> Vec | None:
    orbits = neg2_wall_orbits(L)
    if not orbits:
        return None
    auts = None
    if not pell.is_square(L.r):
        T = automorph(L)
        auts = (T, mat_inv_unimodular(T))
    for gamma in orbits:
        w = _scan_wall_orbit(L, A, gamma, auts)
        if w is not None:
            return w
    return None


def is_ample(L: QuarticLattice, A: Vec) -> bool:
    """Exact ampleness: A.H > 0, A^2 > 0, and A pairs strictly positively
    with every effective (-2)-class."""
    if L.dot(H, A) <= 0 or L.dot(A, A) <= 0:
        return False
    return _violating_wall(L, A) is None


def _ample_representative(L: QuarticLattice, A: Vec) -> Vec:
    """Reflect a square-2 class across violated walls until it is ample.

    Each reflection strictly decreases A.H while the Weyl group preserves the
    half-cone of H, so the loop terminates; a square-2 class cannot lie on a
    wall (that would force discriminant 1 or 4), so progress is guaranteed.
    """
    if L.dot(H, A) < 0:
        A = (-A[0], -A[1])
    while True:
        w = _violating_wall(L, A)
        if w is None:
            return A
        p = L.dot(A, w)
        assert p < 0, "square-2 class on a wall; discriminant should forbid this"
        A = (A[0] + p * w[0], A[1] + p * w[1])


def ample_square2_axes(L: QuarticLattice) -> list[Vec]:
    """The distinguished ample square-2 classes, sorted by the Pell key
    (|y|, y, A.H). Empty when no congruent square-2 class exists.

    With effective (-2)-classes present the ample chamber is cut out by
    walls and contains at most one square-2 class; every congruent Pell
    orbit reflects into it, so walking any representative finds it. With
    no walls every positive square-2 class is ample and they form chains
    on which the degree A.H is unimodal; the generators of the reflection
    group are the two classes of minimal degree, one on each side of H
    (y < 0 and y > 0 after normalizing A.H > 0).
    """
    r = L.r
    if pell.is_square(r):
        return []

    def key(A: Vec):
        return (abs(A[1]), A[1], L.dot(H, A))

    congruent_reps = []
    for x, y in pell.solution_class_reps(r, 8):
        if (x - L.b * y) % 4 == 0 or (-x + L.b * y) % 4 == 0:
            congruent_reps.append((x, y))
    if not congruent_reps:
        return []
    if neg2_wall_orbits(L):
        axes: list[Vec] = []
        for x, y in congruent_reps:
            D = _congruent_class(L.b, x, y)
            assert D is not None
            A = _ample_representative(L, D)
            if A not in axes:
                axes.append(A)
        return sorted(axes, key=key)
    t, u = pell.fundamental_solution(r)

    def step(v: Vec) -> Vec:
        return (t * v[0] + r * u * v[1], u * v[0] + t * v[1])

    def back(v: Vec) -> Vec:
        return (t * v[0] - r * u * v[1], -u * v[0] + t * v[1])

    best: dict[int, tuple[int, Vec]] = {}

    def offer(v: Vec):
        n = v if v[0] > 0 else (-v[0], -v[1])
        side = 1 if n[1] > 0 else -1
        D = _congruent_class(L.b, n[0], n[1])
        assert D is not None, "congruence must hold along the whole orbit"
        cand = (n[0], D)
        if side not in best or cand < best[side]:
            best[side] = cand
    for rep in congruent_reps:
        offer(rep)
        for move, stop_side in ((step, 1), (back, -1)):
            prev, cur = rep, move(rep)
            while True:
                offer(cur)
                n = cur if cur[0] > 0 else (-cur[0], -cur[1])
                side = 1 if n[1] > 0 else -1
                # |x| is unimodal along the chain and the side flips once,
                # so past the flip with |x| nondecreasing nothing better comes
                if side == stop_side and abs(cur[0]) >= abs(prev[0]):
                    break
                prev, cur = cur, move(cur)
    if len(best) != 2:
        raise RuntimeError("expected minimal ample classes on both sides of H")
    return sorted((d for _, d in best.values()), key=key)


def classify_aut(L: QuarticLattice) -> AutKind:
    """Four-way classification of the automorphism group of a general quartic
    with this Picard lattice, with generators acting on (H, W) coordinates.

    P1: some nonzero class has square 0 or -2 (the surface carries elliptic
    or rational curves). P2: some ample class has square 2.
    P1 and not P2 -> Trivial; P1 and P2 -> Z2; not P1 and P2 -> Z2starZ2
    (two involutions, free product); neither -> Z.
    """
    p1 = (
        class_with_square_exists(L, 0, nonzero=True) is not None
        or class_with_square_exists(L, -2) is not None
    )
    axes = ample_square2_axes(L)
    p2 = bool(axes)
    if p1:
        tag = "Z2" if p2 else "Trivial"
    else:
        tag = "Z2starZ2" if p2 else "Z"
    from . import isometry

    gens = isometry.generators_for(L, tag, axes)
    return AutKind(tag, tuple(gens))

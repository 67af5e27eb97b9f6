"""Rank-2 Picard lattices of smooth quartic surfaces.

The lattice is spanned by the hyperplane class H (H^2 = 4) and one more
class, so the Gram matrix is ((4, b), (b, 2c)) and the discriminant is
r = b^2 - 8c. Everything downstream keys off r:

* classes D with D^2 = k correspond to solutions of x^2 - r*y^2 = 4k
  satisfying x ≡ b*y (mod 4), via D = ((x - b*y)/4, y) in the (H, W) basis
  (class_with_square_exists). The classes of square -2 and 2, which decide
  walls and axes, come instead off one cycle of reduced forms of
  f = 2x^2 + bxy + cy^2 = D^2/2, or in closed form for square r (_classes);
* effective (-2)-classes cut the positive cone into chambers, and the
  chamber containing H is the ample cone. In rank 2 the projectivized
  positive cone is a hyperbolic line, so that chamber is an interval bounded
  by at most two walls, one on each side of H; the distance from H to the
  wall of delta grows with H.delta, so on each side the wall of least degree
  is the nearest one. It is read at each orbit's class on the cycle or at
  that class's neighbour in its orbit (_chamber_walls);
* an ample square-2 class A is read off the two walls delta1, delta2: the
  reflection x -> (A.x)A - x fixes A, so it maps the chamber to itself and
  swaps the walls, giving (A.delta1)A = delta1 + delta2 with
  n = A.delta1 >= 1 and n^2 = delta1.delta2 - 2 (ample_square2_axes);
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
from .exclusion import FORBIDDEN_DISCS
from .lattice import GramLattice, Mat, Vec

H: Vec = (1, 0)

# classify_aut's tags, each with its number of generators
AUT_GENERATOR_COUNTS = {"Trivial": 0, "Z2": 1, "Z2starZ2": 2, "Z": 1}

# r mod 8 -> smallest b >= 0 with b^2 ≡ r (mod 8); other residues have none
_CANONICAL_B = {0: 0, 1: 1, 4: 2}


def canonical_bc(r: int) -> tuple[int, int]:
    """Smallest b >= 0 with b^2 ≡ r (mod 8), and the matching c."""
    if r <= 0:
        raise ValueError("discriminant must be positive")
    b = _CANONICAL_B.get(r % 8)
    if b is None:
        raise ValueError(
            "no even lattice with a square-4 vector has discriminant %d" % r
        )
    return b, (b * b - r) // 8


# Models in which W itself is an irreducible curve of genus g and degree d
# from the link catalog, one per discriminant that carries one: H.W = d and
# W^2 = 2g - 2, so (b, c) = (d, g - 1) and r = d^2 - 8(g - 1). Of the two
# catalog curves on r = 20, (11, 10) and (3, 6), the model uses (11, 10).
# The printed generator matrices live in these coordinates.
CURVE_MODELS: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    d * d - 8 * (g - 1): ((d, g - 1), (g, d))
    for g, d in ((14, 11), (11, 10), (10, 10), (5, 8), (4, 8), (6, 9), (3, 8), (2, 8))
}


class QuarticLattice(NamedTuple("QuarticLattice", [("b", int), ("c", int)])):
    """Picard lattice ZH + ZW with H^2 = 4, H.W = b, W^2 = 2c. dot pairs
    on the two integers, u.v = 4*u0*v0 + b*(u0*v1 + u1*v0) + 2c*u1*v1;
    base is the Gram view for link frames and the public lattice API."""

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
        return 4 * u[0] * v[0] + self.b * (u[0] * v[1] + u[1] * v[0]) + 2 * self.c * u[1] * v[1]


def curve_model(r: int) -> tuple[QuarticLattice, tuple[int, int]]:
    """The curve-bearing model of discriminant r and its (genus, degree).

    KeyError for the ten discriminants without a catalog curve.
    """
    (b, c), gd = CURVE_MODELS[r]
    return QuarticLattice(b, c), gd


class AutKind(NamedTuple("AutKind", [("tag", str), ("generators", tuple[Mat, ...]),
                                     ("obstruction", Vec | None),
                                     ("axes", tuple[Vec, ...])])):
    """Result of classify_aut: a tag of AUT_GENERATOR_COUNTS with that many
    generator matrices (checked on construction), and the witnesses that
    decide the tag: obstruction, a nonzero class of square 0 (square r) or
    the first chamber wall, an effective class of square -2 (None when there
    is neither), and axes, the ample square-2 classes A in the order
    (|y|, y, A.H) (the reflection axes for Z2 and Z2starZ2)."""

    __slots__ = ()

    def __new__(cls, tag: str, generators: tuple[Mat, ...] = (),
                obstruction: Vec | None = None, axes: tuple[Vec, ...] = ()) -> "AutKind":
        want = AUT_GENERATOR_COUNTS.get(tag)
        if want is None:
            raise ValueError("unknown tag %r" % (tag,))
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


def _normalize_effective(b: int, D: Vec) -> Vec:
    """Flip sign so D.H = 4*D[0] + b*D[1] > 0, breaking a D.H = 0 tie
    lexicographically."""
    d = 4 * D[0] + b * D[1]
    if d < 0 or (d == 0 and D < (-D[0], -D[1])):
        return (-D[0], -D[1])
    return D


def _classes_of_square(L: QuarticLattice, k: int) -> list[Vec]:
    """The classes of square k != 0 read off pell.solution_class_reps(r, 4k):
    each solution with x ≡ b*y (mod 4) gives D = ((x - b*y)/4, y). They
    cover every automorph-and-sign orbit (for square r, every class), since
    the automorph and negation preserve the congruence."""
    return [D for x, y in pell.solution_class_reps(L.r, 4 * k)
            if (D := _congruent_class(L.b, x, y)) is not None]


def class_with_square_exists(L: QuarticLattice, k: int) -> Vec | None:
    """A nonzero class D with D^2 = k, or None; the zero class never counts.

    For k != 0 the first of _classes_of_square, with no sign normalization
    (both signs of a class answer the existence question). A square-0 class
    needs r = t^2 and x = s*y with s = ±t, giving D = ((s - b)*y/4, y).
    Already y = 1 is integral for one s: t^2 = b^2 - 8c makes t - b and
    t + b both even with product divisible by 8, so 4 divides one of them
    (both when t is even). +t is tried first.
    """
    if k % 2:
        raise ValueError("an even lattice has no class of odd square")
    r = L.r
    if k == 0:
        if not pell.is_square(r):
            return None
        t = isqrt(r)
        return _congruent_class(L.b, t, 1) or _congruent_class(L.b, -t, 1)
    classes = _classes_of_square(L, k)
    return classes[0] if classes else None


def _index(r: int, d: int, sq: int) -> int | None:
    """|y| of a class D with H.D = d and D^2 = sq, fixed by
    (H.D)^2 - H^2 D^2 = r*y^2; None when that has no integer solution."""
    y2, rem = divmod(d * d - 4 * sq, r)
    if rem or y2 < 0 or not pell.is_square(y2):
        return None
    return isqrt(y2)


def find_curve_class(L: QuarticLattice, target: tuple[int, int]) -> Vec | None:
    """A class D with genus_degree(L, D) == target, or None.

    None when d < 1 or g < 0, without a search: genus_degree refuses every
    class of degree <= 0 or of square 2g - 2 < -2, so no curve has such a
    target, though H.D = d, D^2 = 2g - 2 may solve (by the zero class for
    (1, 0)).
    Exact: _index fixes |y|, and H.D = d fixes D = ((d - b*y)/4, y). The
    first of y = -|y|, +|y| meeting the mod-4 congruence is returned, and
    one of them always does: d^2 - r*y^2 = 4*D^2 with D^2 even and
    r = b^2 - 8c gives d^2 ≡ (b*y)^2 (mod 8), so d - b*y and d + b*y are
    even and one of them is divisible by 4, i.e. d ≡ ±b*y (mod 4).
    """
    g, d = target
    if d < 1 or g < 0:
        return None
    y = _index(L.r, d, 2 * (g - 1))
    if y is None:
        return None
    return _congruent_class(L.b, d, -y) or _congruent_class(L.b, d, y)


def forbidden_small_disc(b: int, c: int) -> tuple[Vec, tuple[int, int]]:
    """For r = b^2 - 8c in FORBIDDEN_DISCS: a witness class E together with
    its profile (E^2, H.E) = FORBIDDEN_DISCS[r], one of (0,1), (0,2), (-2,0).
    Any of those profiles contradicts very ampleness of a degree-4
    polarization. (H.E)^2 - 4E^2 = r*y^2 reads 1 = 1*y^2, 4 = 4*y^2 and
    8 = 8*y^2, so y = ±1, and one sign meets the mod-4 congruence (the
    argument of find_curve_class); +1 is tried first."""
    r = b * b - 8 * c
    if r not in FORBIDDEN_DISCS:
        raise ValueError("only discriminants 1, 4, 8 are excluded this way")
    sq, deg = FORBIDDEN_DISCS[r]
    E = _congruent_class(b, deg, 1) or _congruent_class(b, deg, -1)
    return _normalize_effective(b, E), (sq, deg)


def automorph(L: QuarticLattice) -> Mat:
    """The class-vector action T of the fundamental solution (t, u) of
    x^2 - r*y^2 = 1, an isometry of determinant 1.

    The isometries of determinant 1 are ±A^j, A the automorph that
    _reduced_cycle reads off one cycle, and T = ±A^j for some j >= 1. T
    need not generate them: j is 2, 3 or 4 on 491 of the 1925 nonsquare
    models with -8 <= b <= 8 and r <= 1000. On QuarticLattice(2, -1), r = 12,
    A = ((-1, -1), (-2, -3)) and T = A^2 = ((3, 4), (8, 11)).
    """
    t, u = pell.fundamental_solution(L.r)
    return ((t - L.b * u, -2 * L.c * u), (4 * u, t + L.b * u))


def _reduced_cycle(L: QuarticLattice) -> tuple[list[Vec], list[Vec], Mat]:
    """For nonsquare r: the classes of square -2, the classes of square 2,
    each one per orbit under ±A, and A, read off one cycle of reduced forms
    of f = 2x^2 + bxy + cy^2, which is D^2/2 at D = (x, y).

    A form [g1, g2, g3] = g1*x^2 + g2*xy + g3*y^2 is reduced when
    |sqrt(r) - 2|g1|| < g2 < sqrt(r), and g = f∘M (M of determinant 1)
    has leading coefficient g1 = f(M*(1, 0)). W -> W + kH moves b into
    (sqrt(r) - 4, sqrt(r)), where [2, b, c] is reduced (for r > 16 since
    sqrt(r) - 4 < b; r = 12, the one smaller nonsquare discriminant, gets
    b = 2), so the cycle starts at M_red = ((1, k), (0, 1)), whose first
    column is H. Each Gauss rho step
    [a, b, c] -> [c, b', (b'^2 - r)/4c], with b' ≡ -b (mod 2|c|) in
    (sqrt(r) - 2|c|, sqrt(r)), multiplies M by ((0, -1), (1, s)),
    s = (b + b')/2c, and the walk stops when the first form comes back, at
    M_end; A = M_end*M_red^-1 is f's proper automorph that generates the
    isometries of determinant 1 up to sign (Buchmann and Vollmer, *Binary
    Quadratic Forms*, ch. 6). By Lagrange's bound every form equivalent to
    f whose leading coefficient m has |m| < sqrt(r)/2 is reduced after a
    translation, so it is on the cycle; as r >= 9, the M*(1, 0) with
    f = -1 and f = 1 are one class of square -2 and 2 per ±A-orbit.

    In PQa terms the form [a, b, c] before a step is the state
    (P, Q) = (b, 2|c|) of pell._pqa(b0, (r - b0^2)/4, r), and c alternates
    in sign from c0 < 0: step i has s_i = (-1)^i*a_i and gives the leading
    coefficient (-1)^i*Q_{i-1}/2, a class exactly when Q_{i-1} = 2, that is
    when 2*a_i > sd = floor(sqrt(r)). Every state (P, Q) on the cycle is
    reduced, so sd - Q < P <= sd with Q even: Q = 2 gives a >= sd - 1 > sd/2
    (sd >= 3 for nonsquare r >= 12), and Q >= 4 gives 2*a < sd + 1/2. The
    quotients of one period are replayed twice when the period is odd,
    since only then does the sign of c come back. Q = 2|c| is never ±1, so
    _pqa walks one full period; it holds the cap pell._PQA_CAP and its
    refusal, and this replay takes no step of its own.
    """
    sd = isqrt(r := L.r)
    b0 = sd - (sd - L.b) % 4
    k = (b0 - L.b) // 4
    quotients, _ = pell._pqa(b0, (r - b0 * b0) // 4, r)
    if len(quotients) % 2:
        quotients *= 2
    (m11, m12), (m21, m22) = (1, k), (0, 1)
    found: dict[int, list[Vec]] = {-1: [], 1: []}
    sign = -1
    for a in quotients:
        s = sign * a
        m11, m12, m21, m22 = m12, s * m12 - m11, m22, s * m22 - m21
        if 2 * a > sd:
            found[sign].append((m11, m21))
        sign = -sign
    return found[-1], found[1], ((m11, m12 - k * m11), (m21, m22 - k * m21))


def _classes(L: QuarticLattice) -> tuple[list[Vec], list[Vec], Mat | None]:
    """The classes of square -2 and 2 that decide walls and axes, and the
    automorph A between neighbours in their orbits: _reduced_cycle(L) on
    nonsquare r. Square r = t^2 has no A, no class of square 2
    (ample_square2_axes), and classes D of square -2 only for r = 9:
    (X - ty)(X + ty) = -8 with X = D.H has even factors (they differ by
    2ty), ±2 and ∓4, so X = ±1 and ty = ±3 with t >= 3 (1 and 4 are
    forbidden), and y = ±1 with X ≡ b*y (mod 4)."""
    r = L.r
    if pell.is_square(r):
        return [D for X in (1, -1) for y in (1, -1)
                if r == 9 and (D := _congruent_class(L.b, X, y))], [], None
    return _reduced_cycle(L)


def _least_degree_each_side(L: QuarticLattice, starts: list[Vec],
                            A: Mat | None) -> list[Vec]:
    """Of the classes of square k = ±2 reached from starts, normalized
    effective, the least in degree D.H with y <= 0 and with y' > 0, in the
    order (|y|, y, D.H), which puts y first iff y + y' >= 0. Square r: the
    starts are the whole finite set, A is None. Nonsquare r: _reduced_cycle's
    classes and automorph A; det A = 1, so A^-1 = ((a22, -a12), (-a21, a11)).
    Along an orbit y changes sign once, at H, and D.H = x grows with |y| on
    each side (x^2 = 4k + r*y^2), so a side's least degree is at the orbit's
    class nearest H. A class v = alpha*e + beta*e' (e, e' isotropic), or its
    wall if v^2 < 0, sits at log|alpha/beta| on the positive cone's line, A
    scales alpha and beta by inverse factors, and the cycle's first columns,
    convergents of a root of f (|beta| falls, |alpha| grows: Legendre), run
    from H to A*H. So each start D is its orbit's nearest class past H
    towards A*H, and A^-1*D the nearest on the other side."""
    if A is not None:
        (a11, a12), (a21, a22) = A
        starts = starts + [(a22 * x - a12 * y, a11 * y - a21 * x) for x, y in starts]
    b, lo, hi = L.b, None, None
    for x, y in starts:
        if (d := 4 * x + b * y) < 0 or (d == 0 and (x, y) < (-x, -y)):
            x, y, d = -x, -y, -d
        if y > 0:
            if hi is None or (d, x, y) < hi:
                hi = d, x, y
        elif lo is None or (d, x, y) < lo:
            lo = d, x, y
    least = [D[1:] for D in (lo, hi) if D]
    return least[::-1] if lo and hi and lo[2] + hi[2] < 0 else least


def _chamber_walls(L: QuarticLattice) -> list[Vec]:
    """The effective (-2)-classes whose walls bound the ample chamber: the
    nearest wall on each side of H, i.e. the least degree on each side."""
    neg2, _, A = _classes(L)
    return _least_degree_each_side(L, neg2, A)


def is_ample(L: QuarticLattice, A: Vec) -> bool:
    """Exact ampleness: A.H > 0, A^2 > 0, and A pairs strictly positively
    with every effective (-2)-class, i.e. with both chamber walls."""
    return (
        L.dot(H, A) > 0
        and L.dot(A, A) > 0
        and all(L.dot(A, w) > 0 for w in _chamber_walls(L))
    )


def ample_square2_axes(L: QuarticLattice) -> list[Vec]:
    """The distinguished ample square-2 classes, in the order (|y|, y, A.H).

    With no walls every positive square-2 class is ample, and the generators
    of the reflection group are the two classes of least degree, one on each
    side of H (y < 0 and y > 0 after normalizing A.H > 0).

    With two walls delta1, delta2 (distinct irreducible curves spanning a
    hyperbolic plane, so delta1.delta2 >= 3) there is at most one axis A. The
    reflection x -> (A.x)A - x fixes A, so it maps the chamber to itself and
    swaps the walls (both delta1 and its image pair positively with A). Hence
    (A.delta1)A = delta1 + delta2 with n = A.delta1 >= 1 and
    n^2 = delta1.delta2 - 2; conversely, when that n is an integer dividing
    delta1 + delta2, (delta1 + delta2)/n has square 2, pairs n with each
    wall and is ample. A single wall occurs only on square r = t^2, which
    has no square-2 class: x^2 - t^2*y^2 = 8 needs x - ty and x + ty even
    with product 8, so 2ty = ±2, and t >= 3 as 1 and 4 are forbidden.
    """
    neg2, pos2, A = _classes(L)
    return _axes(L, _least_degree_each_side(L, neg2, A), pos2, A)


def _axes(L: QuarticLattice, walls: list[Vec], pos2: list[Vec],
          A: Mat | None) -> list[Vec]:
    """ample_square2_axes(L), given _classes(L) = (neg2, pos2, A) and the
    chamber walls read off neg2."""
    if not walls:
        return _least_degree_each_side(L, pos2, A)
    if len(walls) == 1:
        return []
    d1, d2 = walls
    s, m = (d1[0] + d2[0], d1[1] + d2[1]), L.dot(d1, d2) - 2
    if (n := isqrt(m)) * n != m or s[0] % n or s[1] % n:
        return []
    return [(s[0] // n, s[1] // n)]


def classify_aut(L: QuarticLattice) -> AutKind:
    """Four-way classification of the automorphism group of a general quartic
    with this Picard lattice, with generators acting on (H, W) coordinates.

    P1: some nonzero class has square 0 or -2 (the surface carries elliptic
    or rational curves). P2: some ample class has square 2.
    P1 and not P2 -> Trivial; P1 and P2 -> Z2; not P1 and P2 -> Z2starZ2
    (two involutions, free product); neither -> Z. The witnesses of P1 and
    P2 come back as the record's obstruction and axes. The classes of square
    -2 and 2 are read once and give the chamber walls, the axes and, on
    nonsquare r, the obstruction: a (-2)-class exists exactly when a wall
    does, and the first wall is one.
    """
    neg2, pos2, A = _classes(L)
    walls = _least_degree_each_side(L, neg2, A)
    obstruction = class_with_square_exists(L, 0)
    if obstruction is None and walls:
        obstruction = walls[0]
    axes = _axes(L, walls, pos2, A)
    if obstruction:
        tag = "Z2" if axes else "Trivial"
    else:
        tag = "Z2starZ2" if axes else "Z"
    from . import isometry

    gens = isometry.generators_for(L, tag, axes)
    return AutKind(tag, tuple(gens), obstruction, tuple(axes))

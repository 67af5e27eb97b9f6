"""Two proofs by exhaustion.

First, the discriminant bound: every curve class on a quartic with rank-2
Picard lattice forces the lattice discriminant to divide one of the 34
curve-side discriminants d^2 - 8(g-1), all at most 57; listing them shows
52 is the only candidate below the bound that never occurs.

Second, the anti-flip system: scanning every configuration (p_a, d, b, c,
gamma, delta) within the proof's bounds and solving the attached integer
system shows (p_a, d) = (15, 11) is the only curve data admitting a
solution, and the solution is the class of a line meeting the curve.

Genericity side conditions on the curves (general position, finite orbit
counts) are assumed throughout, not checked.
"""
from __future__ import annotations

from math import isqrt
from typing import NamedTuple

CURVE_PAIRS = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
    (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 6), (3, 7), (3, 8),
    (4, 6), (4, 7), (4, 8),
    (5, 7), (5, 8),
    (6, 8), (6, 9),
    (7, 8), (7, 9),
    (8, 9), (9, 9), (10, 9),
    (10, 10), (11, 10), (14, 11),
)

MODEL_PAIRS = frozenset({
    (2, 8), (3, 6), (3, 8), (4, 8), (5, 8),
    (6, 9), (10, 10), (11, 10), (14, 11),
})

DISC_BOUND = 57

_DEGREE_CAP = 16
_FORBIDDEN_DISCS = frozenset({1, 4, 8})


class CurveList(NamedTuple("CurveList", [
    ("pairs", tuple[tuple[int, int], ...]), ("model_pairs", frozenset[tuple[int, int]]),
])):
    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...],
                model_pairs: frozenset[tuple[int, int]]) -> CurveList:
        from .surface import realizable_gd

        if len(pairs) != 34:
            raise ValueError("expected the 34 classified (g, d) pairs")
        for g, d in pairs:
            if d > 11 or not realizable_gd(g, d):
                raise ValueError(f"pair {(g, d)} is outside the classification")
        if not model_pairs <= set(pairs):
            raise ValueError("model pairs must be classified pairs")
        return super().__new__(cls, pairs, model_pairs)


class ExclusionReport(NamedTuple):
    rprimes: tuple[int, ...]
    admissible: frozenset[int]
    excluded_leq57: frozenset[int]
    bound: int

    def to_json(self) -> dict:
        return {
            "rprimes": list(self.rprimes),
            "admissible": sorted(self.admissible),
            "excluded_leq57": sorted(self.excluded_leq57),
            "bound": self.bound,
        }


class AntiflipSolution(NamedTuple):
    """One solved configuration: the class alpha*H + beta*W on the lattice
    (b, c), glued to the curve frame by C = delta*H + gamma*W."""

    pa: int
    d: int
    b: int
    c: int
    gamma: int
    delta: int
    alpha: int
    beta: int

    def frame_class(self) -> tuple[int, int] | None:
        """The class rewritten as x*H + y*C when that has integer
        coordinates (W = (C - delta*H) / gamma)."""
        if self.beta % self.gamma:
            return None
        num = self.alpha * self.gamma - self.beta * self.delta
        if num % self.gamma:
            return None
        return (num // self.gamma, self.beta // self.gamma)


class AntiflipReport(NamedTuple):
    solvable: frozenset[tuple[int, int]]
    configurations: int
    witnesses: tuple[AntiflipSolution, ...]


def curve_list() -> CurveList:
    return CurveList(CURVE_PAIRS, MODEL_PAIRS)


def rprime_list() -> list[int]:
    """Curve-side discriminants d^2 - 8(g-1) in the order of CURVE_PAIRS."""
    return [d * d - 8 * (g - 1) for g, d in CURVE_PAIRS]


def admissible_discriminants() -> ExclusionReport:
    rprimes = tuple(rprime_list())
    admissible = set()
    excluded = set()
    for r in range(9, DISC_BOUND + 1):
        if r % 8 not in (0, 1, 4):
            continue
        if any(rp % r == 0 for rp in rprimes):
            admissible.add(r)
        else:
            excluded.add(r)
    return ExclusionReport(rprimes, frozenset(admissible), frozenset(excluded), DISC_BOUND)


def _integer_roots(a2: int, a1: int, a0: int) -> list[int]:
    """Integer roots of a2*x^2 + a1*x + a0 = 0 (a0 nonzero here, so no
    spurious x = 0 roots; degenerate leading coefficients handled exactly)."""
    if a2 == 0:
        if a1 == 0:
            return []
        return [-a0 // a1] if a0 % a1 == 0 else []
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    roots = []
    for sign in ((s, -s) if s else (0,)):
        num = -a1 + sign
        if num % (2 * a2) == 0:
            roots.append(num // (2 * a2))
    return roots


def _cells() -> list[tuple[int, int]]:
    return [(pa, d) for d in range(1, _DEGREE_CAP) for pa in range(d * d // 8 + 1)]


def _cell_solutions(pa: int, d: int) -> tuple[int, list[AntiflipSolution]]:
    """(configurations scanned, integer solutions) of the anti-flip system for (p_a, d).

    A cell has 0 <= 8*p_a <= d^2 and d < _DEGREE_CAP, so its curve
    discriminant rp = d^2 - 8(p_a - 1) lies in [8, (_DEGREE_CAP - 1)^2 + 8],
    that is rp <= 233. gamma^2 divides rp, so |gamma| <= sqrt(rp) <= 15.
    With r = rp / gamma^2 = b^2 - 8c, the term (rp - gamma^2 * b^2) / (4*gamma)
    of k is exactly -2c * gamma.
    Each root has square -2: times e^2, that condition is the quadratic.
    With e = 16 - d, k = (b*e + gamma*r)/4, so the quadratic's coefficients
    are r(rp - e^2)/4, 2*gamma*r and 4 + 2e^2: they do not depend on b.
    So each (cell, gamma) collects its admissible b (b^2 = r mod 8 and
    b*gamma = d mod 4) and solves the quadratic once; the per-b alpha/beta
    checks run only when it has integer roots, which few (cell, gamma) do."""
    rp = d * d - 8 * (pa - 1)
    e = 16 - d
    configurations, found = 0, []
    g = isqrt(rp)
    for gamma in range(-g, g + 1):
        if gamma == 0 or rp % (gamma * gamma):
            continue
        r = rp // (gamma * gamma)
        if r in _FORBIDDEN_DISCS:
            continue
        bs = [b for b in range(1, 16) if not (b * b - r) % 8 and not (d - b * gamma) % 4]
        configurations += len(bs)
        roots = _integer_roots(r * (rp - e * e) // 4, 2 * gamma * r, 4 + 2 * e * e) if bs else []
        if not roots:
            continue
        for b in bs:
            c = (b * b - r) // 8
            delta = (d - b * gamma) // 4
            k = b * (4 - delta) - 2 * c * gamma
            for beta in roots:
                if (1 + k * beta) % e:
                    continue
                alpha = -(1 + k * beta) // e
                if 4 * alpha + b * beta <= 0:
                    continue
                found.append(AntiflipSolution(pa, d, b, c, gamma, delta, alpha, beta))
    return configurations, found


def antiflip_report() -> AntiflipReport:
    configurations = 0
    solvable = set()
    witnesses = []
    for pa, d in _cells():
        n, sols = _cell_solutions(pa, d)
        configurations += n
        if sols:
            solvable.add((pa, d))
            witnesses.extend(sols)
    return AntiflipReport(frozenset(solvable), configurations, tuple(witnesses))


def antiflip_exhaustion() -> set[tuple[int, int]]:
    return set(antiflip_report().solvable)

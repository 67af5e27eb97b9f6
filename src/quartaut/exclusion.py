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
_CONFIG_CAP = 233
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
    out = []
    for d in range(1, _DEGREE_CAP):
        for pa in range(0, d * d // 8 + 1):
            if 8 * pa <= d * d:
                out.append((pa, d))
    return out


def _cell_solutions(pa: int, d: int, counter: list[int] | None = None) -> list[AntiflipSolution]:
    """All integer solutions of the anti-flip system for one (p_a, d)."""
    rp = d * d - 8 * (pa - 1)
    if not 0 < rp <= _CONFIG_CAP:
        raise RuntimeError(f"curve discriminant {rp} escapes the derived bound")
    found = []
    for gamma in range(-15, 16):
        if gamma == 0:
            continue
        gsq = gamma * gamma
        if gsq > _CONFIG_CAP:
            raise RuntimeError(f"gamma^2 = {gsq} escapes the derived bound")
        if rp % gsq:
            continue
        r = rp // gsq
        if r in _FORBIDDEN_DISCS:
            continue
        for b in range(1, 16):
            if (b * b - r) % 8:
                continue
            c = (b * b - r) // 8
            if (d - b * gamma) % 4:
                continue
            delta = (d - b * gamma) // 4
            num = rp - gsq * b * b
            if num % (4 * gamma):
                continue
            k = b * (4 - delta) + num // (4 * gamma)
            e = 16 - d
            if counter is not None:
                counter[0] += 1
            a2 = 4 * k * k - 2 * b * k * e + 2 * c * e * e
            a1 = 8 * k - 2 * b * e
            a0 = 4 + 2 * e * e
            for beta in _integer_roots(a2, a1, a0):
                if (1 + k * beta) % e:
                    continue
                alpha = -(1 + k * beta) // e
                if 4 * alpha + b * beta <= 0:
                    continue
                if 4 * alpha * alpha + 2 * b * alpha * beta + 2 * c * beta * beta != -2:
                    continue
                found.append(AntiflipSolution(pa, d, b, c, gamma, delta, alpha, beta))
    return found


def antiflip_report() -> AntiflipReport:
    counter = [0]
    solvable = set()
    witnesses = []
    for pa, d in _cells():
        sols = _cell_solutions(pa, d, counter)
        if sols:
            solvable.add((pa, d))
            witnesses.extend(sols)
    return AntiflipReport(frozenset(solvable), counter[0], tuple(witnesses))


def antiflip_exhaustion() -> set[tuple[int, int]]:
    return set(antiflip_report().solvable)

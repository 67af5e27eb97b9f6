"""Sarkisov links from curve blowups and words realizing lattice isometries.

Each catalog row records a birational self-link of P3 (or a link to the
quintic del Pezzo threefold X5) initiated by blowing up a smooth curve of
genus g and degree d lying on a quartic surface. Its action on the rank-2
frame {H, C} of the surface is the matrix ((a, (ac-1)/b), (-b, -c)). A
P3 self-link acts as the reflection in 4H - C, so its (a, b, c) is derived
from (g, d); only the X5 row, whose matrix has trace 6, is data.

Words chain links with changes of curve basis B = ((1, x), (0, eps)),
eps = ±1, which fix H, between steps; the composite is the product of the
conjugated step matrices in step order. realize_generator searches words of
length at most two, built from catalog rows and the X5 row run backwards,
whose composite equals a given generator matrix; each step's B must turn
the current frame into the Gram of its row's source frame.
"""
from __future__ import annotations

from typing import NamedTuple

from . import surface as surf
from .lattice import (GramLattice, IDENTITY, Mat, change_basis, mat_inv_unimodular, mat_mul,
                      reflection_in)

_AMBIENT_SQUARE = {"P3": 4, "X5": 10}


class LinkRecord(NamedTuple("LinkRecord", [
    ("gd", tuple[int, int]), ("target", str), ("gd_plus", tuple[int, int]),
    ("a", int), ("b", int), ("c", int), ("source", str),
])):
    """One catalog row: blow up a (g, d)-curve, land in `target` where the
    flopped curve has data gd_plus; (a, b, c) define the frame matrix."""

    __slots__ = ()

    def __new__(cls, gd: tuple[int, int], target: str, gd_plus: tuple[int, int],
                a: int, b: int, c: int, source: str = "P3") -> LinkRecord:
        if target not in _AMBIENT_SQUARE or source not in _AMBIENT_SQUARE:
            raise ValueError("link endpoints must be P3 or X5")
        if min(a, b, c) < 1:
            raise ValueError("link data a, b, c must be positive")
        if (a * c - 1) % b:
            raise ValueError("b must divide a*c - 1 for an integral matrix")
        return super().__new__(cls, gd, target, gd_plus, a, b, c, source)


class LinkStep(NamedTuple):
    record: LinkRecord
    change: Mat


class LinkWord(NamedTuple):
    steps: tuple[LinkStep, ...]


def frame(ambient: str, gd: tuple[int, int]) -> GramLattice:
    """Gram matrix of the frame {H, C} for a (g, d)-curve C on a quartic
    surface in `ambient`: H^2 = 4 on P3 and 10 on X5, H.C = d, C^2 = 2g - 2."""
    g, d = gd
    return GramLattice(_AMBIENT_SQUARE[ambient], d, 2 * g - 2)


def _p3_row(g: int, d: int) -> LinkRecord:
    """The P3 self-link of a (g, d)-curve: the reflection in 4H - C."""
    m = reflection_in(frame("P3", (g, d)), (4, -1))
    return LinkRecord((g, d), "P3", (g, d), m[0][0], -m[1][0], -m[1][1])


_CATALOG = (
    _p3_row(14, 11), _p3_row(6, 9), _p3_row(10, 10), _p3_row(2, 8),
    _p3_row(11, 10), _p3_row(3, 6), _p3_row(5, 8),
    LinkRecord((4, 8), "X5", (4, 10), 11, 3, 5),
    _p3_row(3, 8),
)


def catalog() -> tuple[LinkRecord, ...]:
    """The nine curve-blowup links, in table order."""
    return _CATALOG


def lookup(gd: tuple[int, int]) -> LinkRecord | None:
    for rec in catalog():
        if rec.gd == gd:
            return rec
    return None


def link_matrix(rec: LinkRecord) -> Mat:
    """Frame action ((a, (ac-1)/b), (-b, -c)); determinant -1 by design."""
    return ((rec.a, (rec.a * rec.c - 1) // rec.b), (-rec.b, -rec.c))


def base_change(lam: int) -> Mat:
    """Curve swap C -> lam*H - C as a (self-inverse) basis matrix."""
    return ((1, lam), (0, -1))


def conjugate(m: Mat, B: Mat) -> Mat:
    """B m B^{-1}; ValueError unless B is unimodular."""
    return mat_mul(mat_mul(B, m), mat_inv_unimodular(B))


def compose_word(word: LinkWord) -> Mat:
    """Product of the conjugated step matrices, validating the model chain
    (every word starts on P3; a step must start where the previous ended)."""
    if not word.steps:
        raise ValueError("empty word")
    at = "P3"
    acc = IDENTITY
    for step in word.steps:
        if step.record.source != at:
            raise ValueError(
                "chain mismatch: step starts on %s but the word is on %s"
                % (step.record.source, at)
            )
        acc = mat_mul(acc, conjugate(link_matrix(step.record), step.change))
        at = step.record.target
    return acc


def _step_candidates(cur: GramLattice, want: GramLattice) -> list[Mat]:
    """B = ((1, x), (0, eps)) with B^T cur B = want, eps = +1 first (the
    identity is eps = 1, x = 0): x is fixed by H.C' for C' = x*H + eps*C,
    and as B is unimodular, C'^2 is right iff the determinants agree."""
    out = []
    if cur.q11 == want.q11 and cur.det() == want.det():
        for eps in (1, -1):
            x, rem = divmod(want.q12 - eps * cur.q12, cur.q11)
            if not rem:
                out.append(((1, x), (0, eps)))
    return out


def _reversed(rec: LinkRecord) -> LinkRecord:
    """The return leg of a link, read off its row: the inverse matrix after
    the curve swap lam = 2d/H^2 on each side, source then target."""
    swaps = [base_change(2 * d // _AMBIENT_SQUARE[ambient])
             for ambient, (_, d) in ((rec.source, rec.gd), (rec.target, rec.gd_plus))]
    m = mat_mul(mat_inv_unimodular(link_matrix(rec)), mat_mul(*swaps))
    return LinkRecord(rec.gd_plus, rec.source, rec.gd, m[0][0], -m[1][0], -m[1][1],
                      source=rec.target)


# (row, Gram of its source frame): every row may open a word; the P3
# self-links and the return legs of the links to X5 may close one.
_OPENERS = tuple((rec, frame(rec.source, rec.gd)) for rec in _CATALOG)
_CLOSERS = tuple((rec, frame(rec.source, rec.gd)) for rec in (
    *(rec for rec in _CATALOG if rec.target == "P3"),
    *(_reversed(rec) for rec in _CATALOG if rec.target != "P3"),
))


def realize_generator(L: surf.QuarticLattice, target: Mat) -> LinkWord | None:
    """First word of length <= 2 whose composite equals `target`.

    Each step is a catalog row, or the X5 row run backwards, taken in the
    basis B = ((1, x), (0, eps)) that turns the current frame into the
    Gram of the row's source frame; B is unimodular, so the step's curve
    B(0, 1) = x*H + eps*C spans L together with H. The first frame is
    {H, W}, and a step with conjugated matrix m moves the frame Q to
    m^T Q m. Words start and end on P3. Search order: length 1 before
    length 2; catalog order; eps = +1 before eps = -1.
    """
    base = L.base
    firsts = [(rec, B, conjugate(link_matrix(rec), B))
              for rec, want in _OPENERS for B in _step_candidates(base, want)]
    for rec, B, m in firsts:
        if rec.target == "P3" and m == target:
            return LinkWord((LinkStep(rec, B),))
    for rec1, B1, m1 in firsts:
        cur = change_basis(base, m1).lattice
        for rec2, want in _CLOSERS:
            if rec2.source != rec1.target:
                continue
            for B2 in _step_candidates(cur, want):
                if mat_mul(m1, conjugate(link_matrix(rec2), B2)) == target:
                    return LinkWord((LinkStep(rec1, B1), LinkStep(rec2, B2)))
    return None


def word_to_json(word: LinkWord, target: Mat) -> dict:
    """Serialize a word with its composite, each step with its record's gd,
    target and abc and its base change, and whether the composite matches
    the generator matrix target."""
    comp = compose_word(word)
    return {
        "word": [
            {
                "gd": list(step.record.gd),
                "target": step.record.target,
                "base_change": [list(row) for row in step.change],
                "abc": [step.record.a, step.record.b, step.record.c],
            }
            for step in word.steps
        ],
        "composite": [list(row) for row in comp],
        "matches_generator": comp == target,
    }

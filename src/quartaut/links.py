"""Sarkisov links from curve blowups and words realizing lattice isometries.

Each catalog row records a birational self-link of P3 (or a link to the
quintic del Pezzo threefold X5) initiated by blowing up a smooth curve of
genus g and degree d lying on a quartic surface. Its action on the rank-2
frame {H, C} of the surface is the matrix ((a, (ac-1)/b), (-b, -c)).

Words chain links with changes of curve basis B = ((1, lam), (0, -1))
(self-inverse) between steps; the composite is the product of the
conjugated step matrices in step order. realize_generator searches words of
length at most two whose composite equals a given generator matrix.
"""
from __future__ import annotations

from typing import NamedTuple

from . import surface as surf
from .lattice import IDENTITY, Mat, Vec, mat_det, mat_inv_unimodular, mat_mul

_AMBIENT_SQUARE = {"P3": 4, "X5": 10}
_MAX_BASE_CHANGE = 8


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


_CATALOG = (
    LinkRecord((14, 11), "P3", (14, 11), 19, 5, 19),
    LinkRecord((6, 9), "P3", (6, 9), 27, 7, 27),
    LinkRecord((10, 10), "P3", (10, 10), 23, 6, 23),
    LinkRecord((2, 8), "P3", (2, 8), 31, 8, 31),
    LinkRecord((11, 10), "P3", (11, 10), 11, 3, 11),
    LinkRecord((3, 6), "P3", (3, 6), 3, 1, 3),
    LinkRecord((5, 8), "P3", (5, 8), 7, 2, 7),
    LinkRecord((4, 8), "X5", (4, 10), 11, 3, 5),
    LinkRecord((3, 8), "P3", (3, 8), 15, 4, 15),
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
    """B m B^{-1}; B must be unimodular."""
    if mat_det(B) not in (1, -1):
        raise ValueError("base-change matrix must be unimodular")
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


def _step_candidates(rec: LinkRecord, cur_gd: tuple[int, int], ambient: str) -> list[Mat]:
    """Base changes that let `rec` act on a frame whose current curve has
    data cur_gd: identity when the data already match, else the swap
    C' = lam*H - C with lam fixed by degree and checked against genus."""
    h2 = _AMBIENT_SQUARE[ambient]
    out = []
    if rec.gd == cur_gd:
        out.append(IDENTITY)
    g0, d0 = cur_gd
    num = rec.gd[1] + d0
    if num % h2 == 0:
        lam = num // h2
        if lam != 0 and abs(lam) <= _MAX_BASE_CHANGE:
            csq = lam * lam * h2 - 2 * lam * d0 + (2 * g0 - 2)
            if csq == 2 * rec.gd[0] - 2:
                out.append(base_change(lam))
    return out


def _as_link_shape(m: Mat) -> tuple[int, int, int] | None:
    """(a, b, c) if m has the exact link-matrix shape, else None."""
    a, b, c = m[0][0], -m[1][0], -m[1][1]
    if min(a, b, c) < 1:
        return None
    if (a * c - 1) % b or m[0][1] != (a * c - 1) // b:
        return None
    return a, b, c


def _synthesize_return(rec1: LinkRecord, m1: Mat, target: Mat) -> LinkStep | None:
    """Return leg of a two-step word through X5: solve for the second matrix
    and accept it only if it has the link shape."""
    g2, d2 = rec1.gd_plus
    h2 = _AMBIENT_SQUARE[rec1.target]
    cands: list[tuple[Mat, tuple[int, int]]] = [(IDENTITY, (g2, d2))]
    if (2 * d2) % h2 == 0:
        lam = 2 * d2 // h2
        if lam != 0 and abs(lam) <= _MAX_BASE_CHANGE:
            cands.append((base_change(lam), (g2, lam * h2 - d2)))
    rest = mat_mul(mat_inv_unimodular(m1), target)
    for B2, gd2 in cands:
        m2 = conjugate(rest, B2)
        shape = _as_link_shape(m2)
        if shape is None:
            continue
        a, b, c = shape
        rec = LinkRecord(gd2, "P3", gd2, a, b, c, source=rec1.target)
        return LinkStep(rec, B2)
    return None


def realize_generator(L: surf.QuarticLattice, target: Mat) -> LinkWord | None:
    """First word of length <= 2 whose composite equals `target`.

    A catalog row may open a word only if a curve with its (g, d) exists on
    L and spans, together with H, the whole lattice (the class has second
    coordinate ±1). Words must start and end on P3. Search order: length 1
    before length 2; catalog order; identity before the swapped base change.
    """
    rows = catalog()
    eligible = []
    for rec in rows:
        C = surf.find_curve_class(L, rec.gd)
        if C is not None and abs(C[1]) == 1:
            eligible.append(rec)
    for rec in eligible:
        if rec.target != "P3":
            continue
        for B in _step_candidates(rec, rec.gd, rec.source):
            if conjugate(link_matrix(rec), B) == target:
                return LinkWord((LinkStep(rec, B),))
    for rec1 in eligible:
        for B1 in _step_candidates(rec1, rec1.gd, rec1.source):
            m1 = conjugate(link_matrix(rec1), B1)
            if rec1.target == "P3":
                for rec2 in rows:
                    if rec2.source != "P3" or rec2.target != "P3":
                        continue
                    for B2 in _step_candidates(rec2, rec1.gd_plus, rec1.target):
                        m2 = conjugate(link_matrix(rec2), B2)
                        if mat_mul(m1, m2) == target:
                            return LinkWord((LinkStep(rec1, B1), LinkStep(rec2, B2)))
            else:
                step2 = _synthesize_return(rec1, m1, target)
                if step2 is not None:
                    return LinkWord((LinkStep(rec1, B1), step2))
    return None


def word_to_json(word: LinkWord, target: Mat | None = None) -> dict:
    """Serialize a word with its composite; includes the match flag when a
    generator matrix is supplied."""
    comp = compose_word(word)
    out = {
        "word": [
            {
                "gd": list(step.record.gd),
                "target": step.record.target,
                "base_change": [list(row) for row in step.change],
            }
            for step in word.steps
        ],
        "composite": [list(row) for row in comp],
    }
    if target is not None:
        out["matches_generator"] = comp == target
    return out

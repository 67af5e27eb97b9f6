"""Sarkisov links from curve blowups and words realizing lattice isometries.

Each catalog row records a birational self-link of P3 (or a link to the
quintic del Pezzo threefold X5) initiated by blowing up a smooth curve of
genus g and degree d lying on a quartic surface. Its action on the rank-2
frame {H, C} of the surface is the matrix ((a, (ac-1)/b), (-b, -c)). A
P3 self-link acts as the reflection in 4H - C, so its (a, b, c) is derived
from (g, d); only the X5 row, whose matrix has trace 6, is data.

Words chain links with changes of curve basis B = ((1, lam), (0, -1))
(self-inverse) between steps; the composite is the product of the
conjugated step matrices in step order. realize_generator searches words of
length at most two whose composite equals a given generator matrix.
"""
from __future__ import annotations

from typing import NamedTuple

from . import surface as surf
from .lattice import GramLattice, IDENTITY, Mat, mat_inv_unimodular, mat_mul, reflection_in

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


def _step_candidates(gd: tuple[int, int], cur_gd: tuple[int, int], ambient: str) -> list[Mat]:
    """Base changes that turn a frame whose current curve has data cur_gd
    into one whose curve has data gd: identity when the data already match,
    and the swap C' = lam*H - C with lam fixed by degree and checked
    against genus."""
    h2 = _AMBIENT_SQUARE[ambient]
    out = []
    if gd == cur_gd:
        out.append(IDENTITY)
    g0, d0 = cur_gd
    num = gd[1] + d0
    if num % h2 == 0:
        lam = num // h2
        if lam != 0:
            csq = lam * lam * h2 - 2 * lam * d0 + (2 * g0 - 2)
            if csq == 2 * gd[0] - 2:
                out.append(base_change(lam))
    return out


def _synthesize_return(rec1: LinkRecord, m1: Mat, target: Mat) -> LinkStep | None:
    """Return leg of a two-step word through X5: solve for the second matrix
    m2 and accept it only if LinkRecord accepts its (a, b, c) and the
    record's link_matrix is m2. The leg starts from the flopped curve's
    data gd_plus, which either base change keeps."""
    gd = rec1.gd_plus
    rest = mat_mul(mat_inv_unimodular(m1), target)
    for B2 in _step_candidates(gd, gd, rec1.target):
        m2 = conjugate(rest, B2)
        try:
            rec2 = LinkRecord(gd, "P3", gd, m2[0][0], -m2[1][0], -m2[1][1],
                              source=rec1.target)
        except ValueError:
            continue
        if link_matrix(rec2) == m2:
            return LinkStep(rec2, B2)
    return None


def realize_generator(L: surf.QuarticLattice, target: Mat) -> LinkWord | None:
    """First word of length <= 2 whose composite equals `target`.

    A catalog row may open a word only if a curve with its (g, d) exists on
    L and spans, together with H, the whole lattice (the class has second
    coordinate ±1). Words must start and end on P3. Search order: length 1
    before length 2; catalog order; identity before the swapped base change.
    """
    rows = catalog()
    # (row, base change, conjugated matrix) for every step that may open a word
    firsts = []
    for rec in rows:
        C = surf.find_curve_class(L, rec.gd)
        if C is not None and abs(C[1]) == 1:
            firsts += [(rec, B, conjugate(link_matrix(rec), B))
                       for B in _step_candidates(rec.gd, rec.gd, rec.source)]
    for rec, B, m in firsts:
        if rec.target == "P3" and m == target:
            return LinkWord((LinkStep(rec, B),))
    for rec1, B1, m1 in firsts:
        if rec1.target == "P3":
            for rec2 in rows:
                if rec2.source != "P3" or rec2.target != "P3":
                    continue
                for B2 in _step_candidates(rec2.gd, rec1.gd_plus, rec1.target):
                    m2 = conjugate(link_matrix(rec2), B2)
                    if mat_mul(m1, m2) == target:
                        return LinkWord((LinkStep(rec1, B1), LinkStep(rec2, B2)))
        else:
            step2 = _synthesize_return(rec1, m1, target)
            if step2 is not None:
                return LinkWord((LinkStep(rec1, B1), step2))
    return None


def word_to_json(word: LinkWord, target: Mat | None = None) -> dict:
    """Serialize a word with its composite, each step with its record's gd,
    target and abc and its base change; includes the match flag when a
    generator matrix is supplied."""
    comp = compose_word(word)
    out = {
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
    }
    if target is not None:
        out["matches_generator"] = comp == target
    return out

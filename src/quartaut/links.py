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
the current frame into the Gram of its row's source frame. B and every step
keep the frame's determinant, which is -r on {H, W}, and a P3 frame
(4, d, 2g - 2) has determinant -(d^2 - 8(g - 1)): only the eight frame
discriminants r = 17, 20, 28, 32, 40, 41, 48 and 56 of the catalog rows can
start a word. The search therefore looks rows up by their frame's
(H^2, det), and works on integer triples; compose_word replays each word
independently on GramLattice frames.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .lattice import (GramLattice, IDENTITY, Mat, change_basis, mat_inv_unimodular, mat_mul,
                      reflection_in)

Frame = tuple[int, int, int]

if TYPE_CHECKING:
    from . import surface as surf

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
    """Product of the conjugated step matrices, replaying the word on its
    frames. The word starts on P3, in the frame that the first step's basis
    turns into its row's source frame. Before each step the frame in the
    step's basis must be its row's source frame, and the step then moves
    the frame Q to m^T Q m for its conjugated matrix m. H^2 is 4 on P3 and
    10 on X5, so this also makes each step start on the ambient where the
    last one ended."""
    if not word.steps:
        raise ValueError("empty word")
    (rec, B), *_ = word.steps
    G = change_basis(frame("P3", rec.gd), mat_inv_unimodular(B))
    acc = IDENTITY
    for n, (rec, B) in enumerate(word.steps, 1):
        got, want = change_basis(G, B), frame(rec.source, rec.gd)
        if got != want:
            raise ValueError(f"step {n} ({rec.source} {rec.gd}) starts on frame {got!r}, "
                             f"expected {want!r}")
        m = conjugate(link_matrix(rec), B)
        acc = mat_mul(acc, m)
        G = change_basis(G, m)
    return acc


def _step_candidates(cur: Frame, want: Frame) -> list[Mat]:
    """B = ((1, x), (0, eps)) with B^T cur B = want, eps = +1 first (the
    identity is eps = 1, x = 0): x is fixed by H.C' for C' = x*H + eps*C,
    and as B is unimodular, C'^2 is right iff the determinants agree."""
    (q11, q12, q22), (w11, w12, w22) = cur, want
    out = []
    if q11 == w11 and q11 * q22 - q12 * q12 == w11 * w22 - w12 * w12:
        for eps in (1, -1):
            x, rem = divmod(w12 - eps * q12, q11)
            if not rem:
                out.append(((1, x), (0, eps)))
    return out


def _conjugated(m: Mat, B: Mat) -> Mat:
    """conjugate(m, B) for B = ((1, x), (0, eps)), whose inverse is
    ((1, -x*eps), (0, eps)), written out."""
    ((a, b), (c, d)), ((_, x), (_, eps)) = m, B
    return ((a + x * c, eps * (b + x * (d - a) - x * x * c)), (eps * c, d - x * c))


def _moved(Q: Frame, m: Mat) -> Frame:
    """The frame m^T Q m, written out."""
    (q11, q12, q22), ((a, b), (c, d)) = Q, m
    return (q11 * a * a + 2 * q12 * a * c + q22 * c * c,
            q11 * a * b + q12 * (a * d + b * c) + q22 * c * d,
            q11 * b * b + 2 * q12 * b * d + q22 * d * d)


def _reversed(rec: LinkRecord) -> LinkRecord:
    """The return leg of a link, read off its row: the inverse matrix after
    the curve swap lam = 2d/H^2 on each side, source then target."""
    swaps = [base_change(2 * d // _AMBIENT_SQUARE[ambient])
             for ambient, (_, d) in ((rec.source, rec.gd), (rec.target, rec.gd_plus))]
    m = mat_mul(mat_inv_unimodular(link_matrix(rec)), mat_mul(*swaps))
    return LinkRecord(rec.gd_plus, rec.source, rec.gd, m[0][0], -m[1][0], -m[1][1],
                      source=rec.target)


def _by_frame(recs) -> dict[tuple[int, int], list[tuple[LinkRecord, GramLattice, Mat]]]:
    """(row, Gram of its source frame, link_matrix) for each row, grouped
    under that frame's (H^2, det) in row order."""
    out: dict[tuple[int, int], list[tuple[LinkRecord, GramLattice, Mat]]] = {}
    for rec in recs:
        want = frame(rec.source, rec.gd)
        out.setdefault((want.q11, want.det()), []).append((rec, want, link_matrix(rec)))
    return out


# Every row may open a word; the P3 self-links and the return legs of the
# links to X5 may close one.
_OPENERS = _by_frame(_CATALOG)
_CLOSERS = _by_frame((*(rec for rec in _CATALOG if rec.target == "P3"),
                      *(_reversed(rec) for rec in _CATALOG if rec.target != "P3")))


def realize_generator(L: surf.QuarticLattice, target: Mat) -> LinkWord | None:
    """First word of length <= 2 whose composite equals `target`.

    Each step is a catalog row, or the X5 row run backwards, taken in the
    basis B = ((1, x), (0, eps)) that turns the current frame into the
    Gram of the row's source frame; B is unimodular, so the step's curve
    B(0, 1) = x*H + eps*C spans L together with H. The first frame is
    {H, W} = (4, b, 2c), and a step with conjugated matrix m moves the
    frame Q to m^T Q m. Words start and end on P3.

    B fixes H^2 and, being unimodular, the determinant, and so does each
    step, an isometry between frames (det m = -1). So a step can start only
    from a row whose source frame has the current H^2 and determinant -r:
    the search looks its rows up under that key. A P3 frame (4, d, 2g - 2)
    has determinant -(d^2 - 8(g - 1)), so only the eight discriminants
    r = 17, 20, 28, 32, 40, 41, 48 and 56 of the catalog rows can open a
    word; on any other lattice the search builds no candidate and returns
    None. A closer needs no ambient test: the frame's H^2 is its ambient's
    (4 on P3, 10 on X5). Frames are (q11, q12, q22) triples of ints.
    Search order: length 1 before length 2; catalog order; eps = +1 before
    eps = -1.
    """
    b, c = L
    det = 8 * c - b * b
    openers = _OPENERS.get((4, det))
    if openers is None:
        return None
    base = (4, b, 2 * c)
    firsts = [(rec, B, _conjugated(lm, B))
              for rec, want, lm in openers for B in _step_candidates(base, want)]
    for rec, B, m in firsts:
        if rec.target == "P3" and m == target:
            return LinkWord((LinkStep(rec, B),))
    for rec1, B1, m1 in firsts:
        cur = _moved(base, m1)
        for rec2, want, lm2 in _CLOSERS.get((cur[0], det), ()):
            for B2 in _step_candidates(cur, want):
                if mat_mul(m1, _conjugated(lm2, B2)) == target:
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
                "gd": step.record.gd,
                "target": step.record.target,
                "base_change": step.change,
                "abc": [step.record.a, step.record.b, step.record.c],
            }
            for step in word.steps
        ],
        "composite": comp,
        "matches_generator": comp == target,
    }

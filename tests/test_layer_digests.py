"""Standing byte-identity check of each layer's results on a fixed corpus.

Each layer's results are rendered one per line, as the repr of the result or
as "ErrorType: message" when the call raises, and the sha256 of the
newline-joined lines must match tests/layer_digests.json. The corpus is
every model (b, c) with -8 <= b <= 8 and 9 <= r = b^2 - 8c <= 300 (624
models, 12 of which raise the conic cap in classify_aut). The layers that
never run the conic scan (_chamber_walls, ample_square2_axes and
find_curve_class) also run on the 1484 models with -8 <= b <= 8 and
300 < r <= 1000. Square r has two more corpora: solution_class_reps(t^2, n) for 1 <= t <= 40 and
0 < |n| <= 600, and class_with_square_exists(L, 0) on the 1755 models with
-40 <= b <= 40 and r = t^2, 3 <= t <= 60. A change that
alters a layer on purpose regenerates the file with

    PYTHONPATH=src python tests/test_layer_digests.py > tests/layer_digests.json

and says in CHANGES.md which layers moved and why.
"""
import hashlib
import json
import sys
from pathlib import Path

from quartaut import exclusion, isometry, links, pell
from quartaut import surface as surf

DIGESTS = Path(__file__).with_name("layer_digests.json")



def _models(lo: int, hi: int) -> list[surf.QuarticLattice]:
    """Every model with -8 <= b <= 8 and lo <= r <= hi."""
    return [surf.QuarticLattice(b, (b * b - r) // 8)
            for b in range(-8, 9) for r in range(lo, hi + 1) if (b * b - r) % 8 == 0]


MODELS = _models(9, 300)
WIDE_MODELS = _models(301, 1000)


def _line(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ValueError, RuntimeError) as e:
        return f"{type(e).__name__}: {e}"


def _realize(L: surf.QuarticLattice) -> str:
    try:
        gens = surf.classify_aut(L).generators
    except RuntimeError as e:
        return f"{type(e).__name__}: {e}"
    words = [(g, links.realize_generator(L, g)) for g in gens]
    return repr([w and links.word_to_json(w, g) for g, w in words])


def _cells() -> list[str]:
    out = []
    for pa, d in exclusion._cells():
        n, sols = exclusion._cell_solutions(pa, d)
        out.append(repr((n, [(s, s.frame_class()) for s in sols])))
    return out


def layers() -> dict[str, list[str]]:
    """Each layer's result lines over its corpus."""
    wall_free = [L for L in MODELS if not surf._chamber_walls(L)]
    small = [(b, (b * b - r) // 8) for b in range(-24, 25) for r in sorted(surf.FORBIDDEN_DISCS)
             if (b * b - r) % 8 == 0]
    pell_args = [(r, n) for r in range(1, 120) for n in range(-40, 41) if n]
    square_args = [(t * t, n) for t in range(1, 41) for n in range(-600, 601) if n]
    square_models = [surf.QuarticLattice(b, (b * b - t * t) // 8)
                     for b in range(-40, 41) for t in range(3, 61) if (b * b - t * t) % 8 == 0]
    return {
        "_chamber_walls": [_line(surf._chamber_walls, L) for L in MODELS],
        "ample_square2_axes": [_line(surf.ample_square2_axes, L) for L in MODELS],
        "classify_aut": [_line(surf.classify_aut, L) for L in MODELS],
        "minimal_gluing_exponent": [_line(isometry.minimal_gluing_exponent, L) for L in MODELS],
        "minimal_quadeq_solution": [_line(isometry.minimal_quadeq_solution, L)
                                    for L in wall_free],
        "realize_generator": [_realize(L) for L in MODELS],
        "find_curve_class": [_line(surf.find_curve_class, L, rec.gd)
                             for L in MODELS for rec in links.catalog()],
        "forbidden_small_disc": [_line(surf.forbidden_small_disc, b, c) for b, c in small],
        "solve": [_line(pell.solve, r, n) for r, n in pell_args],
        "solution_class_reps": [_line(pell.solution_class_reps, r, n) for r, n in pell_args],
        "solution_class_reps_square_r": [_line(pell.solution_class_reps, r, n)
                                         for r, n in square_args],
        "class_with_square_exists_0": [_line(surf.class_with_square_exists, L, 0)
                                       for L in square_models],
        "_chamber_walls_wide": [_line(surf._chamber_walls, L) for L in WIDE_MODELS],
        "ample_square2_axes_wide": [_line(surf.ample_square2_axes, L) for L in WIDE_MODELS],
        "find_curve_class_wide": [_line(surf.find_curve_class, L, rec.gd)
                                  for L in WIDE_MODELS for rec in links.catalog()],
        "_cell_solutions": _cells(),
        "CURVE_MODELS": [repr(sorted(surf.CURVE_MODELS.items()))],
    }


def digests() -> dict[str, str]:
    return {name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for name, lines in layers().items()}


def test_corpus_size():
    assert len(MODELS) == 624
    assert len(WIDE_MODELS) == 1484


def test_layers_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    moved = [k for k in got if got[k] != want[k]]
    assert not moved, f"{len(moved)} layers changed: {moved}"


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    print()

"""Golden self-checks for every built-in table.

Eight suites re-derive the package's frozen data from scratch: the
automorphism partition of the admissible discriminants, the Pell witness
table, the curve-bearing models, the printed generator matrices, the
minimal conic solutions with their gluing exponents, the discriminant
exclusion, the anti-flip exhaustion, and the link-word realizations,
each word replayed on its frames.

Each check is recorded with a name and a detail string so a failure
surfaces its first counterexample directly.
"""
from __future__ import annotations

import time
from typing import NamedTuple

from . import exclusion, isometry, links, pell
from . import surface as surf
from .lattice import Mat, change_basis, mat_det, pairing

EXPECTED_PARTITION = {
    9: "Trivial", 12: "Trivial", 16: "Trivial", 24: "Trivial", 25: "Trivial",
    33: "Trivial", 36: "Trivial", 44: "Trivial", 49: "Trivial", 57: "Trivial",
    17: "Z2", 41: "Z2",
    28: "Z2starZ2", 56: "Z2starZ2",
    20: "Z", 32: "Z", 40: "Z", 48: "Z",
}

PELL_TABLE = (
    (9, (1, 1), -8), (12, (2, 1), -8), (16, (4, 1), 0), (17, (3, 1), -8),
    (24, (4, 1), -8), (25, (5, 1), 0), (33, (5, 1), -8), (36, (6, 1), 0),
    (41, (19, 3), -8), (44, (6, 1), -8), (49, (7, 1), 0), (57, (7, 1), -8),
)

GENERATOR_TABLE: dict[int, tuple[Mat, ...]] = {
    17: (((19, 72), (-5, -19)),),
    20: (((29, 40), (-8, -11)),),
    28: (((23, 88), (-6, -23)), ((-7, -8), (6, 7))),
    32: (((41, 24), (-12, -7)),),
    40: (((43, 18), (-12, -5)),),
    41: (((27, 104), (-7, -27)),),
    48: (((209, 56), (-56, -15)),),
    56: (((31, 120), (-8, -31)), ((-1, 0), (8, 1))),
}

MINIMAL_TABLE = {20: ((4, 5), 3), 32: ((7, 4), 2), 40: ((43, 18), 1), 48: ((4, 1), 4)}

# (name, step gd/base-change pairs, expected composite)
COMPOSE_TABLE = (
    ("r=28", (((10, 10), 5),), ((-7, -8), (6, 7))),
    ("r=56", (((2, 8), 4),), ((-1, 0), (8, 1))),
    ("r=20", (((11, 10), 0), ((3, 6), 4)), ((29, 40), (-8, -11))),
    ("r=48", (((3, 8), 0), ((3, 8), 4)), ((209, 56), (-56, -15))),
)

RPRIME_TABLE = (
    9, 12, 17, 24, 33, 44, 57, 9, 16, 25, 36, 49, 17, 28, 41, 56, 20, 33,
    48, 12, 25, 40, 17, 32, 24, 41, 16, 33, 25, 17, 9, 28, 20, 17,
)

ADMISSIBLE = tuple(sorted(EXPECTED_PARTITION))


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, got, want) -> Check:
    ok = got == want
    detail = "" if ok else f"got {got!r}, expected {want!r}"
    return Check(name, ok, detail)


def suite_partition() -> list[Check]:
    out = []
    for r, tag in sorted(EXPECTED_PARTITION.items()):
        L = surf.QuarticLattice(*surf.canonical_bc(r))
        out.append(_check(f"r={r}", surf.classify_aut(L).tag, tag))
    return out


def suite_pell_table() -> list[Check]:
    out = []
    for r, (x, y), n in PELL_TABLE:
        out.append(_check(f"witness r={r}", x * x - r * y * y, n))
        out.append(_check(f"solvable r={r} n={n}", pell.has_solution(r, n), True))
    for r in ADMISSIBLE:
        if EXPECTED_PARTITION[r] in ("Z2starZ2", "Z"):
            out.append(_check(f"no -2 class r={r}", pell.has_solution(r, -8), False))
    for r in ADMISSIBLE:
        if EXPECTED_PARTITION[r] == "Z":
            out.append(_check(f"no square-2 class r={r}", pell.has_solution(r, 8), False))
    return out


def suite_curve_classes() -> list[Check]:
    out = []
    for r in sorted(surf.CURVE_MODELS):
        L, gd = surf.curve_model(r)
        C = surf.find_curve_class(L, gd)
        if C is None:
            out.append(Check(f"r={r}", False, f"no class with (g, d) = {gd}"))
            continue
        out.append(_check(f"data r={r}", surf.genus_degree(L, C), gd))
        out.append(_check(f"index r={r}", abs(C[1]), 1))
        disc = L.dot(surf.H, C) ** 2 - L.dot(surf.H, surf.H) * L.dot(C, C)
        out.append(_check(f"disc r={r}", disc, r))
    return out


def suite_generators() -> list[Check]:
    out = []
    for r, gens in sorted(GENERATOR_TABLE.items()):
        L, _ = surf.curve_model(r)
        out.append(_check(f"r={r}", tuple(isometry.aut_generators(L)), gens))
    return out


def suite_minimal_solutions() -> list[Check]:
    out = []
    for r, (sol, k) in sorted(MINIMAL_TABLE.items()):
        L, _ = surf.curve_model(r)
        out.append(_check(f"solution r={r}", isometry.minimal_quadeq_solution(L), sol))
        out.append(_check(f"exponent r={r}", isometry.minimal_gluing_exponent(L), k))
    return out


def suite_exclusion() -> list[Check]:
    report = exclusion.admissible_discriminants()
    return [
        _check("rprime list", tuple(report.rprimes), RPRIME_TABLE),
        _check("admissible count", len(report.admissible), 18),
        _check("admissible set", tuple(sorted(report.admissible)), ADMISSIBLE),
        _check("excluded below bound", set(report.excluded_leq57), {52}),
    ]


def suite_antiflip() -> list[Check]:
    t0 = time.monotonic()
    report = exclusion.antiflip_report()
    dt = time.monotonic() - t0
    out = [
        _check("solvable pairs", set(report.solvable), {(15, 11)}),
        Check("runtime", dt < 30.0, f"{dt:.2f}s" if dt >= 30.0 else ""),
    ]
    line = [w for w in report.witnesses if w.frame_class() == (3, -1)]
    out.append(Check("line witness 3H-C", bool(line), "" if line else "no witness maps to 3H - C"))
    if line:
        F, ell = links.frame("P3", (line[0].pa, line[0].d)), (3, -1)
        out.append(_check("line pairing", (pairing(F, ell, ell), pairing(F, surf.H, ell)), (-2, 1)))
    return out


def _word_from_table(steps) -> links.LinkWord:
    built = []
    for gd, lam in steps:
        rec = links.lookup(gd)
        if rec is None:
            raise LookupError(f"catalog row {gd} missing")
        change = links.base_change(lam) if lam else ((1, 0), (0, 1))
        built.append(links.LinkStep(rec, change))
    return links.LinkWord(tuple(built))


def _frame_error(L: surf.QuarticLattice, word: links.LinkWord) -> str:
    """Replay a word on its frames: before each step the frame in the step's
    basis must be its record's source frame, and the step then moves the
    frame by its conjugated matrix. Names the first step that fails, or ""."""
    G = L.base
    for n, step in enumerate(word.steps, 1):
        rec, B = step.record, step.change
        got, want = change_basis(G, B), links.frame(rec.source, rec.gd)
        if got != want:
            return f"step {n} ({rec.source} {rec.gd}) starts on frame {got!r}, expected {want!r}"
        G = change_basis(G, links.conjugate(links.link_matrix(rec), B))
    return ""


def suite_realization() -> list[Check]:
    out = []
    for rec in links.catalog():
        m = links.link_matrix(rec)
        out.append(_check(f"det {rec.gd}", mat_det(m), -1))
        got = change_basis(links.frame(rec.source, rec.gd), m)
        out.append(_check(f"form {rec.gd}", got, links.frame(rec.target, rec.gd_plus)))
    for name, steps, want in COMPOSE_TABLE:
        try:
            got = links.compose_word(_word_from_table(steps))
        except LookupError as e:
            out.append(Check(f"compose {name}", False, str(e)))
            continue
        out.append(_check(f"compose {name}", got, want))
    for r, gens in sorted(GENERATOR_TABLE.items()):
        L, _ = surf.curve_model(r)
        for i, g in enumerate(gens, 1):
            word = links.realize_generator(L, g)
            if word is None:
                out.append(Check(f"realize r={r} #{i}", False, "no word found"))
                continue
            out.append(_check(f"word length r={r} #{i}", len(word.steps) <= 2, True))
            bad = _frame_error(L, word)
            if bad:
                out.append(Check(f"realize r={r} #{i}", False, bad))
                continue
            out.append(_check(f"realize r={r} #{i}", links.compose_word(word), g))
    return out


SUITES = (
    ("partition", suite_partition),
    ("pell-table", suite_pell_table),
    ("curve-classes", suite_curve_classes),
    ("generators", suite_generators),
    ("minimal-solutions", suite_minimal_solutions),
    ("exclusion", suite_exclusion),
    ("antiflip", suite_antiflip),
    ("realization", suite_realization),
)


def run_all() -> dict:
    """Run the eight suites; JSON-ready summary with per-check results."""
    suites = []
    total = failures = 0
    for name, fn in SUITES:
        checks = fn()
        total += len(checks)
        failures += sum(not c.ok for c in checks)
        suites.append(
            {
                "name": name,
                "passed": all(c.ok for c in checks),
                "checks": [
                    {"name": c.name, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
                    for c in checks
                ],
            }
        )
    return {
        "suites": suites,
        "checks": total,
        "failures": failures,
        "passed": failures == 0,
    }

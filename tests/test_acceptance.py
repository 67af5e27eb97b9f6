"""Acceptance gate: the nine golden criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; every check is an exact integer identity.
"""
import functools
import random
import time
from math import isqrt

from quartaut import exclusion, isometry, links, pell
from quartaut.lattice import GramLattice, IDENTITY, mat_det, mat_mul, pairing
from quartaut.surface import (
    QuarticLattice,
    ample_square2_axes,
    canonical_bc,
    class_with_square_exists,
    classify_aut,
    curve_model,
    find_curve_class,
)
from oracles import automorph, mat_pow

R0 = {9, 12, 16, 24, 25, 33, 36, 44, 49, 57}
R1 = {17, 41}
R2 = {28, 56}
R3 = {20, 32, 40, 48}

PELL_TABLE = {
    9: ((1, 1), -8),
    12: ((2, 1), -8),
    16: ((4, 1), 0),
    17: ((3, 1), -8),
    24: ((4, 1), -8),
    25: ((5, 1), 0),
    33: ((5, 1), -8),
    36: ((6, 1), 0),
    41: ((19, 3), -8),
    44: ((6, 1), -8),
    49: ((7, 1), 0),
    57: ((7, 1), -8),
}

TABLE_C = {
    17: (14, 11),
    20: (11, 10),
    28: (10, 10),
    32: (5, 8),
    40: (4, 8),
    41: (6, 9),
    48: (3, 8),
    56: (2, 8),
}

TABLE_M = {
    17: (((19, 72), (-5, -19)),),
    20: (((29, 40), (-8, -11)),),
    28: (((23, 88), (-6, -23)), ((-7, -8), (6, 7))),
    32: (((41, 24), (-12, -7)),),
    40: (((43, 18), (-12, -5)),),
    41: (((27, 104), (-7, -27)),),
    48: (((209, 56), (-56, -15)),),
    56: (((31, 120), (-8, -31)), ((-1, 0), (8, 1))),
}

RPRIME_PRINTED = [
    9, 12, 17, 24, 33, 44, 57,
    9, 16, 25, 36, 49,
    17, 28, 41, 56,
    20, 33, 48,
    12, 25, 40,
    17, 32,
    24, 41,
    16, 33,
    25, 17, 9,
    28, 20, 17,
]


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {n} ({label}): FAIL")
                raise
            print(f"criterion {n} ({label}): PASS")

        return wrapper

    return deco


@criterion(1, "partition of discriminants")
def test_criterion_1():
    want = {r: "Trivial" for r in R0}
    want.update({r: "Z2" for r in R1})
    want.update({r: "Z2starZ2" for r in R2})
    want.update({r: "Z" for r in R3})
    seen = {}
    for r in range(9, 58):
        if r % 8 not in (0, 1, 4) or r == 52:
            continue
        seen[r] = classify_aut(QuarticLattice(*canonical_bc(r))).tag
    assert seen == want


@criterion(2, "Pell witness table")
def test_criterion_2():
    for r, ((x, y), n) in PELL_TABLE.items():
        assert x * x - r * y * y == n, r
        if n == 0:
            assert pell.has_solution(r, 0), r
        else:
            assert pell.has_solution(r, n), r
    for r in sorted(R2 | R3):
        assert not pell.has_solution(r, -8), r
    for r in sorted(R3):
        assert not pell.has_solution(r, 8), r


@criterion(3, "curve classes of the eight models")
def test_criterion_3():
    for r, gd in TABLE_C.items():
        L, got_gd = curve_model(r)
        assert got_gd == gd
        C = find_curve_class(L, gd)
        assert C is not None, r
        g, d = gd
        assert L.dot((1, 0), C) == d
        assert L.dot(C, C) == 2 * g - 2
        span_disc = d * d - 4 * (2 * g - 2)
        assert span_disc == r
        assert abs(C[1]) == 1  # index 1: {H, C} is a basis


@criterion(4, "printed generator matrices")
def test_criterion_4():
    for r, mats in TABLE_M.items():
        L, _ = curve_model(r)
        assert tuple(isometry.aut_generators(L)) == mats, r


@criterion(5, "minimal conic solutions and exponents")
def test_criterion_5():
    want = {20: ((4, 5), 3), 32: ((7, 4), 2), 40: ((43, 18), 1), 48: ((4, 1), 4)}
    for r, (sol, k) in want.items():
        L, _ = curve_model(r)
        assert isometry.minimal_quadeq_solution(L) == sol, r
        assert isometry.minimal_gluing_exponent(L) == k, r


@criterion(6, "curve discriminant exclusion")
def test_criterion_6():
    assert exclusion.rprime_list() == RPRIME_PRINTED
    rep = exclusion.admissible_discriminants()
    assert len(rep.admissible) == 18
    assert rep.admissible == R0 | R1 | R2 | R3
    assert rep.excluded_leq57 == {52}


@criterion(7, "anti-flip exhaustion")
def test_criterion_7():
    t0 = time.monotonic()
    rep = exclusion.antiflip_report()
    dt = time.monotonic() - t0
    assert rep.solvable == frozenset({(15, 11)})
    assert rep.witnesses
    for w in rep.witnesses:
        assert w.frame_class() == (3, -1)
        frame = GramLattice(4, 11, 28)
        ell = (3, -1)
        assert pairing(frame, ell, ell) == -2
        assert pairing(frame, (1, 0), ell) == 1
    assert dt < 30.0, f"exhaustion took {dt:.1f}s"


@criterion(8, "realization identities")
def test_criterion_8():
    def word(*steps):
        return links.LinkWord(tuple(links.LinkStep(r, B) for r, B in steps))

    compose_cases = [
        (((links.lookup((10, 10)), links.base_change(5)),), ((-7, -8), (6, 7))),
        (((links.lookup((2, 8)), links.base_change(4)),), ((-1, 0), (8, 1))),
        (
            (
                (links.lookup((11, 10)), IDENTITY),
                (links.lookup((3, 6)), links.base_change(4)),
            ),
            ((29, 40), (-8, -11)),
        ),
        (
            (
                (links.lookup((3, 8)), IDENTITY),
                (links.lookup((3, 8)), links.base_change(4)),
            ),
            ((209, 56), (-56, -15)),
        ),
    ]
    for steps, want in compose_cases:
        assert links.compose_word(word(*steps)) == want
    for r in sorted(R1 | R2 | R3):
        L, _ = curve_model(r)
        for gen in classify_aut(L).generators:
            w = links.realize_generator(L, gen)
            assert w is not None, r
            assert len(w.steps) <= 2
            assert links.compose_word(w) == gen


@criterion(9, "randomized property suites")
def test_criterion_9():
    rng = random.Random(0)
    all_r = sorted(R0 | R1 | R2 | R3)

    # Pell decision procedure vs brute-force oracle
    for _ in range(1000):
        r = rng.randint(1, 300)
        n = rng.randint(-64, 64)
        got = pell.solve(r, n)
        if got is not None:
            x, y = got
            assert x * x - r * y * y == n
        if n == 0:
            continue
        brute = None
        for y in range(10_001):
            t = n + r * y * y
            if t >= 0:
                s = isqrt(t)
                if s * s == t:
                    brute = (s, y)
                    break
        if brute is not None:
            assert got is not None, (r, n, brute)

    # isometry form preservation along automorph powers
    checked = 0
    while checked < 1000:
        b = rng.randint(-15, 15)
        c = rng.randint(-30, 30)
        r = b * b - 8 * c
        if r <= 0 or r in (1, 4, 8) or pell.is_square(r):
            continue
        L = QuarticLattice(b, c)
        T = automorph(L)
        k = rng.randint(1, 3)
        assert isometry.is_isometry(L, mat_pow(T, k))
        checked += 1

    # reflection involutivity along random square-2 classes
    checked = 0
    while checked < 1000:
        b = rng.randint(-15, 15)
        c = rng.randint(-30, 30)
        r = b * b - 8 * c
        if r <= 0 or r in (1, 4, 8):
            continue
        L = QuarticLattice(b, c)
        A = class_with_square_exists(L, 2)
        if A is None:
            continue
        m = isometry.reflection(L, A)
        assert mat_mul(m, m) == IDENTITY
        assert isometry.is_isometry(L, m)
        checked += 1

    # link-shaped matrices always have determinant -1
    checked = 0
    while checked < 1000:
        a = rng.randint(1, 80)
        bb = rng.randint(1, 15)
        cc = rng.randint(1, 80)
        if (a * cc - 1) % bb:
            continue
        rec = links.LinkRecord((1, 1), "P3", (1, 1), a, bb, cc)
        assert mat_det(links.link_matrix(rec)) == -1
        checked += 1

    # classification is independent of the (b, c) model
    for _ in range(1000):
        r = rng.choice(all_r)
        base_tag = classify_aut(QuarticLattice(*canonical_bc(r))).tag
        b0, _ = canonical_bc(r)
        models = set()
        while len(models) < 3:
            s = rng.randint(-5, 5)
            eps = rng.choice((1, -1))
            b = 4 * s + eps * b0
            models.add((b, (b * b - r) // 8))
        for b, c in models:
            assert classify_aut(QuarticLattice(b, c)).tag == base_tag, r

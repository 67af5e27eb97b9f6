"""The whole automorphism group against its definition.

By the Torelli theorem (Piatetski-Shapiro-Shafarevich), on a general
surface with this Picard lattice an isometry g is induced by an
automorphism exactly when g(H) is ample and g glues (gluing_ok). So the
group is read off the ample classes A of square 4: each is g(H) for at
most two isometries g. This test finds those A by brute force, without
Pell, and compares the elements it finds with the ones that classify_aut's
generators reach.
"""
from collections import Counter

from test_surface import _classes_in_box

from quartaut import isometry
from quartaut.lattice import IDENTITY, mat_inv_unimodular, mat_mul
from quartaut.surface import H, QuarticLattice, classify_aut

BOX = 1000
WORD_LENGTH = 12


def _ample_square4_classes(L):
    """The ample classes of square 4 with |y| <= BOX, by the brute-force wall
    oracle: A.H > 0 and A pairs positively with every effective (-2)-class
    of |y| <= BOX. That box holds every wall that could cut A off: in the
    coordinates x = D.H, D.E = (x_D x_E - r y_D y_E)/4, so A.delta <= 0
    with A.H, delta.H > 0 needs 2 y_delta^2 <= y_A^2 + 16/r, and r >= 9
    makes that |y_delta| <= |y_A|."""
    walls = _classes_in_box(L, -2, BOX)
    return [A for A in [H, *_classes_in_box(L, 4, BOX)]
            if all(L.dot(A, w) > 0 for w in walls)]


def _isometries_sending_H_to(L, A):
    """The integer isometries g with g(H) = A: g(W) = (p, q) has A.g(W) = b,
    and det g = A[0]*q - A[1]*p = ±1. The two linear equations have
    determinant A.A = 4, and each solution that is integral and has
    g(W)^2 = 2c gives an isometry."""
    u, v = L.dot(A, H), L.dot(A, (0, 1))
    found = []
    for eps in (1, -1):
        p4, q4 = L.b * A[0] - v * eps, u * eps + L.b * A[1]
        if p4 % 4 or q4 % 4:
            continue
        X = (p4 // 4, q4 // 4)
        if L.dot(X, X) == 2 * L.c:
            found.append(((A[0], X[0]), (A[1], X[1])))
    return found


def _reached(generators):
    """The elements reached from the identity by words of length
    <= WORD_LENGTH in the generators and their inverses, with g(H) in the box."""
    steps = [m for g in generators for m in (g, mat_inv_unimodular(g))]
    seen, layer = {IDENTITY}, {IDENTITY}
    for _ in range(WORD_LENGTH):
        layer = {mat_mul(g, m) for g in layer for m in steps} - seen
        seen |= layer
    return {g for g in seen if abs(g[1][0]) <= BOX}


def _models():
    """Every model with 0 <= b < 8 and 9 <= r <= 300."""
    for b in range(8):
        for r in range(9, 301):
            if (r - b * b) % 8 == 0:
                yield QuarticLattice(b, (b * b - r) // 8)


def test_generators_reach_exactly_the_group_in_a_box():
    models, elements, capped = Counter(), Counter(), 0
    for L in _models():
        try:
            kind = classify_aut(L)
        except RuntimeError as e:
            # the conic scan's cap (ROADMAP item 2); nothing else may raise
            assert str(e).startswith("no positive conic solution"), (L, e)
            capped += 1
            continue
        want = {g for A in _ample_square4_classes(L)
                for g in _isometries_sending_H_to(L, A) if isometry.gluing_ok(L, g)}
        assert all(isometry.is_isometry(L, g) for g in want), L
        assert _reached(kind.generators) == want, (L, kind.tag)
        models[kind.tag] += 1
        elements[kind.tag] += len(want)
    assert capped == 6
    assert models == {"Trivial": 110, "Z": 108, "Z2": 44, "Z2starZ2": 26}
    assert elements == {"Trivial": 110, "Z": 264, "Z2": 68, "Z2starZ2": 82}

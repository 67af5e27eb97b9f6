"""Class existence, the genus/degree dictionary, and the Aut classifier."""
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quartaut import exclusion, pell, surface
from quartaut.isometry import reflection
from quartaut.lattice import IDENTITY, GramLattice, mat_inv_unimodular, mat_mul, mat_vec
from quartaut.surface import (
    CURVE_MODELS,
    H,
    QuarticLattice,
    ample_square2_axes,
    canonical_bc,
    class_with_square_exists,
    classify_aut,
    curve_model,
    find_curve_class,
    forbidden_small_disc,
    genus_degree,
    is_ample,
    realizable_gd,
)

PARTITION = {
    "Trivial": {9, 12, 16, 24, 25, 33, 36, 44, 49, 57},
    "Z2": {17, 41},
    "Z2starZ2": {28, 56},
    "Z": {20, 32, 40, 48},
}

ALL_R = sorted(r for rs in PARTITION.values() for r in rs)


def test_quartic_lattice_validation():
    with pytest.raises(ValueError):
        QuarticLattice(1, 1)  # r = -7
    with pytest.raises(ValueError):
        QuarticLattice(3, 1)  # r = 1 forbidden
    with pytest.raises(ValueError):
        QuarticLattice(2, 0)  # r = 4 forbidden
    with pytest.raises(ValueError):
        QuarticLattice(4, 1)  # r = 8 forbidden
    assert QuarticLattice(1, -2).r == 17


def test_canonical_bc():
    assert canonical_bc(17) == (1, -2)
    assert canonical_bc(20) == (2, -2)
    assert canonical_bc(48) == (0, -6)
    with pytest.raises(ValueError):
        canonical_bc(7)  # 7 mod 8 is not a square residue
    with pytest.raises(ValueError):
        canonical_bc(0)


def test_genus_degree_examples():
    assert genus_degree(QuarticLattice(11, 13), (0, 1)) == (14, 11)
    assert genus_degree(QuarticLattice(11, 13), H) == (3, 4)
    assert genus_degree(QuarticLattice(8, 1), (0, 1)) == (2, 8)


def test_genus_degree_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        genus_degree(QuarticLattice(11, 13), (-1, 0))


def test_genus_degree_rejects_odd_and_too_negative_squares():
    L = QuarticLattice(11, 13)
    # a half-integer class has odd square: (H/2)^2 = 1
    with pytest.raises(ValueError, match="odd self-intersection"):
        genus_degree(L, (Fraction(1, 2), 0))
    # -5H + 2W has degree 2 and square -16
    with pytest.raises(ValueError, match="self-intersection >= -2"):
        genus_degree(L, (-5, 2))


def test_realizable_gd():
    assert realizable_gd(3, 4)  # complete intersection branch, 8g = d^2 + 8
    assert realizable_gd(14, 11)
    assert realizable_gd(15, 11)
    assert realizable_gd(0, 1)
    assert not realizable_gd(3, 5)  # the single excluded pair
    assert not realizable_gd(4, 5)
    assert not realizable_gd(-1, 3)
    assert not realizable_gd(2, 0)


def test_class_with_square_exists_examples():
    # r = 17: a (-2)-class exists; the first congruent sign variant is (-1, 1)
    assert class_with_square_exists(QuarticLattice(1, -2), -2) == (-1, 1)
    # r = 28 has no (-2)-class, r = 20 no 2-class
    assert class_with_square_exists(QuarticLattice(6, 1), -2) is None
    assert class_with_square_exists(QuarticLattice(2, -2), 2) is None


def test_class_with_square_exists_zero_and_errors():
    assert class_with_square_exists(QuarticLattice(1, -2), 0) is None
    # isotropic classes exist exactly over square discriminants
    D = class_with_square_exists(QuarticLattice(1, -1), 0)
    assert D is not None and D != (0, 0)
    L = QuarticLattice(1, -1)
    assert L.dot(D, D) == 0
    with pytest.raises(ValueError):
        class_with_square_exists(QuarticLattice(1, -2), 3)


def test_nonzero_square_zero_class_matches_small_y_search():
    # oracle: the first congruent x = ±t*y over y = 1..4, +t before -t
    def first_hit(b, t):
        for y in range(1, 5):
            for x in (t * y, -t * y):
                if (x - b * y) % 4 == 0:
                    return ((x - b * y) // 4, y)
        return None

    models = 0
    for t in range(3, 45):
        for b in range(-12, 13):
            if (b * b - t * t) % 8:
                continue
            L = QuarticLattice(b, (b * b - t * t) // 8)
            assert class_with_square_exists(L, 0) == first_hit(b, t), (b, t)
            models += 1
    assert models > 300


@given(st.sampled_from(ALL_R), st.sampled_from([-2, 0, 2, 4, 6, -4]))
def test_class_with_square_exists_is_sound(r, k):
    L = QuarticLattice(*canonical_bc(r))
    D = class_with_square_exists(L, k)
    if D is not None:
        assert D != (0, 0)
        assert L.dot(D, D) == k


def test_find_curve_class_examples():
    assert find_curve_class(QuarticLattice(8, 1), (2, 8)) == (4, -1)
    assert find_curve_class(QuarticLattice(4, -4), (3, 8)) == (3, -1)
    assert find_curve_class(QuarticLattice(1, -2), (14, 11)) == (3, -1)
    # index 17: beyond any small |y| bound
    assert find_curve_class(QuarticLattice(1, -2), (17, 71)) == (22, -17)


def test_find_curve_class_matches_enumeration():
    """Against a naive enumeration over |y| <= 40, which is exhaustive on
    this grid: y^2 = (d^2 - 8(g - 1))/r <= (80^2 + 8)/9 < 41^2."""
    ys = sorted(range(-40, 41), key=lambda y: (abs(y), y))
    beyond_16 = 0
    for b, c in ((1, -1), (2, -1), (0, -2), (1, -2), (11, 13), (3, -5), (6, 1), (8, 1)):
        L = QuarticLattice(b, c)
        for g in range(25):
            for d in range(1, 81):
                naive = None
                for y in ys:
                    D = ((d - b * y) // 4, y)
                    if (d - b * y) % 4 == 0 and L.dot(D, D) == 2 * g - 2:
                        naive = D
                        break
                assert find_curve_class(L, (g, d)) == naive, (b, c, g, d)
                beyond_16 += naive is not None and abs(naive[1]) > 16
    assert beyond_16 > 0


def test_find_curve_class_pinned_models():
    # each curve model carries W itself as the record curve
    for r, ((b, c), (g, d)) in CURVE_MODELS.items():
        L, gd = curve_model(r)
        assert (L.b, L.c) == (b, c) and gd == (g, d)
        D = find_curve_class(L, gd)
        assert D is not None
        assert L.dot(H, D) == d
        assert L.dot(D, D) == 2 * g - 2
        # {H, D} span the whole lattice: disc of the span equals r
        span_disc = L.dot(H, D) ** 2 - L.dot(H, H) * L.dot(D, D)
        assert span_disc == r
    with pytest.raises(KeyError):
        curve_model(9)


def test_find_curve_class_refuses_targets_no_curve_has():
    """genus_degree refuses every class of degree <= 0 or of square
    2g - 2 < -2, so find_curve_class answers None for d < 1 or g < 0; on
    the rest of the grid every class it returns has the target. Some
    refused targets solve H.D = d, D^2 = 2g - 2 all the same: (1, 0) by the
    zero class, and (-1, 5) on r = 41 by (1, 1), of square -4."""
    assert find_curve_class(QuarticLattice.from_disc(41), (-1, 5)) is None
    solvable = found = 0
    for L in (QuarticLattice(3, 0), QuarticLattice(0, -2), QuarticLattice(1, -3),
              QuarticLattice(1, -5), QuarticLattice(2, -1), QuarticLattice(8, 1)):
        assert find_curve_class(L, (1, 0)) is None, L
        for g in range(-4, 8):
            for d in range(-6, 16):
                D = find_curve_class(L, (g, d))
                if d < 1 or g < 0:
                    assert D is None, (L, g, d, D)
                    solvable += surface._index(L.r, d, 2 * (g - 1)) is not None
                elif D is not None:
                    assert genus_degree(L, D) == (g, d), (L, g, d, D)
                    found += 1
    assert solvable > 0 and found > 0, (solvable, found)


def test_forbidden_small_disc_examples():
    assert surface.FORBIDDEN_DISCS is exclusion.FORBIDDEN_DISCS
    assert forbidden_small_disc(3, 1) == ((1, -1), (0, 1))
    assert forbidden_small_disc(2, 0) == ((0, 1), (0, 2))
    assert forbidden_small_disc(4, 1) == ((1, -1), (-2, 0))
    with pytest.raises(ValueError):
        forbidden_small_disc(1, -2)  # r = 17 is fine, not forbidden


def test_forbidden_small_disc_witnesses_verify():
    for b, c in ((3, 1), (5, 3), (2, 0), (6, 4), (4, 1), (0, -1)):
        E, (sq, deg) = forbidden_small_disc(b, c)
        from quartaut.lattice import GramLattice, pairing

        base = GramLattice(4, b, 2 * c)
        assert pairing(base, E, E) == sq
        assert pairing(base, H, E) == deg
        assert (sq, deg) == surface.FORBIDDEN_DISCS[b * b - 8 * c]


def test_classify_examples():
    assert classify_aut(QuarticLattice(1, -5)).tag == "Z2"
    assert classify_aut(QuarticLattice(6, 1)).tag == "Z2starZ2"
    assert classify_aut(QuarticLattice(4, -4)).tag == "Z"
    assert classify_aut(QuarticLattice(1, -1)).tag == "Trivial"


def test_classification_partition():
    for tag, rs in PARTITION.items():
        for r in rs:
            L = QuarticLattice(*canonical_bc(r))
            assert classify_aut(L).tag == tag, r


def test_generator_counts_match_tag():
    for r in ALL_R:
        kind = classify_aut(QuarticLattice(*canonical_bc(r)))
        want = {"Trivial": 0, "Z2": 1, "Z2starZ2": 2, "Z": 1}[kind.tag]
        assert len(kind.generators) == want


def test_finite_order_generators_are_involutions():
    for r in sorted(PARTITION["Z2"] | PARTITION["Z2starZ2"]):
        L = QuarticLattice(*canonical_bc(r))
        kind = classify_aut(L)
        for m in kind.generators:
            assert m != IDENTITY
            assert mat_mul(m, m) == IDENTITY


def test_ample_axes_are_ample_and_sorted():
    for r in sorted(PARTITION["Z2"] | PARTITION["Z2starZ2"]):
        L = QuarticLattice(*canonical_bc(r))
        axes = ample_square2_axes(L)
        assert axes
        for A in axes:
            assert L.dot(A, A) == 2
            assert is_ample(L, A)
        keys = [(abs(A[1]), A[1], L.dot(H, A)) for A in axes]
        assert keys == sorted(keys)


def test_no_ample_axes_in_trivial_and_z_cases():
    for r in sorted(PARTITION["Trivial"] | PARTITION["Z"]):
        L = QuarticLattice(*canonical_bc(r))
        assert ample_square2_axes(L) == []


def test_classify_aut_returns_the_witnesses_that_decide_its_tag():
    """Every canonical model with r <= 260: the obstruction exists exactly
    for Trivial and Z2 and has square 0 (nonzero) or -2; the axes are
    ample_square2_axes, and the involutions reflect along them."""
    for r in range(9, 261):
        if r % 8 not in (0, 1, 4):
            continue
        L = QuarticLattice(*canonical_bc(r))
        kind = classify_aut(L)
        assert (kind.obstruction is not None) == (kind.tag in ("Trivial", "Z2")), r
        if kind.obstruction is not None:
            sq = L.dot(kind.obstruction, kind.obstruction)
            assert sq == -2 or (sq == 0 and kind.obstruction != (0, 0)), r
        assert kind.axes == tuple(ample_square2_axes(L)), r
        if kind.tag in ("Z2", "Z2starZ2"):
            assert kind.generators == tuple(reflection(L, A) for A in kind.axes), r


def test_classify_asks_pell_no_class_question(monkeypatch):
    """One classify_aut on every canonical model with 9 <= r <= 260 asks
    pell.solution_class_reps nothing, square r included: nonsquare r reads
    its classes of square -2 off the cycle of reduced forms, square r in
    closed form. Those classes give both the obstruction and the chamber
    walls of the 31 models that the Pell dictionary finds walled."""
    asked, real = [], pell.solution_class_reps
    monkeypatch.setattr(pell, "solution_class_reps",
                        lambda D, n: asked.append((D, n)) or real(D, n))
    walled = 0
    for r in range(9, 261):
        if r % 8 not in (0, 1, 4):
            continue
        L = QuarticLattice(*canonical_bc(r))
        asked.clear()
        kind = classify_aut(L)
        assert asked == [], (r, asked)
        if class_with_square_exists(L, -2) is not None:
            walled += 1
            assert surface._chamber_walls(L) and kind.obstruction is not None, r
    assert walled == 31


def test_square_r_neg2_classes_are_the_pell_classes():
    """On every square model r = t^2 with 3 <= t < 200 and |b| <= 12, the
    closed form of surface._classes gives, as a set, the classes of square
    -2 read off pell.solution_class_reps(t^2, -8) with x ≡ b*y (mod 4):
    those of r = 9 and none elsewhere."""
    models = nonempty = 0
    for t in range(3, 200):
        reps = pell.solution_class_reps(t * t, -8)
        for b in range(-12, 13):
            if (b * b - t * t) % 8:
                continue
            L = QuarticLattice(b, (b * b - t * t) // 8)
            want = {((x - b * y) // 4, y) for x, y in reps if (x - b * y) % 4 == 0}
            neg2, pos2, A = surface._classes(L)
            assert set(neg2) == want and len(neg2) == len(want), (b, t)
            assert pos2 == [] and A is None, (b, t)
            models += 1
            nonempty += bool(want)
    assert models == 1825
    assert nonempty == 12  # the models of r = 9, every odd |b| <= 11


def test_classify_walks_one_reduced_cycle_past_r_64(monkeypatch):
    """On every canonical model with 64 < r <= 1000, classify_aut reads the
    classes of x^2 - r*y^2 = ±8 off one cycle of reduced forms on nonsquare
    r, a single walk per model, and the LMM search never runs. The 25
    models the conic scan refuses walk their cycle before the scan."""
    lmm, cycles = [], []
    real_lmm, real_cycle = pell._lmm_reps, surface._reduced_cycle
    monkeypatch.setattr(pell, "_lmm_reps", lambda D, N: lmm.append((D, N)) or real_lmm(D, N))
    monkeypatch.setattr(surface, "_reduced_cycle",
                        lambda L: cycles.append(L.r) or real_cycle(L))
    rs = [r for r in range(65, 1001) if r % 8 in (0, 1, 4)]
    refused = 0
    for r in rs:
        try:
            classify_aut(QuarticLattice.from_disc(r))
        except RuntimeError as e:
            assert "|beta| <= 1000000" in str(e), (r, e)
            refused += 1
    assert lmm == []
    assert cycles == [r for r in rs if not pell.is_square(r)]
    assert refused == 25


def test_classify_builds_no_gram_lattice(monkeypatch):
    """On every canonical model with 9 < r <= 1000, classify_aut pairs, glues
    and reflects on (b, c) alone and constructs no GramLattice; the 25
    models the conic scan refuses are counted up to the raise."""
    built, real = [], GramLattice.__new__
    monkeypatch.setattr(GramLattice, "__new__",
                        staticmethod(lambda cls, *q: built.append(q) or real(cls, *q)))
    refused = 0
    for r in range(10, 1001):
        if r % 8 not in (0, 1, 4):
            continue
        built.clear()
        try:
            classify_aut(QuarticLattice.from_disc(r))
        except RuntimeError:
            refused += 1
        assert built == [], (r, built[:3])
    assert refused == 25
    GramLattice(4, 1, -2)  # the count is live
    assert built == [(4, 1, -2)]


def test_classification_runs_no_pell_solver_on_any_r(monkeypatch):
    """On every canonical model with 9 <= r <= 1000, square and nonsquare,
    and on the 8 curve models, classify_aut, _chamber_walls,
    ample_square2_axes and minimal_gluing_exponent run nothing of the Pell
    solver: neither its class search (pell.solution_class_reps) nor its
    unit (pell.fundamental_solution, pell._unit_data). Nonsquare r reads
    the classes of square -2 and 2 off the cycle of reduced forms, square r
    in closed form, and the conic scan needs no unit bound. Square r has no
    infinite-order isometry, so minimal_gluing_exponent refuses its 29
    models with a ValueError. The models the conic scan refuses (25 in
    classify_aut; 40 in minimal_gluing_exponent, which also scans the
    Z2starZ2 models) read their walls before the scan."""
    from quartaut import isometry

    def must_not_run(name):
        def run(*args):
            raise AssertionError("pell.%s%r was asked" % (name, args))
        return run

    for name in ("solution_class_reps", "fundamental_solution", "_unit_data"):
        monkeypatch.setattr(pell, name, must_not_run(name))
    models = [QuarticLattice.from_disc(r) for r in range(9, 1001) if r % 8 in (0, 1, 4)]
    models += [curve_model(r)[0] for r in CURVE_MODELS]
    layers = (classify_aut, isometry.minimal_gluing_exponent)
    refused = dict.fromkeys(layers, 0)
    square = 0
    for L in models:
        surface._chamber_walls(L)
        ample_square2_axes(L)
        for layer in layers:
            try:
                layer(L)
            except ValueError as e:
                assert layer is not classify_aut and pell.is_square(L.r), (L, e)
                assert "square discriminant" in str(e), (L, e)
                square += 1
            except RuntimeError as e:
                walls = "(-2)-walls" in str(e) and layer is not classify_aut
                assert walls or "|beta| <= 1000000" in str(e), (L, e)
                refused[layer] += not walls
    assert square == 29
    assert tuple(refused.values()) == (25, 40)


def _old_walls_and_axes(L):
    """Walls and axes by the rule that read them off the Pell classes: the
    classes of square k from pell.solution_class_reps(r, 4k), each the
    least-|y| point of its orbit under the Pell automorph T, and their
    images under T and T^-1; on each side of H the least degree. With two
    walls the axis is (delta1 + delta2)/n, n^2 = delta1.delta2 - 2."""
    T = surface.automorph(L)
    steps = (T, mat_inv_unimodular(T))

    def least_each_side(k):
        starts = [((x - L.b * y) // 4, y) for x, y in pell.solution_class_reps(L.r, 4 * k)
                  if (x - L.b * y) % 4 == 0]
        cands = [surface._normalize_effective(L.b, D)
                 for s in starts for D in (s, *(mat_vec(M, s) for M in steps))]
        sides = ([D for D in cands if D[1] <= 0], [D for D in cands if D[1] > 0])
        least = [min(side, key=lambda D: (L.dot(H, D), D)) for side in sides if side]
        return sorted(least, key=lambda D: (abs(D[1]), D[1], L.dot(H, D)))

    walls = least_each_side(-2)
    if not walls:
        return walls, least_each_side(2)
    d1, d2 = walls
    s, m = (d1[0] + d2[0], d1[1] + d2[1]), L.dot(d1, d2) - 2
    n = isqrt(m)
    if n * n != m or s[0] % n or s[1] % n:
        return walls, []
    return walls, [(s[0] // n, s[1] // n)]


def _point(L, D):
    """Where D sits on the hyperbolic line H + tE, E = (-b, 4) spanning H's
    orthogonal complement (E^2 = -4r): D = (x/4)H + (y/4)E with x = D.H
    after normalizing x > 0, so t = y/x for D^2 > 0 and t = x/(r*y), the
    wall of D, for D^2 < 0."""
    x, y = L.dot(H, D), D[1]
    if x < 0:
        x, y = -x, -y
    return Fraction(y, x) if L.dot(D, D) > 0 else Fraction(x, L.r * y)


def test_reduced_cycle_against_the_pell_classes():
    """Every nonsquare model with |b| <= 12 and r <= 3000: each class the
    cycle returns has square -2 or 2 as listed and sits (its point or its
    wall) strictly between H and A*H, A is an isometry of determinant 1,
    the Pell automorph is ±A^j for some j >= 1, and the walls and axes are
    those of the Pell-class rule. For r <= 300 the cycle finds a class of
    square -2 (and of square 2) whenever a |y| <= 60 search does; it also
    finds classes past the box, such as (-197585722, -31750313) of square 2
    on QuarticLattice(-11, -9)."""
    from quartaut import isometry

    models = powers = boxed = 0
    for b in range(-12, 13):
        for r in range(9, 3001):
            if (b * b - r) % 8 or pell.is_square(r):
                continue
            L = QuarticLattice(b, (b * b - r) // 8)
            neg2, pos2, A = surface._reduced_cycle(L)
            assert all(L.dot(D, D) == -2 for D in neg2), L
            assert all(L.dot(D, D) == 2 for D in pos2), L
            lo, hi = sorted((Fraction(0), _point(L, mat_vec(A, H))))
            assert all(lo < _point(L, D) < hi for D in neg2 + pos2), L
            assert isometry.is_isometry(L, A), L
            assert A[0][0] * A[1][1] - A[0][1] * A[1][0] == 1, L
            T, Aj, j = surface.automorph(L), A, 1
            while T not in (Aj, tuple(tuple(-e for e in row) for row in Aj)):
                Aj, j = mat_mul(Aj, A), j + 1
                assert j <= 6, L
            powers += j > 1
            walls, axes = _old_walls_and_axes(L)
            assert surface._chamber_walls(L) == walls, L
            assert ample_square2_axes(L) == axes, L
            if r <= 300:
                for k, found in ((-2, neg2), (2, pos2)):
                    in_box = bool(_classes_in_box(L, k, 60))
                    assert found or not in_box, (L, k)
                    boxed += in_box
            models += 1
    assert (models, powers, boxed) == (8869, 2077, 484)


def test_a_class_step_is_one_whose_quotient_passes_half_the_root():
    """_reduced_cycle reads a class of square ±2 at the steps with
    2*a > floor(sqrt(r)), which must be the steps from a state with Q = 2.
    On every start (b0, (r - b0^2)/4) of its cycle for nonsquare
    12 <= r <= 5000, walked one period here with the test's own (P, Q) step,
    every state is reduced and the two rules pick the same steps."""
    starts = steps = classes = 0
    for r in range(12, 5001):
        sd = isqrt(r)
        if sd * sd == r:
            continue
        for b0 in range(sd - 3, sd + 1):
            if (r - b0 * b0) % 8:
                continue
            P, Q = start = b0, (r - b0 * b0) // 4
            while True:
                assert 0 < Q <= P + sd and sd - Q < P <= sd, (r, b0, P, Q)
                a = (P + sd) // Q
                assert (2 * a > sd) == (Q == 2), (r, b0, P, Q)
                classes += Q == 2
                P = a * Q - P
                Q = (r - P * P) // Q
                steps += 1
                if (P, Q) == start:
                    break
            starts += 1
    assert (starts, steps, classes) == (2394, 48321, 929)


def test_cycle_automorph_generates_the_isometries_in_a_box():
    """Every determinant-1 isometry g of a nonsquare model with |b| <= 8 and
    9 < r <= 300 whose image (x, y) of H has |y| <= 3000 is ±A^j, A from
    _reduced_cycle, and every ±A^j in that box is found. g is read off g*H:
    H^2 = 4 reads (4x + b*y)^2 - r*y^2 = 16, and g*W = (p, q) solves
    (g*H).(g*W) = b and x*q - y*p = 1, whose determinant is (g*H)^2 = 4, so
    (p, q) = (-c*y/2, x + b*y/2); g is an isometry when that is integral,
    as the Gram determinant then fixes (g*W)^2 = 2c. The lower-left entry of
    A^j is U_j times A's, with |U_j| strictly growing in |j| since
    |tr A| > 2, so the walk over j stops once it leaves the box."""
    from quartaut import isometry

    box = 3000
    models = found_total = nontrivial = 0
    for b in range(-8, 9):
        for r in range(10, 301):
            if (b * b - r) % 8 or pell.is_square(r):
                continue
            c = (b * b - r) // 8
            L = QuarticLattice(b, c)
            found = set()
            for y in range(-box, box + 1):
                X0 = isqrt(16 + r * y * y)
                if X0 * X0 != 16 + r * y * y or (c * y) % 2 or (b * y) % 2:
                    continue
                for X in {X0, -X0}:
                    if (X - b * y) % 4 == 0:
                        x = (X - b * y) // 4
                        found.add(((x, -c * y // 2), (y, x + b * y // 2)))
            A = surface._reduced_cycle(L)[2]
            powers = set()
            for M in (A, mat_inv_unimodular(A)):
                Mj = IDENTITY
                while abs(Mj[1][0]) <= box:
                    powers.update({Mj, tuple(tuple(-e for e in row) for row in Mj)})
                    Mj = mat_mul(Mj, M)
            assert found == powers, (L, sorted(found ^ powers)[:4])
            assert all(isometry.is_isometry(L, g) for g in found), L
            models += 1
            found_total += len(found)
            nontrivial += len(found - {IDENTITY, ((-1, 0), (0, -1))})
    assert (models, found_total, nontrivial) == (528, 4288, 3232)


def test_cycle_automorph_has_determinant_one():
    """_least_degree_each_side reads A^-1 off A's entries as
    ((a22, -a12), (-a21, a11)), which holds only for det A = 1; the cycle
    multiplies determinant-1 steps, checked on the 1925 nonsquare models with
    -8 <= b <= 8 and 9 <= r <= 1000."""
    models = 0
    for b in range(-8, 9):
        for r in range(9, 1001):
            if (b * b - r) % 8 or pell.is_square(r):
                continue
            L = QuarticLattice(b, (b * b - r) // 8)
            (a11, a12), (a21, a22) = surface._reduced_cycle(L)[2]
            assert a11 * a22 - a12 * a21 == 1, (b, r)
            models += 1
    assert models == 1925


def _old_least_degree_each_side(L, starts, A):
    """The reader composed from the general tools: invert A, normalize each
    class effective (D.H > 0, a D.H = 0 tie broken lexicographically), keep
    the least (D.H, D) per side of y > 0, and sort by (|y|, y, D.H)."""
    if A is not None:
        starts = starts + [mat_vec(mat_inv_unimodular(A), D) for D in starts]
    least = {}
    for D in starts:
        d = L.dot(H, D)
        if d < 0 or (d == 0 and D < (-D[0], -D[1])):
            D, d = (-D[0], -D[1]), -d
        least[D[1] > 0] = min((d, D), least.get(D[1] > 0, (d, D)))
    return sorted((D for _, D in least.values()),
                  key=lambda D: (abs(D[1]), D[1], L.dot(H, D)))


_STEP = st.one_of(st.integers(-5, 5).map(lambda s: ((0, -1), (1, s))),
                  st.integers(-5, 5).map(lambda k: ((1, k), (0, 1))))
_COORD = st.one_of(st.integers(-3, 3), st.integers(-50, 50))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([QuarticLattice(b, c) for b in range(-3, 4) for c in (-5, -3, -2)]),
       st.lists(st.tuples(_COORD, _COORD).filter(any), max_size=6),
       st.none() | st.lists(_STEP, max_size=6))
@example(QuarticLattice(1, -2), [(1, 0), (2, -4), (0, 4), (-1, 4)], None)  # D.H ties
@example(QuarticLattice(1, -2), [(3, 2), (-1, -1)], None)  # one side only
@example(QuarticLattice(0, -2), [(2, 5), (-3, -5)], [((0, -1), (1, 2))])
def test_least_degree_each_side_matches_the_old_reader(L, starts, steps):
    """The reader against its composition from mat_inv_unimodular,
    mat_vec, a dict keyed on the side and sorted, on random classes
    (|x|, |y| <= 50, degree ties, y = 0 and one-sided lists among them) and
    a random determinant-1 A, a product of ((0, -1), (1, s)) and
    ((1, k), (0, 1)) with |s|, |k| <= 5."""
    A = None if steps is None else IDENTITY
    for M in steps or ():
        A = mat_mul(A, M)
    assert surface._least_degree_each_side(L, starts, A) == \
        _old_least_degree_each_side(L, starts, A)


def test_hyperplane_is_ample():
    for r in ALL_R:
        L = QuarticLattice(*canonical_bc(r))
        assert is_ample(L, H)
        assert not is_ample(L, (-1, 0))


def test_is_ample_matches_brute_force():
    """Against the definition with every effective (-2)-class of the box
    |a|, |y| <= 40 as a wall, for every model with b < 8 and r <= 200. On
    square r the walls include classes from both signs of y."""
    box = range(-40, 41)
    mismatches = []
    for b in range(8):
        for c in range((b * b - 200 + 7) // 8, (b * b - 1) // 8 + 1):
            if b * b - 8 * c in (1, 4, 8):
                continue
            L = QuarticLattice(b, c)
            walls = [(a, y) for a in box for y in box
                     if 4 * a * a + 2 * b * a * y + 2 * c * y * y == -2 and 4 * a + b * y > 0]
            for A in ((x, y) for x in range(-8, 9) for y in range(-8, 9)):
                want = (L.dot(H, A) > 0 and L.dot(A, A) > 0
                        and all(L.dot(A, w) > 0 for w in walls))
                if is_ample(L, A) != want:
                    mismatches.append((b, c, A))
    assert not mismatches, mismatches[:5]
    # the (-2)-class (1, -1) of QuarticLattice(3, 0) cuts (2, -1) off
    assert not is_ample(QuarticLattice(3, 0), (2, -1))


def _classes_in_box(L, k, box):
    """Every normalized class of square k with 0 < |y| <= box, by trying each
    y: r*y^2 + 4k = x^2 with x > 0 and x ≡ b*y (mod 4) gives
    D = ((x - b*y)/4, y) with D.H = x."""
    found = []
    for y in range(-box, box + 1):
        v = L.r * y * y + 4 * k
        x = isqrt(max(v, 0))
        if y and x * x == v and (x - L.b * y) % 4 == 0:
            found.append(((x - L.b * y) // 4, y))
    return found


def _least_y_each_side(L, k, box):
    """The class of _classes_in_box with least |y| on each side of H."""
    found = _classes_in_box(L, k, box)
    sides = ([D for D in found if D[1] < 0], [D for D in found if D[1] > 0])
    return [min(side, key=lambda D: abs(D[1])) for side in sides if side]


def test_walls_and_axes_match_least_y_search():
    """Every model with b < 8 and 9 <= r <= 900, square r included: within
    |y| <= 100 the chamber walls are the least-|y| (-2)-classes on each side
    of H. With no walls or on square r so are the square-2 axes (on square
    r both sides are empty); with walls on nonsquare r the axes are the
    square-2 classes that pair positively with both brute-force walls, and
    there is at most one. On a side the degree grows with |y|, so least |y|
    is least degree."""
    box = 100
    mismatches, walled, with_axis, axis_in_box = [], 0, 0, 0
    for b in range(8):
        for r in range(9, 901):
            if (r - b * b) % 8:
                continue
            L = QuarticLattice(b, (b * b - r) // 8)
            walls, want_walls = surface._chamber_walls(L), _least_y_each_side(L, -2, box)
            axes = ample_square2_axes(L)
            if not walls or pell.is_square(r):
                want_axes = _least_y_each_side(L, 2, box)
                if pell.is_square(r) and axes:
                    mismatches.append((b, r, axes))
            else:
                want_axes = [D for D in _classes_in_box(L, 2, box)
                             if all(L.dot(D, w) > 0 for w in want_walls)]
                walled += 1
                with_axis += bool(axes)
                axis_in_box += bool(want_axes)
                if len(axes) > 1:
                    mismatches.append((b, r, axes))
            for got, want in ((walls, want_walls), (axes, want_axes)):
                inside = sorted(D for D in got if abs(D[1]) <= box)
                if inside != sorted(want):
                    mismatches.append((b, r, got, want))
    assert not mismatches, mismatches[:5]
    assert (walled, with_axis, axis_in_box) == (286, 116, 52)


def _models_for(r, shifts=(0, 1, -1, 2, -2, 3)):
    """Several (b, c) models of the same discriminant: b -> b + 4s keeps
    b^2 - 8c soluble with c adjusted, since (b + 4s)^2 = b^2 (mod 8)."""
    b0, c0 = canonical_bc(r)
    out = []
    for s in shifts:
        b = b0 + 4 * s
        c = (b * b - r) // 8
        out.append(QuarticLattice(b, c))
    return out


def test_tag_is_model_independent():
    # at least 3 distinct models per discriminant, as the change of basis
    # H -> H, W -> sH + W realizes them all
    for r in ALL_R:
        models = _models_for(r)
        assert len({(L.b, L.c) for L in models}) >= 3
        tags = {classify_aut(L).tag for L in models}
        assert len(tags) == 1, (r, tags)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(ALL_R), st.integers(-6, 6), st.sampled_from([1, -1]))
def test_tag_invariant_under_basis_change_fixing_H(r, s, eps):
    # W -> sH + eps*W is the general unimodular change fixing H
    b0, c0 = canonical_bc(r)
    L0 = QuarticLattice(b0, c0)
    b1 = 4 * s + eps * b0
    c1 = (b1 * b1 - r) // 8
    L1 = QuarticLattice(b1, c1)
    assert classify_aut(L1).tag == classify_aut(L0).tag


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_R), st.integers(-6, 6), st.sampled_from([1, -1]))
def test_generators_transport_along_basis_change(r, s, eps):
    """Conjugating the generators of one model by the change of basis gives
    isometries of the other model satisfying the generator contract."""
    from quartaut import isometry
    from quartaut.lattice import mat_inv_unimodular

    b0, c0 = canonical_bc(r)
    L0 = QuarticLattice(b0, c0)
    b1 = 4 * s + eps * b0
    L1 = QuarticLattice(b1, (b1 * b1 - r) // 8)
    # columns of P are the L1 basis written in the L0 basis
    P = ((1, s), (0, eps))
    for m in classify_aut(L1).generators:
        transported = mat_mul(mat_mul(P, m), mat_inv_unimodular(P))
        assert isometry.is_isometry(L0, transported)
        assert isometry.gluing_ok(L0, transported)
        assert isometry.torelli_ok(L0, transported)

"""Isometry checks, descent criteria, and the printed generator matrices."""
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quartaut.lattice import IDENTITY, mat_mul, reflection_in
from quartaut.surface import (
    H, QuarticLattice, canonical_bc, class_with_square_exists, classify_aut,
    curve_model,
)
from quartaut import isometry, pell, surface
from oracles import automorph, infinite_order_form, mat_pow, mat_vec

L17 = QuarticLattice(11, 13)
M17 = ((19, 72), (-5, -19))

GENERATORS = {
    17: (((19, 72), (-5, -19)),),
    20: (((29, 40), (-8, -11)),),
    28: (((23, 88), (-6, -23)), ((-7, -8), (6, 7))),
    32: (((41, 24), (-12, -7)),),
    40: (((43, 18), (-12, -5)),),
    41: (((27, 104), (-7, -27)),),
    48: (((209, 56), (-56, -15)),),
    56: (((31, 120), (-8, -31)), ((-1, 0), (8, 1))),
}


def test_is_isometry_examples():
    assert isometry.is_isometry(L17, M17)
    assert isometry.is_isometry(L17, IDENTITY)
    assert not isometry.is_isometry(L17, ((1, 1), (0, 1)))


def test_gluing_examples():
    assert isometry.gluing_ok(L17, M17)
    assert isometry.gluing_ok(L17, IDENTITY)
    # at disc 48 the minimal hyperbolic element only glues at its 4th power
    L48, _ = curve_model(48)
    h = ((4, 1), (-1, 0))
    assert isometry.is_isometry(L48, h)
    assert not isometry.gluing_ok(L48, h)
    assert isometry.gluing_ok(L48, mat_pow(h, 4))


def test_torelli_examples():
    L48, _ = curve_model(48)
    assert isometry.torelli_ok(L48, ((209, 56), (-56, -15)))
    assert isometry.torelli_ok(L17, M17)
    minus = ((-1, 0), (0, -1))
    assert not isometry.torelli_ok(L17, minus)
    assert not isometry.torelli_ok(L48, minus)


def test_involution_form_examples():
    assert isometry.involution_form(L17, 19, 72) == M17
    # (1, 0) always solves the conic but is only integral when c divides b
    assert isometry.involution_form(L17, 1, 0) is None
    L56, _ = curve_model(56)
    assert isometry.involution_form(L56, -1, 0) == ((-1, 0), (8, 1))


def test_involution_form_rejections():
    # the shipped involution family and the oracle's infinite-order family
    # refuse c = 0 and points off the conic alike
    for form in (isometry.involution_form, infinite_order_form):
        with pytest.raises(ValueError):
            form(QuarticLattice(4, 0), 1, 0)  # c = 0
        with pytest.raises(ValueError):
            form(L17, 2, 3)  # not on the conic


def test_infinite_order_form_needs_c_to_divide_b_beta():
    L = QuarticLattice(1, -2)
    # (-4, 3) lies on the conic -2a^2 - a*t + 2t^2 = -2 and c | 2*beta, but c does not
    # divide b*beta
    assert L.c * 16 - L.b * -4 * 3 + 2 * 9 == L.c
    assert infinite_order_form(L, -4, 3) is None


def test_minimal_quadeq_solutions():
    assert isometry.minimal_quadeq_solution(curve_model(20)[0]) == (4, 5)
    assert isometry.minimal_quadeq_solution(curve_model(32)[0]) == (7, 4)
    assert isometry.minimal_quadeq_solution(curve_model(48)[0]) == (4, 1)
    assert isometry.minimal_quadeq_solution(curve_model(40)[0]) == (43, 18)


def _conic_oracle(b, c, r, limit=400):
    """Unit-step scan over 1 <= |beta| <= limit that tests integrality of the
    infinite-order form at every beta."""
    for size in range(1, limit + 1):
        for beta in (size, -size):
            if (2 * beta) % c or (b * beta) % c:
                continue
            s2 = r * beta * beta + 4 * c * c
            s = isqrt(s2)
            if s * s != s2:
                continue
            for root in (b * beta + s, b * beta - s):
                if root % (2 * c):
                    continue
                alpha = root // (2 * c)
                if alpha > 0 and c * (2 * alpha * c - b * beta) > 0:
                    return alpha, beta
    return None


def test_minimal_quadeq_matches_unit_step_oracle():
    # the scan steps |beta| by |c|/gcd(c, 2, b); wherever the unit-step
    # oracle finds a solution the scan must find the same one
    found = 0
    for b in range(-8, 9):
        for r in range(9, 401):
            # r nonsquare, so c != 0
            if (b * b - r) % 8 or isqrt(r) ** 2 == r:
                continue
            c = (b * b - r) // 8
            sol = _conic_oracle(b, c, r)
            if sol is None:
                continue
            L = QuarticLattice(b, c)
            assert isometry.minimal_quadeq_solution(L) == sol, (b, c)
            assert infinite_order_form(L, *sol) is not None, (b, c)
            found += 1
    assert found == 327


def test_conic_scan_stops_at_the_automorph():
    """|beta| = 2|c|u, (t, u) the fundamental Pell solution, is where the
    automorph sits in the infinite-order family: alpha = t - b*u,
    beta = -2c*u. So on a wall-free lattice the scan returns by that
    |beta|, or raises only when it lies past the cap."""
    found = capped = 0
    for b in range(-8, 9):
        for r in range(9, 401):
            if (b * b - r) % 8 or isqrt(r) ** 2 == r:
                continue
            c = (b * b - r) // 8
            L = QuarticLattice(b, c)
            t, u = pell.fundamental_solution(r)
            assert automorph(L) == infinite_order_form(L, t - b * u, -2 * c * u), (b, c)
            # on walled lattices 2|c|u often lies past the cap, and the scan runs to it
            if class_with_square_exists(L, -2) is not None:
                continue
            try:
                _, beta = isometry.minimal_quadeq_solution(L)
            except RuntimeError:
                assert 2 * abs(c) * u > isometry._QUADEQ_HARD_CAP, (b, c)
                capped += 1
                continue
            assert abs(beta) <= 2 * abs(c) * u, (b, c)
            found += 1
    assert (found, capped) == (408, 41)  # the 449 wall-free models


def test_minimal_quadeq_rejects_square_disc():
    """One refusal per square-discriminant lattice, whatever the model: the
    c = 0 models (r = b^2) get the same reason as the others."""
    with pytest.raises(ValueError, match="square discriminant"):
        isometry.minimal_quadeq_solution(QuarticLattice(1, -1))  # r = 9
    for b in range(3, 13):
        with pytest.raises(ValueError, match="square discriminant"):
            isometry.minimal_quadeq_solution(QuarticLattice(b, 0))  # r = b^2


def test_conic_cap_bounds_beta_inclusively(monkeypatch):
    """The scan tries every multiple of sigma up to and including the cap:
    on the r = 20 curve model (sigma = 5) the solution (4, 5) is found with
    the cap at 5 and refused, naming the cap, with the cap at 4."""
    L, _ = curve_model(20)
    monkeypatch.setattr(isometry, "_QUADEQ_HARD_CAP", 5)
    assert isometry.minimal_quadeq_solution(L) == (4, 5)
    monkeypatch.setattr(isometry, "_QUADEQ_HARD_CAP", 4)
    with pytest.raises(RuntimeError, match=r"\|beta\| <= 4;"):
        isometry.minimal_quadeq_solution(L)


def test_reflection_examples():
    assert isometry.reflection(L17, (4, -1)) == M17
    L41, _ = curve_model(41)
    assert isometry.reflection(L41, (4, -1)) == ((27, 104), (-7, -27))
    with pytest.raises(ValueError):
        isometry.reflection(L17, (1, 0))  # H^2 = 4, not an axis


def test_reflection_fixes_axis_and_squares_to_identity():
    cases = [(L17, (4, -1)), (curve_model(41)[0], (4, -1))]
    for r in (28, 56):
        L, _ = curve_model(r)
        from quartaut.surface import ample_square2_axes

        for A in ample_square2_axes(L):
            cases.append((L, A))
    for L, A in cases:
        m = isometry.reflection(L, A)
        assert mat_vec(m, A) == A
        assert mat_mul(m, m) == IDENTITY


def test_printed_generator_matrices():
    for r, want in GENERATORS.items():
        L, _ = curve_model(r)
        assert tuple(isometry.aut_generators(L)) == want, r


def test_generators_satisfy_descent_criteria():
    for r in GENERATORS:
        L, _ = curve_model(r)
        for m in isometry.aut_generators(L):
            assert isometry.is_isometry(L, m)
            assert isometry.gluing_ok(L, m)
            assert isometry.torelli_ok(L, m)


def test_minimal_gluing_exponents():
    for r, k in ((20, 3), (32, 2), (40, 1), (48, 4)):
        L, _ = curve_model(r)
        assert isometry.minimal_gluing_exponent(L) == k, r


def _check_powers_up_to(L, h, k):
    """Every h^j with 1 <= j <= k sends H to an ample class, with
    H.h^j(H) = 2 tr(h^j); only h^k glues."""
    for j in range(1, k + 1):
        hj = mat_pow(h, j)
        assert isometry.torelli_ok(L, hj), (L, j)
        assert L.dot(H, mat_vec(hj, H)) == 2 * (hj[0][0] + hj[1][1]), (L, j)
        assert isometry.gluing_ok(L, hj) == (j == k), (L, j)


def test_h_powers_below_exponent_fail_descent():
    for r, k in ((20, 3), (32, 2), (48, 4)):
        L, _ = curve_model(r)
        h = infinite_order_form(L, *isometry.minimal_quadeq_solution(L))
        _check_powers_up_to(L, h, k)


# Z-tag canonical models beyond the paper's range, 57 < r <= 200, with the
# least gluing exponent of each
Z_BEYOND_PAPER = {
    60: 2, 65: 1, 68: 1, 80: 2, 84: 6, 96: 2, 104: 1, 105: 2, 112: 4, 116: 3, 120: 2,
    128: 4, 132: 2, 140: 2, 145: 1, 148: 1, 156: 2, 160: 2, 164: 1, 168: 2, 176: 4,
    180: 6, 185: 1, 192: 2, 200: 1,
}


def test_gluing_power_beyond_paper_range():
    found = {}
    for r in range(58, 201):
        if r % 8 not in (0, 1, 4):
            continue
        L = QuarticLattice(*canonical_bc(r))
        kind = classify_aut(L)
        if kind.tag != "Z":
            continue
        (g,) = kind.generators
        assert isometry.is_isometry(L, g), r
        assert isometry.gluing_ok(L, g), r
        assert isometry.torelli_ok(L, g), r
        h = infinite_order_form(L, *isometry.minimal_quadeq_solution(L))
        k = found[r] = isometry.minimal_gluing_exponent(L)
        assert g == mat_pow(h, k), r
        _check_powers_up_to(L, h, k)
    assert found == Z_BEYOND_PAPER


def _scan_must_not_run(L):
    raise AssertionError("conic scan on a lattice with a (-2)-class")


# canonical models 57 < r <= 1000 whose conic solution lies past the cap
CONIC_CAP_RS = (265, 292, 356, 388, 424, 452, 481, 548, 609, 705, 724, 745, 761, 772,
                804, 808, 865, 868, 932, 945, 964, 976, 985, 996, 1000)


def test_conic_cap_refuses_exactly_these_lattices():
    """Every canonical model with 57 < r <= 1000 either classifies or is
    refused by name at the conic scan's cap; a change that lifts the cap
    must say which of these r it fixes."""
    refused = []
    for r in range(58, 1001):
        if r % 8 not in (0, 1, 4):
            continue
        try:
            classify_aut(QuarticLattice.from_disc(r))
        except RuntimeError as e:
            assert "|beta| <= 1000000" in str(e), (r, e)
            refused.append(r)
    assert tuple(refused) == CONIC_CAP_RS


def _closed_form_conic_solution(L):
    """The minimal hyperbolic element's (alpha, beta) in closed form: h is
    the proper automorph of the primitive form (2x^2 + bxy + cy^2)/g,
    g = gcd(2, b, c), so with (t, u) the solution of t^2 - (r/g^2)u^2 = 4
    of least u >= 1, (alpha, beta) = ((t - (b/g)s)/2, -(c/g)s) for s = u
    or s = -u, the first with alpha > 0 and positive trace (Buchmann and
    Vollmer, *Binary Quadratic Forms*, ch. 6). The least u is 2u1, (t1, u1)
    the fundamental unit, or the |y| of a class representative of the
    norm-4 equation."""
    b, c = L.b, L.c
    g = gcd(2, b, c)
    D = L.r // (g * g)
    t1, u1 = pell.fundamental_solution(D)
    t, u = min([(2 * t1, 2 * u1)]
               + [(abs(x), abs(y)) for x, y in pell.solution_class_reps(D, 4) if y],
               key=lambda tu: tu[1])
    for s in (u, -u):
        assert (t - b // g * s) % 2 == 0, L
        alpha, beta = (t - b // g * s) // 2, -(c // g) * s
        h = infinite_order_form(L, alpha, beta)
        assert h is not None, L
        if alpha > 0 and h[0][0] + h[1][1] > 0:
            return alpha, beta
    raise AssertionError(f"no closed-form conic solution on {L}")


def test_closed_form_conic_solution_is_the_scans_answer():
    """Over the nonsquare models with b in [-8, 8], -130 <= c <= 1 and
    r <= 1000, the closed form equals minimal_quadeq_solution wherever its
    |beta| lies within the scan's cap, and past the cap it is still an
    integral determinant-one isometry whose 2|c|u, the |beta| the scan
    returns by, lies past the cap too. On the canonical models the scan
    refuses, some h^k with k <= 3 glues and, with no (-2)-class, sends H to
    an ample class."""
    models = [QuarticLattice(b, c) for b in range(-8, 9) for c in range(-130, 2)
              if 9 <= b * b - 8 * c <= 1000 and not pell.is_square(b * b - 8 * c)]
    same = past = 0
    for L in models:
        alpha, beta = _closed_form_conic_solution(L)
        if abs(beta) <= isometry._QUADEQ_HARD_CAP:
            assert isometry.minimal_quadeq_solution(L) == (alpha, beta), L
            same += 1
            continue
        h = infinite_order_form(L, alpha, beta)
        assert isometry.is_isometry(L, h), L
        assert h[0][0] * h[1][1] - h[0][1] * h[1][0] == 1, L
        _, u = pell.fundamental_solution(L.r)
        assert 2 * abs(L.c) * u > isometry._QUADEQ_HARD_CAP, L
        past += 1
    assert (same, past) == (1233, 676)
    for r in CONIC_CAP_RS:
        L = QuarticLattice.from_disc(r)
        h = infinite_order_form(L, *_closed_form_conic_solution(L))
        glued = [hk for hk in (mat_pow(h, k) for k in (1, 2, 3)) if isometry.gluing_ok(L, hk)]
        assert glued, r
        assert isometry.torelli_ok(L, glued[0]), r
        assert class_with_square_exists(L, -2) is None, r


def test_walls_refuse_every_gluing_power(monkeypatch):
    refusal = r"no power of the minimal isometry sends H to an ample class"
    walls_refusal = r"^\(-2\)-walls bound the ample chamber, so " + refusal
    walled = [r for r in range(9, 58)
              if r % 8 in (0, 1, 4) and isqrt(r) ** 2 != r
              and class_with_square_exists(QuarticLattice.from_disc(r), -2) is not None]
    assert walled == [12, 17, 24, 33, 41, 44, 57]
    for r in walled:
        L = QuarticLattice.from_disc(r)
        with pytest.raises(RuntimeError, match=walls_refusal):
            isometry.minimal_gluing_exponent(L)
        # the lattice decides the refusal: the conic scan never runs
        with monkeypatch.context() as m, pytest.raises(RuntimeError, match=walls_refusal):
            m.setattr(isometry, "minimal_quadeq_solution", _scan_must_not_run)
            isometry.minimal_gluing_exponent(L)
    # past the refusal there is no (-2)-class, so h^k(H) is ample unchecked:
    # the refusal's own walk of the cycle of reduced forms is the only one,
    # and no Pell class search runs
    asked, real = [], pell.solution_class_reps
    monkeypatch.setattr(pell, "solution_class_reps",
                        lambda D, n: asked.append((D, n)) or real(D, n))
    walked, cycle = [], surface._reduced_cycle
    monkeypatch.setattr(surface, "_reduced_cycle",
                        lambda L: walked.append(L) or cycle(L))
    models = [curve_model(r)[0] for r in (20, 32, 40, 48)]
    models += [QuarticLattice.from_disc(r) for r in Z_BEYOND_PAPER]
    for L in models:
        walked.clear()
        isometry.minimal_gluing_exponent(L)
        assert walked == [L], (L, walked)
    assert asked == []


def test_trivial_case_has_no_generators():
    for r in (9, 12, 57):
        L = QuarticLattice(*canonical_bc(r))
        assert isometry.aut_generators(L) == []


conic_params = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9).filter(bool), st.integers(-12, 12)
)


@settings(max_examples=1000, deadline=None)
@given(conic_params)
def test_involution_family_members_are_involutions(params):
    """Every integral member of the trace-zero family squares to the identity
    and preserves the form."""
    b, c, alpha = params
    r = b * b - 8 * c
    if r <= 0 or r in (1, 4, 8):
        return
    L = QuarticLattice(b, c)
    # solve the conic for beta at this alpha: 2beta^2 - b*alpha*beta + c(alpha^2 - 1) = 0
    from math import isqrt

    disc = b * b * alpha * alpha - 8 * c * (alpha * alpha - 1)
    if disc < 0:
        return
    s = isqrt(disc)
    if s * s != disc:
        return
    for num in (b * alpha + s, b * alpha - s):
        if num % 4:
            continue
        beta = num // 4
        m = isometry.involution_form(L, alpha, beta)
        if m is None:
            continue
        assert m[0][0] + m[1][1] == 0
        assert mat_mul(m, m) == IDENTITY
        assert isometry.is_isometry(L, m)


# (b, c) of either parity and sign with r = b^2 - 8c > 0, admissible or
# not; QuarticLattice refuses only r <= 0 and the forbidden 1, 4, 8
quartic_lattices = (
    st.tuples(st.integers(-40, 40), st.integers(-200, 200))
    .filter(lambda t: t[0] * t[0] - 8 * t[1] > 0 and t[0] * t[0] - 8 * t[1] not in (1, 4, 8))
    .map(lambda t: QuarticLattice(*t))
)
small_mats = st.tuples(*[st.integers(-30, 30)] * 4).map(lambda t: ((t[0], t[1]), (t[2], t[3])))


def _product(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _glues_by_definition(L, m):
    """(m + I) or (m - I) times adj(Q) is entrywise divisible by det Q."""
    Q = ((4, L.b), (L.b, 2 * L.c))
    det = Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0]
    adj = ((Q[1][1], -Q[0][1]), (-Q[1][0], Q[0][0]))
    for s in (1, -1):
        prod = _product(((m[0][0] + s, m[0][1]), (m[1][0], m[1][1] + s)), adj)
        if all(e % det == 0 for row in prod for e in row):
            return True
    return False


@st.composite
def lattices_and_matrices(draw):
    """A lattice with a random matrix, or with m = N*Q - s*I + E, which
    glues when the perturbation E is zero: then (m + s*I) Q^-1 = N."""
    L = draw(quartic_lattices)
    if draw(st.booleans()):
        return L, draw(small_mats)
    N, s = draw(small_mats), draw(st.sampled_from((1, -1)))
    E = draw(st.sampled_from((((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 0)))))
    NQ = _product(N, ((4, L.b), (L.b, 2 * L.c)))
    return L, tuple(tuple(NQ[i][j] - s * (i == j) + E[i][j] for j in range(2))
                    for i in range(2))


@settings(max_examples=500, deadline=None)
@given(lattices_and_matrices())
@example((L17, M17))
@example((QuarticLattice(3, -1), ((1, 0), (0, 2))))
def test_gluing_ok_is_its_definition(case):
    L, m = case
    assert isometry.gluing_ok(L, m) == _glues_by_definition(L, m)


@settings(max_examples=300, deadline=None)
@given(quartic_lattices, st.integers(-2, 2), st.sampled_from((1, -1)),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_reflection_is_the_gram_reflection_for_every_square_2_class(L, j, sign, v):
    """Every class of square 2 (the Pell classes moved by the automorph
    and negated) reflects as lattice.reflection_in on the Gram view; any
    other class is refused."""
    classes = surface._classes_of_square(L, 2)
    T = mat_pow(automorph(L), j) if classes else IDENTITY
    for D in classes:
        A = tuple(sign * x for x in mat_vec(T, D))
        assert L.dot(A, A) == 2
        assert isometry.reflection(L, A) == reflection_in(L.base, A), (L, A)
    if L.dot(v, v) == 2:
        assert isometry.reflection(L, v) == reflection_in(L.base, v)
    else:
        with pytest.raises(ValueError, match="self-intersection 2"):
            isometry.reflection(L, v)


@settings(max_examples=1000, deadline=None)
@given(st.integers(-20, 20), st.integers(-40, 40), st.integers(1, 4))
def test_automorph_powers_preserve_form(b, c, k):
    """Powers of the canonical infinite-order isometry stay isometries."""
    r = b * b - 8 * c
    if r <= 0 or r in (1, 4, 8) or pell.is_square(r):
        return
    L = QuarticLattice(b, c)
    T = automorph(L)
    assert isometry.is_isometry(L, mat_pow(T, k))
    assert isometry.is_isometry(L, mat_pow(T, -k))

"""Pell solver against pinned witnesses, a brute-force oracle, and sympy."""
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import diop_DN

from quartaut import pell


def test_solvable_examples_with_witnesses():
    assert pell.has_solution(17, 8)
    assert pell.solve(17, 8) == (5, 1)
    assert pell.has_solution(41, -8)
    assert pell.solve(41, -8) == (19, 3)
    assert not pell.has_solution(20, 8)
    assert pell.solve(20, 8) is None
    # isotropic witness off the axis needs square r
    assert pell.has_solution(25, 0)
    assert pell.solve(25, 0) == (5, 1)
    assert not pell.has_solution(17, 0)


def test_solutions_up_to_examples():
    assert set(pell.solutions_up_to(17, 8, 1)) == {(5, 1), (5, -1), (-5, 1), (-5, -1)}
    assert pell.solutions_up_to(48, -8, 10) == []
    assert set(pell.solutions_up_to(9, -8, 1)) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_solutions_up_to_ordering():
    sols = pell.solutions_up_to(17, 8, 7)
    assert sols == sorted(sols, key=lambda s: (abs(s[1]), s[1], s[0]))
    assert (29, 7) in sols and (-29, -7) in sols


def test_is_square():
    assert pell.is_square(49)
    assert not pell.is_square(20)
    assert pell.is_square(0)


def test_rejects_nonpositive_r():
    for fn in (pell.solve, pell.has_solution):
        with pytest.raises(ValueError):
            fn(0, 8)
        with pytest.raises(ValueError):
            fn(-17, 8)
    with pytest.raises(ValueError):
        pell.solutions_up_to(0, 8, 5)
    for r in (0, -17):
        with pytest.raises(ValueError, match="r must be a positive integer"):
            pell.solution_class_reps(r, 8)


def test_solutions_up_to_rejects_a_bound_below_one():
    for bound in (0, -3):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            pell.solutions_up_to(17, 8, bound)


def test_fundamental_solution_small():
    assert pell.fundamental_solution(17) == (33, 8)
    assert pell.fundamental_solution(20) == (9, 2)
    t, u = pell.fundamental_solution(151)
    assert t * t - 151 * u * u == 1 and u > 0
    with pytest.raises(ValueError):
        pell.fundamental_solution(25)


def test_class_reps_reject_zero_rhs():
    with pytest.raises(ValueError):
        pell.solution_class_reps(17, 0)


def test_class_reps_solve_and_are_distinct_orbits():
    for r, n in ((17, -8), (17, 8), (41, -8), (56, 8), (9, -8), (49, 15)):
        reps = pell.solution_class_reps(r, n)
        assert reps, (r, n)
        assert len(set(reps)) == len(reps)
        assert reps == sorted(reps), (r, n)
        for x, y in reps:
            assert x * x - r * y * y == n


def test_square_r_reps_are_every_solution():
    """For r = t^2 every solution satisfies |y| <= |n|, so the brute-force
    list with that bound is the whole solution set; (x, -y) included."""
    assert pell.solution_class_reps(9, -8) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for t in range(1, 31):
        for n in range(-300, 301):
            if n:
                got = pell.solution_class_reps(t * t, n)
                assert sorted(got) == sorted(pell.solutions_up_to(t * t, n, abs(n))), (t, n)


def _same_class(r, n, s, v):
    """Classical test: s and v lie in one <automorph, -1>-orbit iff
    (s1*v1 - r*s2*v2)/n and (s1*v2 - v1*s2)/n are integers."""
    return (s[0] * v[0] - r * s[1] * v[1]) % n == 0 and (s[0] * v[1] - v[0] * s[1]) % n == 0


def test_class_reps_cover_every_orbit():
    """Every solution with |y| <= B lies in exactly one listed class, for
    nonsquare r <= 150 and 0 < |n| <= 64. B exceeds Nagell's bound
    u*sqrt(|n|)/sqrt(2(t - 1)) on the least |y| in a class, (t, u) the
    fundamental unit, so a class the list misses would show here."""
    for r in range(2, 151):
        if pell.is_square(r):
            continue
        t, u = pell.fundamental_solution(r)
        for n in range(-64, 65):
            bound = isqrt(u * u * abs(n) // (2 * (t - 1))) + 1
            if n == 0 or bound > 20_000:
                continue
            reps = pell.solution_class_reps(r, n)
            for s in pell.solutions_up_to(r, n, bound):
                assert sum(_same_class(r, n, s, v) for v in reps) == 1, (r, n, s, reps)


def _brute(r, n, bound=10_000):
    """First solution with 0 <= y <= bound, scanning outward; None if none."""
    for y in range(bound + 1):
        t = n + r * y * y
        if t < 0:
            continue
        s = isqrt(t)
        if s * s == t:
            return (s, y)
    return None


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 300), st.integers(-64, 64))
def test_decision_procedure_vs_brute_oracle(r, n):
    got = pell.solve(r, n)
    if got is not None:
        x, y = got
        assert x * x - r * y * y == n
        if n == 0:
            assert y != 0 or x != 0
    witness = _brute(r, n)
    if n == 0:
        # only the y != 0 flavour is meaningful; (0, 0) is excluded
        assert pell.has_solution(r, 0) == pell.is_square(r)
        return
    if witness is not None:
        assert got == witness, (r, n, witness)
    if got is None:
        assert witness is None


# |n| up to 10^6 with 2^6 | n, a prime p | r, or p^2 | n; each sympy call
# here is under 0.5 s (diop_DN(41, -8*10^5) alone takes over a second)
@settings(max_examples=400, deadline=None)
@example(187, -272832)
@example(950, -844096)
@example(742, -187264)
@example(578, 676032)
@example(17, 2**6 * 5**6)
@example(41, 2**6 * 3**2 * 7**2)
@example(858, -761175)
@example(1042, -303601)
@example(1865, -457263)
@example(1183, 13**3 * 73)
@example(1183, 2 * 13**2 * 29)
@example(860, 484625)
@example(753, -299157)
@example(665, -873425)
@example(1960, -(2**6) * 7**3 * 29)
@example(41, 5)  # n^2 < r, odd period: read off the norm -5 convergent times the -1 unit
@example(67, -8)  # n^2 < r, f = 2: every solution is twice one of x^2 - 67y^2 = -2
@given(st.integers(1, 300), st.integers(-64, 64))
def test_decision_procedure_vs_sympy(r, n):
    """Same decision as sympy, and each of sympy's solutions lies in a
    listed class."""
    if n == 0:
        return
    sols = diop_DN(r, n)
    reps = pell.solution_class_reps(r, n)
    assert pell.has_solution(r, n) == bool(sols)
    for s in sols:
        assert any(_same_class(r, n, s, v) for v in reps), (r, n, s, reps)


def test_one_period_gives_the_lmm_classes():
    """For n^2 < r the classes are read off one period of sqrt(r); they are
    the LMM search's classes and their conjugates, canonicalized by orbit,
    for every nonsquare r <= 600 and 0 < |n| < sqrt(r)."""
    pairs = 0
    for r in range(2, 601):
        if pell.is_square(r):
            continue
        t, u, _ = pell._unit_data(r)
        for n in range(-isqrt(r), isqrt(r) + 1):
            if n == 0 or n * n >= r:
                continue
            lmm = sorted({pell._orbit_canonical(v, r, t, u)
                          for x, y in pell._lmm_reps(r, n) for v in ((x, y), (x, -y))})
            assert pell.solution_class_reps(r, n) == lmm, (r, n)
            pairs += 1
    assert pairs == 18448


def test_local_root_criterion_vs_brute_force():
    """z^2 ≡ r (mod m) is solvable iff it is modulo every prime power of m,
    against r mod m read off the squares mod m, for 1 <= r <= 300 and
    1 <= m <= 1024. The range holds squares, even r, r with p^2 | r, and
    m = 2^10, 3^6, 5^4 and 7^3."""
    for m in range(1, 1025):
        squares = {z * z % m for z in range(m)}
        fac = pell._factor(m)
        for r in range(1, 301):
            got = all(pell._has_root(r, p, e) for p, e in fac.items())
            assert got == (r % m in squares), (r, m)


def test_factor():
    assert pell._factor(1) == {}
    assert pell._factor(-720) == {2: 4, 3: 2, 5: 1}
    assert pell._factor(999983) == {999983: 1}
    for n in range(1, 2000):
        assert prod(p ** e for p, e in pell._factor(n).items()) == n


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 300), st.integers(-64, 64), st.integers(1, 30))
def test_solutions_up_to_sign_closure_and_soundness(r, n, bound):
    sols = pell.solutions_up_to(r, n, bound)
    seen = set(sols)
    assert len(seen) == len(sols)
    for x, y in sols:
        assert x * x - r * y * y == n
        assert abs(y) <= bound
        assert {(x, y), (-x, -y), (x, -y), (-x, y)} <= seen


def test_large_unit_discriminants_still_decide():
    # fundamental units with 8+ digit entries must not degrade the decision
    assert pell.has_solution(151, 2)
    x, y = pell.solve(151, 2)
    assert x * x - 151 * y * y == 2
    assert not pell.has_solution(151, 3)

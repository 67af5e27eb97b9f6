"""Complete solver for generalized Pell equations x^2 - r*y^2 = n with r > 0.

Two routes are deliberately kept apart:

* ``solution_class_reps`` is the one decision route; ``solve`` and
  ``has_solution`` read their answer off it through ``least_witness``. It
  takes one of two paths, chosen by the input alone:

  - nonsquare r: the LMM class-by-class search (Robertson, "Solving the
    generalized Pell equation x^2 - Dy^2 = N", 2004): for each factor
    m = n/f^2 and each square root z0 of r modulo |m| with
    0 <= z0 <= |m|/2 (only z0 ≡ r mod 2 when |m| is even), one PQa run
    stopped at the first Q_i = ±1 gives the fundamental solution of that
    class, or shows it has none. The root -z0 is not run: its classes are
    the conjugates (x, -y) of the z0 classes, which
    ``solution_class_reps`` pools before it canonicalizes each orbit.
    Primitive solutions satisfy gcd(y, m) = 1, so every class is hit by
    some root; imprimitive solutions are f times a primitive solution of
    the m-equation. |n| is factored once by trial division; the f come
    from its exponents, and a modulus m is scanned only when z^2 ≡ r has a
    root modulo every prime power of |m| (Cohen, *A Course in Computational
    Algebraic Number Theory*, §1.5), so moduli without roots cost no scan.
    A modulus that passes costs about |m|/2 residue tests, so the search
    is O(|n|): n near 10^6 takes a tenth of a second, but r = 2,
    n = 10^9 + 7 runs for more than 30 s, and no cap stops it.
  - square r = t^2: the equation factors as (x - t*y)(x + t*y) = n, and
    the divisors of n, read off the same factorization, are exhaustive.
* ``solutions_up_to`` is a brute-force scan, exhaustive within a |y| bound.
  It exists so tests can compare the decision procedure against an
  independent enumeration; it must stay naive, and it tests 2*bound + 1
  values of y.

``_pqa`` is the package's one continued-fraction walker. It walks the
bounded state (P, Q) alone, at most ``_PQA_CAP`` steps, and returns the
partial quotients and the last Q. Its callers replay the part that grows,
the convergents here (``_convergent``) and the transform matrix of the
cycle of reduced forms in ``surface``, once the walk has stopped. Only the
list of quotients grows during the walk, so a refusal at the cap costs
time linear in it and about one pointer per step.

All arithmetic is exact; no floats anywhere.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt

Vec = tuple[int, int]

_PQA_CAP = 1_000_000


def is_square(r: int) -> bool:
    """True iff r is a perfect square (r >= 0 required)."""
    if r < 0:
        raise ValueError("is_square expects a nonnegative integer")
    t = isqrt(r)
    return t * t == r


def _pqa(P0: int, Q0: int, D: int) -> tuple[list[int], int]:
    """The partial quotients a_1..a_n and the last Q_n of the continued
    fraction of (P0 + sqrt(D))/Q0, walked on the bounded state (P, Q) alone
    and stopped at the first Q_n = ±1 or when the state first repeats.

    Requires Q0 != 0, D > 0 nonsquare, P0^2 ≡ D (mod Q0). Step i takes
    a_i = floor((P + sqrt(D))/Q), P -> a_i*Q - P and Q -> (D - P^2)/Q; the
    growing part, the convergents (_convergent) or a transform matrix, is
    the caller's to replay once the walk has stopped. A state is reduced
    when 0 < Q <= P + floor(sqrt(D)) and floor(sqrt(D)) - Q < P <=
    floor(sqrt(D)); the expansion is purely periodic from its first reduced
    state on (Galois), so the first repeat is the return of that state.

    With P0 = 0 and Q0 = 1 this is the continued fraction of sqrt(D): the
    first Q_n = 1 ends its first period, before any state repeats. The
    walk takes at most _PQA_CAP steps and past them raises a RuntimeError
    that names D and the cap; every continued-fraction walk in the package
    is this one.
    """
    sd = isqrt(D)
    P, Q = P0, Q0
    P1 = Q1 = None  # the first reduced state
    quotients: list[int] = []
    for _ in range(_PQA_CAP):
        if P1 is None and 0 < Q <= P + sd and sd - Q < P <= sd:
            P1, Q1 = P, Q
        # a = floor((P + sqrt(D))/Q), exact since sqrt(D) is irrational
        a = (P + sd) // Q if Q > 0 else (-P - sd - 1) // (-Q)
        P = a * Q - P
        Q = (D - P * P) // Q
        quotients.append(a)
        if Q == 1 or Q == -1 or (Q == Q1 and P == P1):
            return quotients, Q
    raise RuntimeError("PQa expansion with D = %d did not cycle within cap %d" % (D, _PQA_CAP))


def _convergent(P0: int, Q0: int, quotients: list[int]) -> Vec:
    """(G_{n-1}, B_{n-1}) after the n quotients of _pqa(P0, Q0, D), with
    G_{n-1}^2 - D*B_{n-1}^2 = (-1)^n * Q_n * Q0 (Robertson's PQa identity)."""
    g0, g, b0, b = -P0, Q0, 1, 0
    for a in quotients:
        g0, g = g, a * g + g0
        b0, b = b, a * b + b0
    return g, b


def _mul(v: Vec, w: Vec, D: int) -> Vec:
    """(x1 + y1*sqrt(D)) * (x2 + y2*sqrt(D)) as (x, y)."""
    return (v[0] * w[0] + D * v[1] * w[1], v[0] * w[1] + v[1] * w[0])


@lru_cache(maxsize=None)
def _unit_data(D: int) -> tuple[int, int, Vec | None]:
    """(t, u, neg) with t^2 - D*u^2 = 1 fundamental and neg a fundamental
    solution of x^2 - D*y^2 = -1, or None when the period is even.

    Both are read off the convergent at the end of _pqa(0, 1, D), the n
    quotients of one period of sqrt(D), where Q_n = 1 and
    G_{n-1}^2 - D*B_{n-1}^2 = (-1)^n."""
    quotients, _ = _pqa(0, 1, D)
    g, b = _convergent(0, 1, quotients)
    if len(quotients) % 2 == 0:
        return g, b, None
    # odd period: (g, b) solves x^2 - D y^2 = -1
    return (*_mul((g, b), (g, b), D), (g, b))


def fundamental_solution(D: int) -> Vec:
    """Fundamental solution (t, u), t, u > 0 minimal, of x^2 - D*y^2 = 1."""
    if D <= 0 or is_square(D):
        raise ValueError("fundamental solution requires positive nonsquare D")
    t, u, _ = _unit_data(D)
    return t, u


def _factor(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of |n| >= 1, by trial division."""
    n = abs(n)
    e = (n & -n).bit_length() - 1
    out = {2: e} if e else {}
    n >>= e
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 2
    if n > 1:
        out[n] = 1
    return out


def _has_root(D: int, p: int, e: int) -> bool:
    """Whether z^2 ≡ D (mod p^e) has a solution, for a prime p and e >= 0.

    With v = min(v_p(D), e) and u = D/p^v: a root exists iff v = e, or v is
    even and u is a square modulo p^(e-v). For odd p, Hensel lifting makes
    that Euler's criterion u^((p-1)/2) ≡ 1 (mod p). For p = 2 and
    k = e - v, every odd u is a square mod 2, mod 4 only u ≡ 1 (mod 4),
    and mod 2^k with k >= 3 only u ≡ 1 (mod 8)."""
    v, u = 0, D
    while v < e and u % p == 0:
        v, u = v + 1, u // p
    if v == e:
        return True
    if v % 2:
        return False
    k = e - v
    if p == 2:
        return k == 1 or u % (4 if k == 2 else 8) == 1
    return pow(u, (p - 1) // 2, p) == 1


def _lmm_reps(D: int, N: int) -> list[Vec]:
    """Solution representatives of x^2 - D*y^2 = N, at least one per class
    under the automorph group, negation and conjugation (x, y) -> (x, -y).
    D > 0 nonsquare, N != 0.

    |N| is factored once; each f with f^2 | N takes exponent j <= e // 2 at
    each prime p^e of |N|, so m = N/f^2 has p^(e - 2j). An exponent j is
    kept only when z^2 ≡ D has a root modulo p^(e - 2j) (``_has_root``), so
    a modulus without roots is never built, let alone scanned.

    The square roots z of D modulo |m| come in ± pairs, and PQa runs on z0
    only, for 0 <= z0 <= |m|/2 with step 2 from D mod 2 when |m| is even
    (z^2 ≡ D mod 2 forces z ≡ D mod 2); the classes of -z0 are the
    conjugates of those of z0. Each run stops at its first hit: a later
    Q_i = ±1 in the same run would give the same class times a unit. A hit
    of the wrong sign gives a solution only through a solution of
    x^2 - D*y^2 = -1."""
    _, _, neg = _unit_data(D)
    reps: list[Vec] = []
    fs = [1]
    for p, e in _factor(N).items():
        fs = [f * p ** j for j in range(e // 2 + 1) if _has_root(D, p, e - 2 * j)
              for f in fs]
    for f in fs:
        m = N // (f * f)
        am = abs(m)
        step = 2 if am % 2 == 0 else 1
        for z0 in range(D % step, am // 2 + 1, step):
            if (z0 * z0 - D) % am:
                continue
            quotients, Q = _pqa(z0, am, D)
            if Q != 1 and Q != -1:
                continue
            g, b = _convergent(z0, am, quotients)
            s = (f * g, f * b)
            if (Q * am if len(quotients) % 2 == 0 else -Q * am) == m:
                reps.append(s)
            elif neg is not None:
                reps.append(_mul(s, neg, D))
    return reps


def _square_solutions(t: int, N: int) -> list[Vec]:
    """All solutions of x^2 - t^2*y^2 = N for N != 0, via (x-ty)(x+ty) = N:
    d1 = x - ty runs over ±e for every divisor e of |N|, the products of the
    prime powers in _factor(N)."""
    divisors = [1]
    for p, k in _factor(N).items():
        divisors = [e * p ** j for e in divisors for j in range(k + 1)]
    out = set()
    for e in divisors:
        for d1 in (e, -e):
            d2 = N // d1
            # x = (d1+d2)/2, t*y = (d2-d1)/2
            if (d1 + d2) % 2 == 0 and (d2 - d1) // 2 % t == 0:
                out.add(((d1 + d2) // 2, (d2 - d1) // 2 // t))
    return sorted(out)


def solve(r: int, n: int) -> Vec | None:
    """A witness (x, y) with x^2 - r*y^2 = n, or None when none exists.

    For n != 0 the witness is least_witness(solution_class_reps(r, n)),
    which is (sqrt(n), 0) for square n > 0. The trivial (0, 0) never counts
    as a witness for n = 0.
    """
    if r <= 0:
        raise ValueError("r must be a positive integer")
    if n == 0:
        # x = t*y forces y = 0 unless r = t^2 is a square.
        if is_square(r):
            return (isqrt(r), 1)
        return None
    return least_witness(solution_class_reps(r, n))


def least_witness(reps: list[Vec]) -> Vec | None:
    """The witness ``solve`` reports for n != 0, read off
    ``solution_class_reps(r, n)``: the least (|y|, |x|) over the
    representatives, as (|x|, |y|), or None when there are none. For square
    n > 0 that is (sqrt(n), 0), since (sqrt(n), 0) solves and no solution
    has a smaller |y|."""
    return min(((abs(x), abs(y)) for x, y in reps),
               key=lambda s: (s[1], s[0]), default=None)


def has_solution(r: int, n: int) -> bool:
    """Decision procedure for x^2 - r*y^2 = n over the integers."""
    return solve(r, n) is not None


def solution_class_reps(r: int, n: int) -> list[Vec]:
    """One representative per automorph-and-negation class of solutions,
    sorted.

    surface._classes_of_square reads the classes of a square off these;
    for square r the solution set itself is finite and returned whole.
    """
    if r <= 0:
        raise ValueError("r must be a positive integer")
    if n == 0:
        raise ValueError("class representatives are only defined for n != 0")
    if is_square(r):
        return _square_solutions(isqrt(r), n)
    t, u, _ = _unit_data(r)
    # each representative and its conjugate, canonicalized by orbit
    return sorted({_orbit_canonical(v, r, t, u)
                   for x, y in _lmm_reps(r, n) for v in ((x, y), (x, -y))})


def _orbit_canonical(s: Vec, D: int, t: int, u: int) -> Vec:
    """Canonical representative of the <automorph, -1>-orbit of a solution."""
    cur = s
    # |y| diverges in both orbit directions; descend to the minimum
    while True:
        f, b = _mul(cur, (t, u), D), _mul(cur, (t, -u), D)
        if abs(f[1]) < abs(cur[1]):
            cur = f
        elif abs(b[1]) < abs(cur[1]):
            cur = b
        else:
            break
    cands = {cur, (-cur[0], -cur[1])}
    # a neighbour of the minimum can tie on |y|
    for v in (f, b):
        if abs(v[1]) == abs(cur[1]):
            cands.update({v, (-v[0], -v[1])})
    return min(cands)


def solutions_up_to(r: int, n: int, bound: int) -> list[Vec]:
    """Exhaustive brute-force enumeration of solutions with |y| <= bound,
    sign variants included, sorted by (|y|, y, x). This is the test oracle."""
    if r <= 0:
        raise ValueError("r must be a positive integer")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = set()
    for y in range(-bound, bound + 1):
        v = n + r * y * y
        if v < 0:
            continue
        x = isqrt(v)
        if x * x == v:
            out.add((x, y))
            out.add((-x, y))
    return sorted(out, key=lambda s: (abs(s[1]), s[1], s[0]))

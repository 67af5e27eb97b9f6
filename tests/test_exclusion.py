"""Discriminant exclusion and the anti-flip exhaustion."""
import random

from quartaut import exclusion
from quartaut.lattice import GramLattice, pairing
from quartaut.surface import realizable_gd

R_ALL = {9, 12, 16, 17, 20, 24, 25, 28, 32, 33, 36, 40, 41, 44, 48, 49, 56, 57}


def test_curve_list_shape():
    cl = exclusion.curve_list()
    assert len(cl.pairs) == 34
    assert len(set(cl.pairs)) == 34
    assert all(d <= 11 for _, d in cl.pairs)
    assert all(realizable_gd(g, d) for g, d in cl.pairs)
    assert len(cl.model_pairs) == 9
    assert cl.model_pairs <= set(cl.pairs)
    assert (14, 11) in cl.model_pairs and (0, 1) not in cl.model_pairs


def test_rprime_entries():
    pairs = exclusion.CURVE_PAIRS
    rps = exclusion.rprime_list()
    assert rps[pairs.index((0, 1))] == 9
    assert rps[pairs.index((14, 11))] == 17
    assert rps[pairs.index((6, 8))] == 24
    assert pairs.index((14, 11)) == len(pairs) - 1  # printed last


def test_rprime_values_bounded_and_admissible_residues():
    for rp in exclusion.rprime_list():
        assert 0 < rp <= 57
        assert rp % 8 in (0, 1, 4)


def test_admissible_report():
    rep = exclusion.admissible_discriminants()
    assert rep.bound == 57
    assert rep.admissible == R_ALL
    assert len(rep.admissible) == 18
    assert rep.excluded_leq57 == {52}
    assert 36 in rep.admissible
    assert 64 not in rep.admissible  # beyond the bound entirely
    assert rep.rprimes == tuple(exclusion.rprime_list())


def test_every_admissible_r_divides_a_curve_disc():
    rep = exclusion.admissible_discriminants()
    rps = exclusion.rprime_list()
    for r in rep.admissible:
        assert any(rp % r == 0 for rp in rps), r
    for r in rep.excluded_leq57:
        assert r % 8 in (0, 1, 4)
        assert not any(rp % r == 0 for rp in rps), r


def test_exclusion_json_roundtrip():
    import json

    rep = exclusion.admissible_discriminants()
    out = rep.to_json()
    assert json.loads(json.dumps(out)) == out
    assert out["excluded_leq57"] == [52]
    assert len(out["admissible"]) == 18


def test_antiflip_exhaustion_unique_pair():
    assert exclusion.antiflip_exhaustion() == {(15, 11)}
    assert (14, 11) not in exclusion.antiflip_exhaustion()


def test_antiflip_witnesses_are_lines_meeting_the_curve():
    rep = exclusion.antiflip_report()
    assert rep.solvable == frozenset({(15, 11)})
    assert rep.configurations == 1590
    assert rep.witnesses
    for w in rep.witnesses:
        assert (w.pa, w.d) == (15, 11)
        base = GramLattice(4, w.b, 2 * w.c)
        v = (w.alpha, w.beta)
        assert pairing(base, v, v) == -2
        assert pairing(base, (1, 0), v) > 0
        # in the curve frame the class is the line 3H - C
        assert w.frame_class() == (3, -1)
        frame = GramLattice(4, w.d, 2 * (w.pa - 1))
        ell = w.frame_class()
        assert pairing(frame, ell, ell) == -2
        assert pairing(frame, (1, 0), ell) == 1


def test_frame_class_needs_gamma_to_divide_beta():
    # gamma = 2 does not divide beta = 1, so W = (C - H)/2 leaves the class fractional
    assert exclusion.AntiflipSolution(15, 11, 1, -2, 2, 1, 3, 1).frame_class() is None


def test_antiflip_cells_cover_the_degree_range():
    cells = exclusion._cells()
    assert all(0 < d < 16 and 0 <= pa and 8 * pa <= d * d for pa, d in cells)
    # the curve discriminant bound that _cell_solutions' gamma range rests on
    top = (exclusion._DEGREE_CAP - 1) ** 2 + 8
    assert top == 233
    assert all(8 <= d * d - 8 * (pa - 1) <= top for pa, d in cells)
    assert (15, 11) in cells
    assert len(set(cells)) == len(cells)


def test_antiflip_quadratic_does_not_depend_on_b():
    """Over every configuration, k = (b*e + gamma*r)/4 with e = 16 - d, so the
    beta-quadratic's coefficients are r(rp - e^2)/4, 2*gamma*r and 4 + 2e^2:
    one quadratic per (cell, gamma), whatever b is. Solving each b's own
    quadratic and filtering alpha and beta is the per-b reference enumeration;
    it must rebuild the report's witnesses in (cell, gamma, b, beta) order."""
    seen = 0
    witnesses = []
    for pa, d in exclusion._cells():
        rp, e = d * d - 8 * (pa - 1), 16 - d
        for gamma in range(-15, 16):
            if gamma == 0 or rp % (gamma * gamma):
                continue
            r = rp // (gamma * gamma)
            if r in exclusion.FORBIDDEN_DISCS:
                continue
            for b in range(1, 16):
                if (b * b - r) % 8 or (d - b * gamma) % 4:
                    continue
                c, delta = (b * b - r) // 8, (d - b * gamma) // 4
                k = b * (4 - delta) - 2 * c * gamma
                seen += 1
                a2 = 4 * k * k - 2 * b * k * e + 2 * c * e * e
                a1 = 8 * k - 2 * b * e
                a0 = 4 + 2 * e * e
                assert 4 * k == b * e + gamma * r
                assert 4 * a2 == r * (rp - e * e)
                assert a1 == 2 * gamma * r
                for beta in exclusion._integer_roots(a2, a1, a0):
                    if (1 + k * beta) % e:
                        continue
                    alpha = -(1 + k * beta) // e
                    if 4 * alpha + b * beta > 0:
                        witnesses.append(
                            exclusion.AntiflipSolution(pa, d, b, c, gamma, delta, alpha, beta))
    rep = exclusion.antiflip_report()
    assert seen == rep.configurations == 1590
    assert tuple(witnesses) == rep.witnesses
    assert len(witnesses) == 8


def test_antiflip_solves_one_quadratic_per_cell_and_gamma(monkeypatch):
    """The 1,590 configurations share 392 (cell, gamma) quadratics."""
    calls = []
    roots = exclusion._integer_roots

    def counted(a2, a1, a0):
        calls.append((a2, a1, a0))
        return roots(a2, a1, a0)

    monkeypatch.setattr(exclusion, "_integer_roots", counted)
    rep = exclusion.antiflip_report()
    assert rep.configurations == 1590
    assert len(calls) == 392


def test_antiflip_is_order_independent():
    cells = exclusion._cells()
    want = exclusion.antiflip_report()
    rng = random.Random(7)
    for _ in range(3):
        shuffled = cells[:]
        rng.shuffle(shuffled)
        got, configurations = set(), 0
        for pa, d in shuffled:
            n, sols = exclusion._cell_solutions(pa, d)
            configurations += n
            if sols:
                got.add((pa, d))
        assert got == want.solvable
        assert configurations == want.configurations

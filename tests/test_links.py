"""Link catalog, conjugation and composition identities, generator words."""
import collections

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quartaut import isometry, links, verify
from quartaut.lattice import (GramLattice, IDENTITY, change_basis, mat_det, mat_inv_unimodular,
                              mat_mul, mat_vec, pairing)
from quartaut.surface import QuarticLattice, classify_aut, curve_model, genus_degree

CATALOG_ROWS = [
    ((14, 11), "P3", (14, 11), (19, 5, 19)),
    ((6, 9), "P3", (6, 9), (27, 7, 27)),
    ((10, 10), "P3", (10, 10), (23, 6, 23)),
    ((2, 8), "P3", (2, 8), (31, 8, 31)),
    ((11, 10), "P3", (11, 10), (11, 3, 11)),
    ((3, 6), "P3", (3, 6), (3, 1, 3)),
    ((5, 8), "P3", (5, 8), (7, 2, 7)),
    ((4, 8), "X5", (4, 10), (11, 3, 5)),
    ((3, 8), "P3", (3, 8), (15, 4, 15)),
]


def test_catalog_rows_verbatim():
    got = [(r.gd, r.target, r.gd_plus, (r.a, r.b, r.c)) for r in links.catalog()]
    assert got == CATALOG_ROWS


def test_lookup_examples():
    rec = links.lookup((14, 11))
    assert rec.target == "P3" and rec.gd_plus == (14, 11)
    assert (rec.a, rec.b, rec.c) == (19, 5, 19)
    rec = links.lookup((4, 8))
    assert rec.target == "X5" and rec.gd_plus == (4, 10)
    assert (rec.a, rec.b, rec.c) == (11, 3, 5)
    rec = links.lookup((3, 6))
    assert rec.target == "P3" and (rec.a, rec.b, rec.c) == (3, 1, 3)
    assert links.lookup((7, 7)) is None


def test_link_matrix_examples():
    assert links.link_matrix(links.lookup((14, 11))) == ((19, 72), (-5, -19))
    assert links.link_matrix(links.lookup((6, 9))) == ((27, 104), (-7, -27))
    assert links.link_matrix(links.lookup((3, 6))) == ((3, 8), (-1, -3))


def test_link_matrices_have_det_minus_one():
    for rec in links.catalog():
        assert mat_det(links.link_matrix(rec)) == -1


def test_link_record_validation():
    with pytest.raises(ValueError):
        links.LinkRecord((1, 1), "P3", (1, 1), 4, 3, 2)  # 3 does not divide 7
    with pytest.raises(ValueError):
        links.LinkRecord((1, 1), "P2", (1, 1), 3, 1, 3)  # unknown model
    with pytest.raises(ValueError):
        links.LinkRecord((1, 1), "P3", (1, 1), 0, 1, 3)  # nonpositive datum


def test_link_matrices_act_as_isometries_of_their_frames():
    """Each P3 row preserves the Gram matrix of the lattice spanned by H and
    its curve; the X5 row transports it onto the degree-10 frame."""
    for rec in links.catalog():
        g, d = rec.gd
        m = links.link_matrix(rec)
        if rec.target == "P3":
            L = QuarticLattice(d, g - 1)
            assert isometry.is_isometry(L, m)
        else:
            q = ((4, d), (d, 2 * g - 2))
            gp, dp = rec.gd_plus
            want = ((10, dp), (dp, 2 * gp - 2))
            mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
            got = mat_mul(mt, mat_mul(q, m))
            assert got == want


def test_conjugate_examples():
    assert links.conjugate(((23, 88), (-6, -23)), ((1, 5), (0, -1))) == ((-7, -8), (6, 7))
    assert links.conjugate(((3, 8), (-1, -3)), IDENTITY) == ((3, 8), (-1, -3))
    assert links.conjugate(((31, 120), (-8, -31)), ((1, 4), (0, -1))) == ((-1, 0), (8, 1))


def test_conjugate_rejects_non_unimodular():
    with pytest.raises(ValueError):
        links.conjugate(IDENTITY, ((2, 0), (0, 1)))


def test_base_change_is_self_inverse():
    for lam in range(-8, 9):
        B = links.base_change(lam)
        assert mat_mul(B, B) == IDENTITY


def _word(*steps):
    return links.LinkWord(tuple(links.LinkStep(rec, B) for rec, B in steps))


def test_compose_word_examples():
    w = _word(
        (links.lookup((11, 10)), IDENTITY),
        (links.lookup((3, 6)), links.base_change(4)),
    )
    assert links.compose_word(w) == ((29, 40), (-8, -11))

    w = _word(
        (links.lookup((3, 8)), IDENTITY),
        (links.lookup((3, 8)), links.base_change(4)),
    )
    assert links.compose_word(w) == ((209, 56), (-56, -15))

    w = _word((links.lookup((14, 11)), IDENTITY))
    assert links.compose_word(w) == ((19, 72), (-5, -19))


def test_compose_word_rejects_bad_chains():
    x5 = links.lookup((4, 8))
    with pytest.raises(ValueError):
        links.compose_word(_word((x5, IDENTITY), (x5, IDENTITY)))
    with pytest.raises(ValueError):
        links.compose_word(links.LinkWord(()))
    # a step that starts on X5, like the X5 row's return leg, cannot open a word
    ret = links.LinkRecord((5, 8), "P3", (5, 8), 5, 3, 5, source="X5")
    with pytest.raises(ValueError):
        links.compose_word(_word((ret, IDENTITY)))


def test_realize_single_link_cases():
    # one catalog row realizes the reflection generator directly
    for r, gd in ((17, (14, 11)), (41, (6, 9))):
        L, _ = curve_model(r)
        (gen,) = classify_aut(L).generators
        word = links.realize_generator(L, gen)
        assert word is not None
        assert len(word.steps) == 1
        assert word.steps[0].record.gd == gd
        assert word.steps[0].change == IDENTITY
        assert links.compose_word(word) == gen
    # every single-link generator is the reflection in v = 4H - C', where
    # C' = B(0, 1) is the curve its step blows up, and v is a reflection axis
    for r in (17, 41, 28, 56):
        L, _ = curve_model(r)
        aut = classify_aut(L)
        for gen in aut.generators:
            (step,) = links.realize_generator(L, gen).steps
            cx, cy = mat_vec(step.change, (0, 1))
            v = (4 - cx, -cy)
            assert v in aut.axes
            assert isometry.reflection(L, v) == gen


def test_realize_involution_pairs():
    # both generators come from the same (2, 8) row; the second involution
    # blows up the swapped curve 4H - C, hence the base change
    L, _ = curve_model(56)
    g1, g2 = classify_aut(L).generators
    w1 = links.realize_generator(L, g1)
    assert [(s.record.gd, s.change) for s in w1.steps] == [((2, 8), IDENTITY)]
    w2 = links.realize_generator(L, g2)
    assert [(s.record.gd, s.change) for s in w2.steps] == [
        ((2, 8), links.base_change(4))
    ]
    assert links.compose_word(w2) == g2

    L28, _ = curve_model(28)
    h1, h2 = classify_aut(L28).generators
    v1 = links.realize_generator(L28, h1)
    assert [(s.record.gd, s.change) for s in v1.steps] == [((10, 10), IDENTITY)]
    v2 = links.realize_generator(L28, h2)
    assert [(s.record.gd, s.change) for s in v2.steps] == [
        ((10, 10), links.base_change(5))
    ]


def test_realize_infinite_order_composites():
    L48, _ = curve_model(48)
    (gen,) = classify_aut(L48).generators
    w = links.realize_generator(L48, gen)
    assert [s.record.gd for s in w.steps] == [(3, 8), (3, 8)]
    assert w.steps[1].change == links.base_change(4)
    assert links.compose_word(w) == gen


def test_realize_through_x5():
    L, _ = curve_model(40)
    (gen,) = classify_aut(L).generators
    assert gen == ((43, 18), (-12, -5))
    word = links.realize_generator(L, gen)
    assert word is not None and len(word.steps) == 2
    first, second = word.steps
    assert first.record.gd == (4, 8) and first.record.target == "X5"
    assert second.record.source == "X5" and second.record.target == "P3"
    assert second.record.gd == (4, 10) and second.record.gd_plus == (4, 8)
    assert (second.record.a, second.record.b, second.record.c) == (5, 3, 5)
    assert links.link_matrix(second.record) == ((5, 8), (-3, -5))
    # the return leg is the X5 row run backwards, after the curve swaps
    # lam = 2d/H^2 on the P3 side (16/4) and on the X5 side (20/10)
    x_inv = mat_inv_unimodular(links.link_matrix(first.record))
    want = mat_mul(x_inv, mat_mul(links.base_change(4), links.base_change(2)))
    assert links.link_matrix(second.record) == want
    assert second.change == links.base_change(2)
    assert links.compose_word(word) == gen


def _replays_on_frames(L, word):
    """Replay a word with change_basis alone: before each step the frame
    in the step's basis is the Gram (H^2, d, 2g - 2) of its record's source;
    the step then moves the frame by its conjugated matrix."""
    G = L.base
    for step in word.steps:
        rec, B = step.record, step.change
        g, d = rec.gd
        h2 = 4 if rec.source == "P3" else 10
        if change_basis(G, B) != GramLattice(h2, d, 2 * g - 2):
            return False
        m = mat_mul(mat_mul(B, links.link_matrix(rec)), mat_inv_unimodular(B))
        G = change_basis(G, m)
    return True


FRAME_RS = (17, 20, 28, 32, 40, 41, 48, 56)
FRAME_MODELS = sorted({(b, (b * b - r) // 8) for r in FRAME_RS for b in range(-12, 13)
                       if (b * b - r) % 8 == 0})


def test_realize_all_generators_with_short_words():
    words = {}
    for b, c in FRAME_MODELS:
        L = QuarticLattice(b, c)
        for gen in classify_aut(L).generators:
            word = words[b, c, gen] = links.realize_generator(L, gen)
            assert word is not None, (b, c, gen)
            assert len(word.steps) <= 2
            assert links.compose_word(word) == gen
            # every word starts and ends on P3
            assert word.steps[0].record.source == "P3"
            assert word.steps[-1].record.target == "P3"
            assert _replays_on_frames(L, word), (b, c, word)
    assert len(words) == 77
    # the canonical r = 17 model blows up the curve 3H - W
    (steps,) = [w.steps for (b, c, _), w in words.items() if (b, c) == (1, -2)]
    assert [(s.record.gd, s.change) for s in steps] == [((14, 11), links.base_change(3))]


def _with_frames(recs):
    return [(rec, links.frame(rec.source, rec.gd), links.link_matrix(rec)) for rec in recs]


REF_OPENERS = _with_frames(links.catalog())
REF_CLOSERS = _with_frames((*(rec for rec in links.catalog() if rec.target == "P3"),
                            *(links._reversed(rec) for rec in links.catalog()
                              if rec.target != "P3")))


def _linear_search(L, target):
    """The link search as a linear scan, the oracle for realize_generator:
    every row may open and every closer may close, each step found by
    _step_candidates on GramLattice frames and applied with change_basis."""
    firsts = [(rec, B, links.conjugate(lm, B))
              for rec, want, lm in REF_OPENERS for B in links._step_candidates(L.base, want)]
    for rec, B, m in firsts:
        if rec.target == "P3" and m == target:
            return _word((rec, B))
    for rec1, B1, m1 in firsts:
        cur = change_basis(L.base, m1)
        for rec2, want, lm2 in REF_CLOSERS:
            for B2 in links._step_candidates(cur, want):
                if mat_mul(m1, links.conjugate(lm2, B2)) == target:
                    return _word((rec1, B1), (rec2, B2))
    return None


def test_realize_generator_matches_the_linear_search():
    """The same word, or None, as the linear scan: on the generators of
    every model with |b| <= 12 and 9 < r <= 1000 where classify_aut answers,
    and on the frame-discriminant models also on products of conjugated
    link matrices over a box of bases, reachable or not."""
    gens = 0
    for b in range(-12, 13):
        for r in range(10, 1001):
            if (b * b - r) % 8:
                continue
            L = QuarticLattice(b, (b * b - r) // 8)
            try:
                kind = classify_aut(L)
            except RuntimeError:
                continue
            for g in kind.generators:
                gens += 1
                assert links.realize_generator(L, g) == _linear_search(L, g), (L, g)
    assert gens == 2307
    box = [((1, x), (0, eps)) for eps in (1, -1) for x in range(-4, 5)]
    seen = collections.Counter()
    for b, c in FRAME_MODELS:
        L = QuarticLattice(b, c)
        firsts = [links.conjugate(lm, B)
                  for _, want, lm in REF_OPENERS for B in links._step_candidates(L.base, want)]
        targets = {links.conjugate(lm, B) for _, _, lm in REF_OPENERS for B in box}
        targets |= {mat_mul(m1, links.conjugate(lm, B))
                    for m1 in firsts for _, _, lm in REF_CLOSERS for B in box}
        for t in sorted(targets):
            word = links.realize_generator(L, t)
            assert word == _linear_search(L, t), (L, t)
            if word is None:
                seen["none"] += 1
                continue
            last = word.steps[-1]
            seen[len(word.steps), last.change[1][1], last.record.source] += 1
    assert seen["none"] > 0
    assert {k for k in seen if k != "none"} == {
        (1, 1, "P3"), (1, -1, "P3"), (2, 1, "P3"), (2, -1, "P3"), (2, 1, "X5"), (2, -1, "X5")}


def test_no_link_candidate_off_the_frame_discriminants(monkeypatch):
    """A word's first step needs a unimodular basis change from {H, W} to
    a P3 frame (4, d, 2g - 2), so det = -r must be a frame's determinant:
    on any other discriminant the search builds no candidate at all."""
    assert set(FRAME_RS) == {rec.gd[1] ** 2 - 8 * (rec.gd[0] - 1)
                             for rec in links.catalog() if rec.source == "P3"}

    def refuse(cur, want):
        raise AssertionError(f"candidate built from {cur} to {want}")

    monkeypatch.setattr(links, "_step_candidates", refuse)
    probed = 0
    for r in range(10, 1001):
        if r % 8 not in (0, 1, 4) or r in FRAME_RS:
            continue
        L = QuarticLattice.from_disc(r)
        try:
            gens = classify_aut(L).generators
        except RuntimeError:
            gens = ()
        for target in (IDENTITY, *gens):
            assert links.realize_generator(L, target) is None, (r, target)
            probed += 1
    assert probed == 639


# even Gram matrices ((q11, q12), (q12, q22)) with H^2 = q11 > 0, nondegenerate
frames = st.tuples(st.integers(1, 10).map(lambda k: 2 * k), st.integers(-40, 40),
                   st.integers(-20, 20).map(lambda k: 2 * k)).filter(
    lambda q: q[0] * q[2] != q[1] * q[1])


@settings(max_examples=300, deadline=None)
@given(frames, st.integers(-40, 40), st.integers(-20, 20).map(lambda k: 2 * k))
def test_step_candidates_vs_brute_force(q, w12, w22):
    """Every basis change ((1, x), (0, eps)) that fixes H is found, and
    every candidate returned carries cur onto want, also for an arbitrary
    want ((q11, w12), (w12, w22)) of the same H^2."""
    assume(q[0] * w22 != w12 * w12)
    cur = GramLattice(*q)
    wants = [GramLattice(q[0], w12, w22)]
    for eps in (1, -1):
        for x in range(-12, 13):
            B = ((1, x), (0, eps))
            wants.append(change_basis(cur, B))
            assert B in links._step_candidates(cur, wants[-1]), (cur, B)
    for want in wants:
        got = links._step_candidates(cur, want)
        assert all(change_basis(cur, B) == want for B in got), (cur, want, got)


def test_verify_paper_names_the_first_step_off_its_frame(monkeypatch):
    realize = links.realize_generator

    def second_step_unswapped(L, target):
        word = realize(L, target)
        if word is None or len(word.steps) < 2:
            return word
        first, second = word.steps
        return links.LinkWord((first, second._replace(change=IDENTITY)))

    monkeypatch.setattr(links, "realize_generator", second_step_unswapped)
    checks = {c.name: c for c in verify.suite_realization()}
    # the r = 20 word closes with the (3, 6) self-link after the swap 4H - C
    bad = checks["realize r=20 #1"]
    assert not bad.ok
    assert bad.detail.startswith("step 2 (P3 (3, 6)) starts on frame")
    assert checks["realize r=17 #1"].ok


def test_compose_word_refuses_a_later_step_off_its_frame():
    # the r = 20 curve-model word closes with the (3, 6) self-link after the
    # swap 4H - C; without the swap step 2 starts off its row's frame, though
    # both steps start on P3 and the product is still an integer matrix
    L, _ = curve_model(20)
    word = links.realize_generator(L, ((29, 40), (-8, -11)))
    assert [(s.record.gd, s.change) for s in word.steps] == [
        ((11, 10), IDENTITY), ((3, 6), ((1, 4), (0, -1)))]
    first, second = word.steps
    with pytest.raises(ValueError, match=r"^step 2 \(P3 \(3, 6\)\) starts on frame"):
        links.compose_word(links.LinkWord((first, second._replace(change=IDENTITY))))


def test_verify_paper_names_a_word_off_the_lattice(monkeypatch):
    # every found word is the r = 20 one: it replays on its own frames, but
    # its first step does not start on the frame {H, W} of any other lattice
    L20, _ = curve_model(20)
    word = links.realize_generator(L20, ((29, 40), (-8, -11)))
    monkeypatch.setattr(links, "realize_generator", lambda L, target: word)
    checks = {c.name: c for c in verify.suite_realization()}
    assert checks["realize r=20 #1"].ok
    bad = checks["realize r=17 #1"]
    assert not bad.ok
    assert bad.detail == ("step 1 (P3 (11, 10)) does not start on {H, W} = "
                          "GramLattice(q11=4, q12=11, q22=26)")


def test_verify_paper_refuses_a_published_word_off_its_frames(monkeypatch):
    # the r = 20 table word without the swap before its second step
    table = [(name, ((((11, 10), 0), ((3, 6), 0)) if name == "r=20" else steps), want)
             for name, steps, want in verify.COMPOSE_TABLE]
    monkeypatch.setattr(verify, "COMPOSE_TABLE", tuple(table))
    checks = {c.name: c for c in verify.suite_realization()}
    bad = checks["compose r=20"]
    assert not bad.ok
    assert bad.detail.startswith("step 2 (P3 (3, 6)) starts on frame")
    assert checks["compose r=48"].ok


def test_curve_data_transport_at_56():
    # the swapped curve 4H - C has the same genus and degree, so the same
    # catalog row applies after the base change
    L, gd = curve_model(56)
    C2 = (4, -1)
    assert genus_degree(L, C2) == gd == (2, 8)


def test_word_to_json_schema():
    L, _ = curve_model(48)
    (gen,) = classify_aut(L).generators
    word = links.realize_generator(L, gen)
    out = links.word_to_json(word, gen)
    assert out["matches_generator"] is True
    assert out["composite"] == ((209, 56), (-56, -15))
    assert [w["gd"] for w in out["word"]] == [(3, 8), (3, 8)]
    assert out["word"][0]["base_change"] == ((1, 0), (0, 1))
    assert out["word"][1]["base_change"] == ((1, 4), (0, -1))
    assert {"gd", "target", "base_change", "abc"} <= set(out["word"][0])
    for step, rec in zip(out["word"], (s.record for s in word.steps)):
        assert step["abc"] == [rec.a, rec.b, rec.c]


abc = st.tuples(st.integers(1, 60), st.integers(1, 12), st.integers(1, 60))


@settings(max_examples=1000, deadline=None)
@given(abc)
def test_link_shape_always_has_det_minus_one(t):
    a, b, c = t
    if (a * c - 1) % b:
        return
    rec = links.LinkRecord((1, 1), "P3", (1, 1), a, b, c)
    assert mat_det(links.link_matrix(rec)) == -1

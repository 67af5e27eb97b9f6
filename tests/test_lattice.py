import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartaut.lattice import (
    GramLattice,
    IDENTITY,
    change_basis,
    discriminant,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    mat_pow,
    pairing,
    reflection_in,
)

L17 = GramLattice(4, 11, 26)
L56 = GramLattice(4, 8, 2)


def test_pairing_reads_gram_entries():
    assert pairing(L17, (1, 0), (0, 1)) == 11
    assert pairing(L17, (0, 1), (0, 1)) == 26
    assert pairing(L17, (4, -1), (4, -1)) == 2
    # the reflection in v reads its columns off the pairings with v; it
    # fixes v for any square and is refused when not integral
    assert reflection_in(GramLattice(4, 6, 4), (4, -1)) == ((3, 8), (-1, -3))
    with pytest.raises(ValueError):
        reflection_in(GramLattice(4, 1, -4), (1, 0))  # 2(W.H)/H^2 = 1/2


def test_discriminant_examples():
    assert discriminant(L17) == 17
    assert discriminant(L56) == 56
    assert discriminant(GramLattice(2, 0, -2)) == 4


def test_change_basis_identity():
    out = change_basis(L56, IDENTITY)
    assert out.lattice == L56
    assert out.index == 1


def test_change_basis_curve_swap_is_self_similar():
    # swapping the curve to 4H - C preserves the whole Gram matrix at disc 56
    out = change_basis(L56, ((1, 4), (0, -1)))
    assert out.lattice == L56
    assert out.index == 1


def test_change_basis_flags_finite_index():
    out = change_basis(GramLattice(4, 10, 20), ((1, 0), (0, 2)))
    assert discriminant(out.lattice) == 80
    assert out.index == 2


def test_change_basis_rejects_singular():
    with pytest.raises(ValueError):
        change_basis(L17, ((1, 2), (2, 4)))


def test_gram_lattice_rejects_odd_diagonal():
    with pytest.raises(ValueError):
        GramLattice(3, 1, 2)
    with pytest.raises(ValueError):
        GramLattice(4, 1, 5)


def test_gram_lattice_rejects_degenerate():
    with pytest.raises(ValueError):
        GramLattice(2, 2, 2)  # det = 0


def test_json_shape():
    assert L17.to_json() == {"q": [[4, 11], [11, 26]]}


even_ints = st.integers(-50, 50).map(lambda k: 2 * k)
any_ints = st.integers(-100, 100)
vecs = st.tuples(any_ints, any_ints)


def lattices():
    return (
        st.tuples(even_ints, any_ints, even_ints)
        .filter(lambda t: t[0] * t[2] != t[1] * t[1])
        .map(lambda t: GramLattice(*t))
    )


@given(lattices(), vecs, vecs)
def test_pairing_symmetric(L, u, v):
    assert pairing(L, u, v) == pairing(L, v, u)


@given(lattices(), vecs)
def test_self_pairing_even(L, u):
    assert pairing(L, u, u) % 2 == 0


unimodular_like = st.tuples(any_ints, any_ints, any_ints, any_ints).map(
    lambda t: ((t[0], t[1]), (t[2], t[3]))
)


@given(lattices(), unimodular_like)
def test_disc_scales_by_det_squared(L, B):
    d = mat_det(B)
    if d == 0:
        with pytest.raises(ValueError):
            change_basis(L, B)
        return
    out = change_basis(L, B)
    assert discriminant(out.lattice) == d * d * discriminant(L)
    assert out.index == abs(d)


@settings(max_examples=1000)
@given(st.integers(-60, 60), st.integers(-500, 0))
def test_quartic_profile_disc_mod8(b, c):
    # any (b, c) with positive disc lands in the three residue classes
    r = b * b - 8 * c
    if r <= 0:
        return
    L = GramLattice(4, b, 2 * c)
    assert discriminant(L) == r
    assert r % 8 in (0, 1, 4)


def _unimod(a, b, s):
    # two shears and a column sign: determinant is always +-1
    m = mat_mul(((1, a), (0, 1)), ((1, 0), (b, 1)))
    return mat_mul(m, ((1, 0), (0, s)))


unimodulars = st.builds(
    _unimod, st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([1, -1])
)


@given(unimodulars)
def test_unimodular_inverse(B):
    assert mat_det(B) in (1, -1)
    assert mat_mul(B, mat_inv_unimodular(B)) == IDENTITY
    assert mat_mul(mat_inv_unimodular(B), B) == IDENTITY


@given(unimodulars, st.integers(-6, 6))
def test_mat_pow_matches_repeated_product(B, k):
    acc = IDENTITY
    step = B if k >= 0 else mat_inv_unimodular(B)
    for _ in range(abs(k)):
        acc = mat_mul(acc, step)
    assert mat_pow(B, k) == acc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracorbits.clifford import (
    CliffordRep,
    DimensionTooLarge,
    SingularityTooClose,
    build_rep,
    bundle_iso_m2,
    bundle_iso_m4,
    chirality_op,
    dirac_apply_fd,
    verify_rep,
)

PAULI = [
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]], dtype=complex),
    np.array([[-1j, 0], [0, 1j]], dtype=complex),
]

M4_EXPECTED = [
    np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]]),
    np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]),
    np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
    np.array([[0, 0, 1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, 1j, 0, 0]]),
]


@pytest.mark.parametrize("m", range(1, 13))
def test_invariants_exact_through_m12(m):
    rep = build_rep(m)
    assert rep.dim == 2 ** (m // 2)
    report = verify_rep(rep)
    assert report["ok"], report
    assert report["entries_in_{0,+-1,+-i}"]
    # exactly one nonzero entry per row and column, modulus 1
    for a in rep.alphas:
        nz = (a.re != 0) | (a.im != 0)
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)
        assert np.all(np.abs(a.re[nz]) + np.abs(a.im[nz]) == 1)


def test_m1_is_scalar_i():
    rep = build_rep(1)
    assert rep.dim == 1
    assert rep.alphas[0].to_complex()[0, 0] == 1j


def test_m2_matrices_match_reference():
    rep = build_rep(2)
    for got, want in zip(rep.alphas, PAULI[:2]):
        assert np.array_equal(got.to_complex(), want)


def test_m3_matrices_are_pauli():
    rep = build_rep(3)
    for got, want in zip(rep.alphas, PAULI):
        assert np.array_equal(got.to_complex(), want)
    # the first two reuse the m=2 family exactly
    rep2 = build_rep(2)
    for j in range(2):
        assert rep.alphas[j].equals(rep2.alphas[j])


def test_m4_matrices_match_reference():
    rep = build_rep(4)
    for got, want in zip(rep.alphas, M4_EXPECTED):
        assert np.array_equal(got.to_complex(), want)


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_rep(13)


@pytest.mark.parametrize("m", range(1, 13))
def test_chirality_squares_to_identity(m):
    rep = build_rep(m)
    sq = rep.chirality @ rep.chirality
    assert np.array_equal(sq.to_complex(), np.eye(rep.dim))


def test_chirality_low_dim_values():
    # recorded from the direct matrix product (sign is convention-bound)
    assert np.array_equal(build_rep(2).chirality.to_complex(), np.diag([-1.0, 1.0]))
    assert np.array_equal(build_rep(3).chirality.to_complex(), -np.eye(2))


def test_verify_rep_detects_duplicated_matrix():
    rep = build_rep(3)
    broken = CliffordRep(
        m=3,
        dim=2,
        alphas=(rep.alphas[0], rep.alphas[0], rep.alphas[2]),
        chirality=chirality_op((rep.alphas[0], rep.alphas[0], rep.alphas[2]), 3),
    )
    report = verify_rep(broken)
    assert not report["anticommutators_ok"]
    assert (2, 1) in report["pair_failures"]


def test_verify_rep_sign_flip_still_passes():
    rep = build_rep(3)
    flipped = CliffordRep(
        m=3,
        dim=2,
        alphas=(rep.alphas[0], -rep.alphas[1], rep.alphas[2]),
        chirality=rep.chirality,
    )
    assert verify_rep(flipped)["anticommutators_ok"]


def test_fd_constant_field_zero():
    rep = build_rep(2)
    out = dirac_apply_fd(rep, lambda x: np.array([1.0, 2.0j]), np.array([1.0, 1.0]))
    assert np.max(np.abs(out)) < 1e-10


def test_fd_linear_field_exact():
    rep = build_rep(2)
    gamma0 = np.array([1.0, 0.0], dtype=complex)

    out = dirac_apply_fd(rep, lambda x: x[0] * gamma0, np.array([0.5, 0.3]))
    want = rep.alphas[0].to_complex() @ gamma0
    assert np.max(np.abs(out - want)) < 1e-10


def test_fd_singularity_guard():
    rep = build_rep(2)
    with pytest.raises(SingularityTooClose):
        dirac_apply_fd(rep, lambda x: x, np.array([1e-7, 0.0]), h=1e-5)


def test_bundle_iso_m2_intertwines():
    M, betas, corr = bundle_iso_m2()
    alphas = [a.to_complex() for a in build_rep(2).alphas]
    assert np.allclose(M @ M.conj().T, np.eye(2))
    for beta, (j, c) in zip(betas, corr):
        assert np.allclose(M @ beta, c * alphas[j - 1] @ M, atol=1e-14)


def test_bundle_iso_m4_intertwines():
    T, betas, corr = bundle_iso_m4()
    alphas = [a.to_complex() for a in build_rep(4).alphas]
    assert np.allclose(T @ T.conj().T, np.eye(4))
    for beta, (j, c) in zip(betas, corr):
        assert np.allclose(T @ beta, c * alphas[j - 1] @ T, atol=1e-14)


@given(st.integers(1, 8), st.data())
@settings(max_examples=25, deadline=None)
def test_bundle_isos_on_random_spinors(m_sel, data):
    # intertwining holds pointwise on arbitrary spinor samples
    iso = bundle_iso_m2() if m_sel % 2 else bundle_iso_m4()
    M, betas, corr = iso
    n = M.shape[0]
    alphas = [a.to_complex() for a in build_rep(2 if n == 2 else 4).alphas]
    vals = data.draw(
        st.lists(st.floats(-5, 5), min_size=2 * n, max_size=2 * n)
    )
    psi = np.array(vals[:n]) + 1j * np.array(vals[n:])
    for beta, (j, c) in zip(betas, corr):
        lhs = M @ (beta @ psi)
        rhs = c * (alphas[j - 1] @ (M @ psi))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_matrices_are_the_alphas_as_one_complex_array():
    for m in range(1, 9):
        rep = build_rep(m)
        assert rep.matrices.shape == (m, rep.dim, rep.dim)
        for k, a in enumerate(rep.alphas):
            assert np.array_equal(rep.matrices[k], a.to_complex())

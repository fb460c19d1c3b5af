import hashlib

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
    rep_to_json_dict,
    verify_rep,
)
from diracorbits.serialize import dumps

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
        nz = a != 0
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)
        assert np.all(np.abs(a.real[nz]) + np.abs(a.imag[nz]) == 1)


def test_m1_is_scalar_i():
    rep = build_rep(1)
    assert rep.dim == 1
    assert rep.alphas[0][0, 0] == 1j


def test_m2_matrices_match_reference():
    rep = build_rep(2)
    for got, want in zip(rep.alphas, PAULI[:2]):
        assert np.array_equal(got, want)


def test_m3_matrices_are_pauli():
    rep = build_rep(3)
    for got, want in zip(rep.alphas, PAULI):
        assert np.array_equal(got, want)
    # the first two reuse the m=2 family exactly
    rep2 = build_rep(2)
    for j in range(2):
        assert np.array_equal(rep.alphas[j], rep2.alphas[j])


def test_m4_matrices_match_reference():
    rep = build_rep(4)
    for got, want in zip(rep.alphas, M4_EXPECTED):
        assert np.array_equal(got, want)


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        build_rep(13)


@pytest.mark.parametrize("m", range(1, 13))
def test_chirality_squares_to_identity(m):
    rep = build_rep(m)
    sq = rep.chirality @ rep.chirality
    assert np.array_equal(sq, np.eye(rep.dim))


def test_chirality_low_dim_values():
    # recorded from the direct matrix product (sign is convention-bound)
    assert np.array_equal(build_rep(2).chirality, np.diag([-1.0, 1.0]))
    assert np.array_equal(build_rep(3).chirality, -np.eye(2))


def test_verify_rep_detects_duplicated_matrix():
    rep = build_rep(3)
    alphas = rep.alphas[[0, 0, 2]]
    broken = CliffordRep(m=3, dim=2, alphas=alphas, chirality=chirality_op(alphas, 3))
    report = verify_rep(broken)
    assert not report["anticommutators_ok"]
    assert (2, 1) in report["pair_failures"]


def test_verify_rep_sign_flip_still_passes():
    rep = build_rep(3)
    flipped = CliffordRep(
        m=3,
        dim=2,
        alphas=np.stack([rep.alphas[0], -rep.alphas[1], rep.alphas[2]]),
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
    want = rep.alphas[0] @ gamma0
    assert np.max(np.abs(out - want)) < 1e-10


def test_fd_singularity_guard():
    rep = build_rep(2)
    with pytest.raises(SingularityTooClose):
        dirac_apply_fd(rep, lambda x: x, np.array([1e-7, 0.0]), h=1e-5)


def test_bundle_iso_m2_intertwines():
    M, betas, corr = bundle_iso_m2()
    alphas = build_rep(2).alphas
    assert np.allclose(M @ M.conj().T, np.eye(2))
    for beta, (j, c) in zip(betas, corr):
        assert np.allclose(M @ beta, c * alphas[j - 1] @ M, atol=1e-14)


def test_bundle_iso_m4_intertwines():
    T, betas, corr = bundle_iso_m4()
    alphas = build_rep(4).alphas
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
    alphas = build_rep(2 if n == 2 else 4).alphas
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
        assert rep.alphas.shape == (m, rep.dim, rep.dim)
        assert rep.alphas.dtype == np.complex128
        assert rep.chirality.shape == (rep.dim, rep.dim)
        # the one complex array is exactly the integer pairs it serializes to
        pairs = np.array(rep_to_json_dict(rep)["alphas"])
        assert np.array_equal(rep.alphas, pairs[..., 0] + 1j * pairs[..., 1])


# sha256 of the serialized family and of its verification report, pinned
# from the int64 real/imaginary construction: any later storage of the
# alphas must write the same bytes.
REP_SHA256 = [
    (1, "c8629514aa8a9ff39dab046ad31a368e7433cf7dd7d52ddeb65a025c6c7d999c",
         "4ba9863a84ad7a83d0abb7dd4ae09e745e92435256d6c81f5a724c6c8ab61518"),
    (2, "3ea633758757ad64c445d378b6df71ad9ff643cd01f31d3d747896ff890015ec",
         "e33a66a06bc7917c7ca0dbc961639875d44bec11a62b07c85600d49c62ef3686"),
    (3, "b42a468574dfbe735060e13f4b5c943bc705d4d1da41757b855ba04705024dd9",
         "a03b512025087ad4625faa7d79d77577ba4a8a498806da589d501788d7c6faae"),
    (4, "41cdd438fd46a4853d60bb27643c313b3d62d56b0b14cff0ebe2f16a1e468ed7",
         "010c65b1915e95950e8a4cdcb35b0b52774cf9cf3d14e11dceb1fd9eacc28d93"),
    (5, "c46e14865396f814ffb11cf76358a02c84aa21413101b83c74b082e214152521",
         "19ceb55c24ce8a1f7ea01f46787df468efcdf76a988c5b800cc060b6313321b0"),
    (6, "555e863b6f1b2ef4bb1ab72b4f60327c3a3d904baf2331e6d785a6b008c04208",
         "ba8d61b4f55a20f00550dd1b3f8d63abd0c16acf6c0c07d051a09daf8b4ced88"),
    (7, "1fd58eba2a91545ff1bfb6a82dc7afc368ec7264b7d650bc857b72de34751823",
         "db4cc6ad9d48b6fe060c3ccddcf640f0ad53bee4d440e4be4f318e57fbecfd33"),
    (8, "5ad4f2df3a406a5366d1172991f0207f48ee50a45f26c6eb9bb5e0d0f31b658a",
         "a18e88dbfa2c9ce276c1597b9eec084ce61ce1c4d41b628b71108133c6a977be"),
    (9, "91de8b0b2ddfa398f77c93b87baf1015c1a6c733b48f05fb9f8cfe62ac2a1c9f",
         "d73e865b207755374a74607b926e08acec590ff5ce887475cbe18b25b0ec8bad"),
    (10, "7ba1d45c44b7275ab3e562e193ff5859d0ace6e9fea0e6a1306be0207c455b9d",
         "d1961fb5dbe71366c6f5f372ea3637f3e9c2fbcf171c9c73dad8dd2026d5fc8e"),
    (11, "96fffba9622a50765a8e19b6cecd3762e428247b972946a38758b238749a6b55",
         "9e89e562f232a03ac3e89473c1fd40f3502ca8b282ce8d54e3821e1cd7f88cb3"),
    (12, "82f22a29d2fbd312234ae610d1e22f31c6f84f54147755777bc270765d7d556c",
         "a1e9e6122546112de1e71fc01e8e2d2c1b5182cabe3b21ac6eaed6fc069f5ea1"),
]


@pytest.mark.parametrize("m, rep_sha, report_sha", REP_SHA256)
def test_serialized_rep_and_report_bytes_are_pinned(m, rep_sha, report_sha):
    rep = build_rep(m)
    assert hashlib.sha256(dumps(rep_to_json_dict(rep)).encode()).hexdigest() == rep_sha
    assert hashlib.sha256(dumps(verify_rep(rep)).encode()).hexdigest() == report_sha


def test_rep_hashes_by_identity_and_its_arrays_are_read_only():
    rep = build_rep(3)
    assert hash(rep) == hash(rep) and rep == rep and rep != build_rep(3)
    assert len({rep, rep}) == 1
    for a in (rep.alphas, rep.chirality):
        with pytest.raises(ValueError):
            a[0] *= -1
    assert np.array_equal(rep.alphas, build_rep(3).alphas)

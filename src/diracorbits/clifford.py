"""Exact complex representations of the Clifford anticommutation relations.

Builds, for each spatial dimension m, a family of skew-Hermitian matrices
alpha_1..alpha_m of size 2^floor(m/2) satisfying

    alpha_j alpha_k + alpha_k alpha_j = -2 delta_jk I.

All entries lie in {0, +-1, +-i}, so the complex double arrays hold them,
and every product the checks form, exactly; all identities are checked
with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CliffordRep",
    "DimensionTooLarge",
    "build_rep",
    "chirality_op",
    "verify_rep",
    "dirac_apply_fd",
    "SingularityTooClose",
    "bundle_iso_m2",
    "bundle_iso_m4",
    "rep_to_json_dict",
]

MAX_DIMENSION = 12
_I_POWERS = (1, 1j, -1, -1j)


class DimensionTooLarge(ValueError):
    pass


class SingularityTooClose(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CliffordRep:
    """alphas: complex (m, dim, dim) array; chirality: complex (dim, dim).

    Equality and hash are by identity: numpy fields have no truth value to
    compare by. ``build_rep`` returns read-only arrays, so a rep stays as
    built; compare two with ``np.array_equal`` on their fields.
    """

    m: int
    dim: int
    alphas: np.ndarray
    chirality: np.ndarray = field(repr=False)


def build_rep(m: int) -> CliffordRep:
    """Construct the standard recursive representation for dimension m.

    m = 1: alpha_1 = (i).
    m even: alpha_j = [[0, -i a_j],[i a_j, 0]] from the (m-1)-family, and
            alpha_m = [[0, iI],[iI, 0]].
    m odd (m >= 3): reuse the (m-1)-family and append
            alpha_m = i^{(m+1)/2} alpha_1 ... alpha_{m-1}.

    Exactness: every alpha, and every product of alphas, is a signed
    permutation matrix with entries in {+-1, +-i}. Each entry of such a
    product has a single nonzero term, and the anticommutator sums
    verify_rep forms are integers in [-2, 2]. Complex doubles hold all of
    these exactly, so the identity checks need no tolerance.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_DIMENSION:
        raise DimensionTooLarge(f"m = {m} exceeds the supported maximum {MAX_DIMENSION}")

    alphas = np.array([[[1j]]])
    for mm in range(2, m + 1):
        if mm % 2 == 0:
            z = np.zeros_like(alphas[0])
            i_ident = 1j * np.eye(len(z))
            alphas = np.array([np.block([[z, -1j * a], [1j * a, z]]) for a in alphas]
                              + [np.block([[z, i_ident], [i_ident, z]])])
        else:  # i^{(mm+1)/2} alpha_1 ... alpha_{mm-1} = i omega_{mm-1}, as mm - 1 is even
            alphas = np.concatenate([alphas, [1j * chirality_op(alphas, mm - 1)]])

    chirality = chirality_op(alphas, m)
    alphas.flags.writeable = chirality.flags.writeable = False
    return CliffordRep(m=m, dim=len(alphas[0]), alphas=alphas, chirality=chirality)


def chirality_op(alphas: np.ndarray, m: int) -> np.ndarray:
    """omega = i^{floor((m+1)/2)} alpha_1 ... alpha_m; squares to the identity."""
    prod = alphas[0] if m == 1 else np.linalg.multi_dot(list(alphas[:m]))
    return _I_POWERS[(m + 1) // 2 % 4] * prod


def verify_rep(rep: CliffordRep) -> dict:
    """Exact structural checks; every compared entry is a small integer.

    Returns a report with per-pair anticommutator status, skew-Hermitian
    status, and whether the chirality operator squares to the identity.
    """
    a, m, ident = rep.alphas, len(rep.alphas), np.eye(rep.dim)
    pair_failures = [(j + 1, k + 1) for j in range(m) for k in range(j + 1)
                     if not np.array_equal(a[j] @ a[k] + a[k] @ a[j], -2 * (j == k) * ident)]
    anticommutators_ok = not pair_failures
    skew_hermitian_ok = np.array_equal(a.conj().transpose(0, 2, 1), -a)
    chirality_ok = np.array_equal(rep.chirality @ rep.chirality, ident)
    entries_unimodular = bool(np.all((a.real * a.imag == 0)
                                     & (np.abs(a.real) + np.abs(a.imag) <= 1)))
    return {
        "m": rep.m,
        "dim": rep.dim,
        "anticommutators_ok": anticommutators_ok,
        "pair_failures": pair_failures,
        "skew_hermitian_ok": skew_hermitian_ok,
        "chirality_squares_to_identity": chirality_ok,
        "entries_in_{0,+-1,+-i}": entries_unimodular,
        "ok": anticommutators_ok and skew_hermitian_ok and chirality_ok,
    }


def dirac_apply_fd(
    rep: CliffordRep,
    spinor_field,
    x: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Apply the flat Dirac operator sum_k alpha_k d/dx_k by central differences.

    ``spinor_field`` maps a point in R^m to a complex vector of length
    rep.dim. Points within h of the origin are rejected because the fields
    of interest are singular there.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (rep.m,):
        raise ValueError(f"x must have shape ({rep.m},)")
    if float(np.linalg.norm(x)) <= h:
        raise SingularityTooClose(f"|x| = {np.linalg.norm(x)} <= h = {h}")
    out = np.zeros(rep.dim, dtype=np.complex128)
    for k in range(rep.m):
        e = np.zeros(rep.m)
        e[k] = h
        dpsi = (np.asarray(spinor_field(x + e)) - np.asarray(spinor_field(x - e))) / (2 * h)
        out += rep.alphas[k] @ dpsi
    return out


def bundle_iso_m2() -> tuple[np.ndarray, list[np.ndarray], list[tuple[int, complex]]]:
    """Fiberwise identification of the 2-D spinor bundle with a product.

    Returns (M, betas, correspondence): M is the fixed unitary change of
    frame, betas are the product-structure coefficient matrices
    (beta_1 = diag(i, -i) for the first coordinate, beta_2 = [[0,-1],[1,0]]
    for the second), and correspondence[k] = (j, c) records the verified
    relation M beta_k = c * alpha_j M. The coordinates swap roles:
    beta_1 pairs with alpha_2 and beta_2 with alpha_1.
    """
    M = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    betas = [
        np.diag([1j, -1j]).astype(np.complex128),
        np.array([[0, -1], [1, 0]], dtype=np.complex128),
    ]
    correspondence = [(2, 1.0 + 0j), (1, 1.0 + 0j)]
    return M, betas, correspondence


def bundle_iso_m4() -> tuple[np.ndarray, list[np.ndarray], list[tuple[int, complex]]]:
    """Fiberwise identification of the 4-D spinor bundle with a 3+1 product.

    The product-structure operator has coefficients
    beta_k = blockdiag(alpha_k^(3), -alpha_k^(3)) for k = 1..3 and
    beta_4 = i * [[0, I], [-I, 0]]. With the fixed frame change T below,
    the verified relations are T beta_k = c * alpha_j^(4) T with
    correspondence (2, -1), (1, -1), (4, -1), (3, i) — a signed
    permutation of the coordinates (exact; recorded from direct matrix
    arithmetic).
    """
    T = np.array(
        [[0, -1, 0, 1], [-1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, -1, 0]],
        dtype=np.complex128,
    ) / np.sqrt(2)
    a3 = build_rep(3).alphas
    z = np.zeros((2, 2))
    betas = [np.block([[a, z], [z, -a]]) for a in a3]
    betas.append(1j * np.block([[z, np.eye(2)], [-np.eye(2), z]]))
    correspondence = [(2, -1.0 + 0j), (1, -1.0 + 0j), (4, -1.0 + 0j), (3, 1j)]
    return T, betas, correspondence


def rep_to_json_dict(rep: CliffordRep) -> dict:
    """Serialize as {"m", "dim", "alphas"}; entries are [re, im] integer pairs."""
    a = rep.alphas
    return {
        "m": rep.m,
        "dim": rep.dim,
        "alphas": np.stack([a.real, a.imag], -1).astype(np.int64).tolist(),
    }

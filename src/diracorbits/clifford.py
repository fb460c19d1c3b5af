"""Exact complex representations of the Clifford anticommutation relations.

Builds, for each spatial dimension m, a family of skew-Hermitian matrices
alpha_1..alpha_m of size 2^floor(m/2) satisfying

    alpha_j alpha_k + alpha_k alpha_j = -2 delta_jk I.

All entries are Gaussian integers, so matrices are stored as integer
real/imaginary parts and all identities are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianMatrix",
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


class DimensionTooLarge(ValueError):
    pass


class SingularityTooClose(ValueError):
    pass


@dataclass(frozen=True)
class GaussianMatrix:
    """Square matrix over the Gaussian integers, stored as int64 parts."""

    re: np.ndarray
    im: np.ndarray

    @staticmethod
    def zeros(n: int) -> "GaussianMatrix":
        return GaussianMatrix(np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64))

    @staticmethod
    def identity(n: int) -> "GaussianMatrix":
        return GaussianMatrix(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64))

    @property
    def n(self) -> int:
        return self.re.shape[0]

    def __matmul__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        return GaussianMatrix(
            self.re @ other.re - self.im @ other.im,
            self.re @ other.im + self.im @ other.re,
        )

    def __add__(self, other: "GaussianMatrix") -> "GaussianMatrix":
        return GaussianMatrix(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "GaussianMatrix":
        return GaussianMatrix(-self.re, -self.im)

    def times_i_power(self, k: int) -> "GaussianMatrix":
        """Multiply by i^k (k mod 4)."""
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return GaussianMatrix(-self.im, self.re)
        if k == 2:
            return -self
        return GaussianMatrix(self.im, -self.re)

    def conj_transpose(self) -> "GaussianMatrix":
        return GaussianMatrix(self.re.T.copy(), -self.im.T.copy())

    def equals(self, other: "GaussianMatrix") -> bool:
        return bool(np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im))

    def to_complex(self) -> np.ndarray:
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)


def _block(tl: GaussianMatrix, tr: GaussianMatrix,
           bl: GaussianMatrix, br: GaussianMatrix) -> GaussianMatrix:
    return GaussianMatrix(
        np.block([[tl.re, tr.re], [bl.re, br.re]]),
        np.block([[tl.im, tr.im], [bl.im, br.im]]),
    )


@dataclass(frozen=True)
class CliffordRep:
    m: int
    dim: int
    alphas: tuple[GaussianMatrix, ...]
    chirality: GaussianMatrix = field(repr=False)

    @cached_property
    def matrices(self) -> np.ndarray:
        """The alphas as one complex (m, dim, dim) array, built on first use."""
        return np.array([a.to_complex() for a in self.alphas])


def build_rep(m: int) -> CliffordRep:
    """Construct the standard recursive representation for dimension m.

    m = 1: alpha_1 = (i).
    m even: alpha_j = [[0, -i a_j],[i a_j, 0]] from the (m-1)-family, and
            alpha_m = [[0, iI],[iI, 0]].
    m odd (m >= 3): reuse the (m-1)-family and append
            alpha_m = i^{(m+1)/2} alpha_1 ... alpha_{m-1}.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_DIMENSION:
        raise DimensionTooLarge(f"m = {m} exceeds the supported maximum {MAX_DIMENSION}")

    one = GaussianMatrix(np.array([[1]], dtype=np.int64), np.array([[0]], dtype=np.int64))
    alphas: list[GaussianMatrix] = [one.times_i_power(1)]  # m = 1: (i)

    for mm in range(2, m + 1):
        if mm % 2 == 0:
            n = alphas[0].n
            z = GaussianMatrix.zeros(n)
            ident = GaussianMatrix.identity(n)
            new = [
                _block(z, a.times_i_power(3), a.times_i_power(1), z) for a in alphas
            ]
            new.append(_block(z, ident.times_i_power(1), ident.times_i_power(1), z))
            alphas = new
        else:
            prod = alphas[0]
            for a in alphas[1:]:
                prod = prod @ a
            alphas = alphas + [prod.times_i_power((mm + 1) // 2)]

    chir = chirality_op(tuple(alphas), m)
    return CliffordRep(m=m, dim=alphas[0].n, alphas=tuple(alphas), chirality=chir)


def chirality_op(alphas: tuple[GaussianMatrix, ...], m: int) -> GaussianMatrix:
    """omega = i^{floor((m+1)/2)} alpha_1 ... alpha_m; squares to the identity."""
    prod = alphas[0]
    for a in alphas[1:m]:
        prod = prod @ a
    return prod.times_i_power((m + 1) // 2)


def verify_rep(rep: CliffordRep) -> dict:
    """Exact structural checks; every reported residual is an integer count.

    Returns a report with per-pair anticommutator status, skew-Hermitian
    status, and whether the chirality operator squares to the identity.
    """
    n = rep.dim
    ident = GaussianMatrix.identity(n)
    anticommutators_ok = True
    pair_failures = []
    for j, aj in enumerate(rep.alphas):
        for k, ak in enumerate(rep.alphas[: j + 1]):
            s = aj @ ak + ak @ aj
            expect = (-ident) + (-ident) if j == k else GaussianMatrix.zeros(n)
            if not s.equals(expect):
                anticommutators_ok = False
                pair_failures.append((j + 1, k + 1))
    skew_hermitian_ok = all(a.conj_transpose().equals(-a) for a in rep.alphas)
    chir_sq = rep.chirality @ rep.chirality
    entries_unimodular = all(
        bool(np.all((a.re * a.im == 0) & (np.abs(a.re) + np.abs(a.im) <= 1)))
        for a in rep.alphas
    )
    return {
        "m": rep.m,
        "dim": rep.dim,
        "anticommutators_ok": anticommutators_ok,
        "pair_failures": pair_failures,
        "skew_hermitian_ok": skew_hermitian_ok,
        "chirality_squares_to_identity": chir_sq.equals(ident),
        "entries_in_{0,+-1,+-i}": entries_unimodular,
        "ok": anticommutators_ok and skew_hermitian_ok and chir_sq.equals(ident),
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
        out += rep.matrices[k] @ dpsi
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
    a3 = build_rep(3).matrices
    z = np.zeros((2, 2))
    betas = [np.block([[a, z], [z, -a]]) for a in a3]
    betas.append(1j * np.block([[z, np.eye(2)], [-np.eye(2), z]]))
    correspondence = [(2, -1.0 + 0j), (1, -1.0 + 0j), (4, -1.0 + 0j), (3, 1j)]
    return T, betas, correspondence


def rep_to_json_dict(rep: CliffordRep) -> dict:
    """Serialize as {"m", "dim", "alphas"}; entries are [re, im] pairs."""
    return {
        "m": rep.m,
        "dim": rep.dim,
        "alphas": [
            [[[int(a.re[r, c]), int(a.im[r, c])] for c in range(rep.dim)]
             for r in range(rep.dim)]
            for a in rep.alphas
        ],
    }

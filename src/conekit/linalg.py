"""Dense complex matrices and a self-contained Hermitian eigensolver.

Everything here targets desk-scale matrices of up to a few dozen rows, as
each Jacobi sweep is O(n^3) Python-level work (``--max-dim`` has no cap).
The eigensolver is a cyclic Jacobi iteration with complex plane rotations,
fixed pivot order (row-major over the upper triangle), a convergence test on
the off-diagonal Frobenius mass, and a hard sweep cap.  The point of rolling
it by hand is bit-level determinism: identical input bits always take the
identical arithmetic path, so eigensystems are byte-reproducible.

Tolerances are relative with a floor of 1.0, i.e. thresholds scale with
``max(1, norm)``, which avoids dividing by the norm of near-zero matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, RejectedInputError

#: Off-diagonal mass threshold for Jacobi convergence (times max(1, fro norm)).
JACOBI_TOL = 1e-13
#: Hard cap on full Jacobi sweeps before reporting non-convergence.
JACOBI_MAX_SWEEPS = 100
#: Default tolerance for Hermitian-ness checks and downstream positivity.
DEFAULT_TOL = 1e-9


def floor_scale(x: float) -> float:
    """Relative-tolerance scale with floor 1."""
    return x if x > 1.0 else 1.0


def max_residual(a: float, b: float) -> float:
    """The larger of two residuals; a NaN on either side wins, so none is hidden."""
    return b if b > a or math.isnan(b) else a


class CMatrix:
    """Immutable square complex matrix over complex128.

    Construction copies and validates; the backing array is marked read-only,
    so values can be shared freely across threads.
    """

    __slots__ = ("_data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise RejectedInputError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise RejectedInputError("dimension-zero matrices are not supported")
        if not np.all(np.isfinite(arr)):
            raise RejectedInputError("matrix entries must be finite")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "CMatrix":
        # internal fast path: arr is a fresh complex128 square array we own
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj._data = arr
        return obj

    @classmethod
    def identity(cls, dim: int) -> "CMatrix":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def zeros(cls, dim: int) -> "CMatrix":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    @classmethod
    def diagonal(cls, values: Sequence[complex]) -> "CMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._data

    def _require_same_dim(self, other: "CMatrix") -> None:
        if self.dim != other.dim:
            raise RejectedInputError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._require_same_dim(other)
        return CMatrix._wrap(self._data + other._data)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._require_same_dim(other)
        return CMatrix._wrap(self._data - other._data)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        self._require_same_dim(other)
        return CMatrix._wrap(self._data @ other._data)

    def __mul__(self, scalar: complex) -> "CMatrix":
        return CMatrix._wrap(self._data * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "CMatrix":
        return CMatrix._wrap(-self._data)

    def adjoint(self) -> "CMatrix":
        """Conjugate transpose."""
        return CMatrix._wrap(self._data.conj().T.copy())

    def frobenius(self) -> float:
        return float(np.linalg.norm(self._data))

    def hermitian_defect(self) -> float:
        """Largest entrywise deviation of ``self - self.adjoint()``."""
        return float(np.max(np.abs(self._data - self._data.conj().T)))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.hermitian_defect() <= tol * floor_scale(self.frobenius())

    def allclose(self, other: "CMatrix", tol: float = DEFAULT_TOL) -> bool:
        """Frobenius distance below tol times the larger norm (floored at 1)."""
        self._require_same_dim(other)
        dist = float(np.linalg.norm(self._data - other._data))
        return dist <= tol * floor_scale(max(self.frobenius(), other.frobenius()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self._data, other._data))

    def __hash__(self):
        return hash((self.dim, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"CMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues (ascending) and a unitary eigenbasis of a Hermitian matrix."""

    eigenvalues: tuple[float, ...]
    basis: CMatrix

    def reconstruct(self) -> CMatrix:
        """basis . diag(eigenvalues) . basis*, deliberately not re-symmetrized:
        the ``eig_reconstruction`` property measures this raw product."""
        b = self.basis.data
        return CMatrix._wrap((b * np.asarray(self.eigenvalues)) @ b.conj().T)

    def with_eigenvalues(self, values) -> CMatrix:
        """basis . diag(values) . basis*, re-symmetrized to stay Hermitian."""
        b = self.basis.data
        out = (b * np.asarray(values)) @ b.conj().T
        return CMatrix._wrap(0.5 * (out + out.conj().T))

    def unitarity_defect(self) -> float:
        b = self.basis.data
        return float(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0])))


def _offdiag_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One complex Jacobi rotation zeroing a[p, q]; updates a and v in place."""
    apq = a[p, q]
    app = a[p, p].real
    aqq = a[q, q].real
    mag = abs(apq)
    phase = apq / mag
    tau = (aqq - app) / (2.0 * mag)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    w = (t * c) * phase

    # similarity a <- G* a G, applied as columns then rows
    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp - w.conjugate() * colq
    a[:, q] = w * colp + c * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp - w * rowq
    a[q, :] = w.conjugate() * rowp + c * rowq
    # the pivot is zero by construction; diagonal stays real
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    colp = v[:, p].copy()
    colq = v[:, q].copy()
    v[:, p] = c * colp - w.conjugate() * colq
    v[:, q] = w * colp + c * colq


def eig_hermitian(m: CMatrix, tol: float = DEFAULT_TOL) -> EigResult:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.

    The input must be Hermitian entrywise within ``tol * max(1, fro norm)``.
    Eigenvalues come back ascending, ties broken by original column order, and
    the whole computation is deterministic for identical input bits.

    Raises ``RejectedInputError`` for non-Hermitian input and
    ``ConvergenceError`` (carrying the residual) if the sweep cap is hit.
    """
    scale = floor_scale(m.frobenius())
    defect = m.hermitian_defect()
    if defect > tol * scale:
        raise RejectedInputError(
            f"matrix is not Hermitian within tolerance "
            f"(defect {defect:.3e} > {tol * scale:.3e})"
        )
    n = m.dim
    if n == 1:
        return EigResult((float(m.data[0, 0].real),), CMatrix.identity(1))

    # symmetrize once, into a fresh array, so roundoff cannot bias one triangle
    a = 0.5 * (m.data + m.data.conj().T)
    v = np.eye(n, dtype=np.complex128)
    threshold = JACOBI_TOL * scale
    skip = threshold / (4.0 * n)  # pivots below this cannot block convergence

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_mass(a) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _jacobi_rotate(a, v, p, q)
    if not converged and _offdiag_mass(a) > threshold:
        raise ConvergenceError(
            f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps",
            residual=_offdiag_mass(a),
        )

    diag = np.real(np.diag(a))
    order = np.argsort(diag, kind="stable")
    values = tuple(float(diag[i]) for i in order)
    return EigResult(values, CMatrix._wrap(np.ascontiguousarray(v[:, order])))


def operator_norm(m: CMatrix) -> float:
    """Largest singular value, computed as sqrt(max eig of m* m)."""
    gram = m.adjoint() @ m
    top = eig_hermitian(gram).eigenvalues[-1]
    return math.sqrt(top) if top > 0.0 else 0.0


def apply_spectral(
    m: CMatrix, f: Callable[[float], float], tol: float = DEFAULT_TOL
) -> CMatrix:
    """basis . diag(f(eigenvalues)) . basis* of a Hermitian m, from one eigensolve."""
    eig = eig_hermitian(m, tol)
    return eig.with_eigenvalues([float(f(lam)) for lam in eig.eigenvalues])

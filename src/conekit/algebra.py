"""Finite direct sums of full matrix algebras and their spectral calculus.

An algebra is a list of block dimensions; an element carries one matrix per
block.  The star operations, the operator norm (max over blocks), spectra,
positivity tests and the positive/negative decomposition all reduce blockwise
to the matrix layer.

Spectra are computed for Hermitian elements directly and for normal elements
by simultaneous diagonalization of the commuting Hermitian pair
(x + x*)/2 and (x - x*)/(2i); anything non-normal is rejected, since it would
need a general eigensolver this package deliberately does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, RejectedInputError, UnsupportedInputError
from .linalg import (
    DEFAULT_TOL,
    CMatrix,
    EigResult,
    apply_spectral,
    eig_hermitian,
    floor_scale,
    operator_norm,
)

#: Relative gap under which two eigenvalues of the Hermitian part are treated
#: as one cluster during normal-element diagonalization.
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class FdAlgebra:
    """A unital finite-dimensional algebra: a direct sum of full matrix blocks."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks:
            raise RejectedInputError("an algebra needs at least one block")
        if any(b < 1 for b in blocks):
            raise RejectedInputError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def element(self, parts: Iterable[CMatrix]) -> "AlgElement":
        return AlgElement(self, tuple(parts))

    def zero(self) -> "AlgElement":
        return self.element(CMatrix.zeros(n) for n in self.blocks)

    def unit(self) -> "AlgElement":
        return self.element(CMatrix.identity(n) for n in self.blocks)


class AlgElement:
    """One matrix per block of its parent algebra; immutable."""

    __slots__ = ("parent", "parts")

    def __init__(self, parent: FdAlgebra, parts: tuple[CMatrix, ...]):
        if len(parts) != parent.block_count:
            raise RejectedInputError(
                f"expected {parent.block_count} block matrices, got {len(parts)}"
            )
        for k, (mat, dim) in enumerate(zip(parts, parent.blocks)):
            if mat.dim != dim:
                raise RejectedInputError(
                    f"block {k} has dim {mat.dim}, algebra expects {dim}"
                )
        self.parent = parent
        self.parts = tuple(parts)

    def _require_same_parent(self, other: "AlgElement") -> None:
        if self.parent != other.parent:
            raise RejectedInputError(
                f"parent mismatch: {self.parent.blocks} vs {other.parent.blocks}"
            )

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._require_same_parent(other)
        return AlgElement(self.parent, tuple(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._require_same_parent(other)
        return AlgElement(self.parent, tuple(a - b for a, b in zip(self.parts, other.parts)))

    def __matmul__(self, other: "AlgElement") -> "AlgElement":
        self._require_same_parent(other)
        return AlgElement(self.parent, tuple(a @ b for a, b in zip(self.parts, other.parts)))

    def __mul__(self, scalar: complex) -> "AlgElement":
        return AlgElement(self.parent, tuple(scalar * p for p in self.parts))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgElement":
        return self * (-1.0)

    def star(self) -> "AlgElement":
        """Blockwise conjugate transpose."""
        return AlgElement(self.parent, tuple(p.adjoint() for p in self.parts))

    def norm(self) -> float:
        """The C*-norm: max over blocks of the operator norm."""
        return max(operator_norm(p) for p in self.parts)

    def frobenius(self) -> float:
        return math.sqrt(sum(p.frobenius() ** 2 for p in self.parts))

    def hermitian_defect(self) -> float:
        return max(p.hermitian_defect() for p in self.parts)

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.hermitian_defect() <= tol * floor_scale(self.frobenius())

    def allclose(self, other: "AlgElement", tol: float = DEFAULT_TOL) -> bool:
        """Blockwise Frobenius distance below tol times the larger norm."""
        self._require_same_parent(other)
        dist = math.sqrt(
            sum((a - b).frobenius() ** 2 for a, b in zip(self.parts, other.parts))
        )
        return dist <= tol * floor_scale(max(self.frobenius(), other.frobenius()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.parent == other.parent and self.parts == other.parts

    def __hash__(self):
        return hash((self.parent, self.parts))

    def __repr__(self) -> str:
        return f"AlgElement(blocks={self.parent.blocks})"


@dataclass(frozen=True)
class SpectrumReport:
    """Union of block spectra, deduplicated; flags whether it is real."""

    values: tuple[complex, ...]
    is_real: bool


def cstar_norm(x: AlgElement) -> float:
    return x.norm()


def _eig_blocks(x: AlgElement, tol: float) -> list[EigResult]:
    return [eig_hermitian(p, tol) for p in x.parts]


def _dedup(values: list[complex], tol: float, scale: float) -> tuple[complex, ...]:
    values = sorted(values, key=lambda z: (z.real, z.imag))
    merged: list[complex] = []
    for z in values:
        if merged and abs(z - merged[-1]) <= tol * floor_scale(scale):
            continue
        merged.append(z)
    return tuple(merged)


def _normal_block_eigenvalues(m: CMatrix, tol: float) -> list[complex]:
    """Eigenvalues of a normal matrix via its commuting Hermitian pair."""
    herm = 0.5 * (m + m.adjoint())
    skew = -0.5j * (m - m.adjoint())
    eig_h = eig_hermitian(herm, tol)
    u = eig_h.basis.data
    compressed = u.conj().T @ skew.data @ u

    # refine inside (near-)degenerate eigenspaces of the Hermitian part, where
    # the skew part need not be diagonal yet
    n = m.dim
    scale = floor_scale(max(abs(v) for v in eig_h.eigenvalues) if n else 1.0)
    refine = np.eye(n, dtype=np.complex128)
    start = 0
    vals = eig_h.eigenvalues
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] <= CLUSTER_TOL * scale:
            stop += 1
        if stop - start > 1:
            sub = compressed[start:stop, start:stop]
            sub = CMatrix(0.5 * (sub + sub.conj().T))
            refine[start:stop, start:stop] = eig_hermitian(sub, tol).basis.data
        start = stop

    basis = u @ refine
    final = basis.conj().T @ m.data @ basis
    off = final - np.diag(np.diag(final))
    resid = float(np.linalg.norm(off))
    if resid > 1e-8 * floor_scale(m.frobenius()):
        raise ConvergenceError("normal-element diagonalization failed", residual=resid)
    return [complex(z) for z in np.diag(final)]


def spectrum(x: AlgElement, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Union of block eigenvalues; Hermitian and normal elements only.

    A value z belongs to the result exactly when z*unit - x fails to be
    invertible, which in finite dimensions is the union of block spectra.
    """
    scale = x.frobenius()
    if x.is_hermitian(tol):
        values: list[complex] = []
        for res in _eig_blocks(x, tol):
            values.extend(complex(v) for v in res.eigenvalues)
        return SpectrumReport(_dedup(values, tol, scale), True)

    # normality check: ||x*x - xx*|| small relative to ||x||^2
    diff = (x.star() @ x) - (x @ x.star())
    if diff.frobenius() > tol * floor_scale(scale * scale):
        raise UnsupportedInputError(
            "spectrum is only computed for normal elements (x*x != xx*)"
        )
    values = []
    for p in x.parts:
        values.extend(_normal_block_eigenvalues(p, tol))
    deduped = _dedup(values, tol, scale)
    is_real = all(abs(z.imag) <= tol * floor_scale(scale) for z in deduped)
    return SpectrumReport(deduped, is_real)


def positivity_defect(x: AlgElement, tol: float = DEFAULT_TOL) -> float:
    """Quantitative distance from the positive cone, relative with floor 1.

    Zero (up to roundoff) exactly when x is Hermitian with nonnegative block
    spectra; used by the verification suites to report residuals.
    """
    herm = x.hermitian_defect() / floor_scale(x.frobenius())
    sym = 0.5 * (x + x.star())
    eigs = [v for res in _eig_blocks(sym, tol) for v in res.eigenvalues]
    scale = floor_scale(max(abs(v) for v in eigs))
    shortfall = max(0.0, -min(eigs)) / scale
    return herm + shortfall


def is_positive(x: AlgElement, tol: float = DEFAULT_TOL) -> bool:
    """True iff x is Hermitian within tol and all block eigenvalues clear -tol."""
    if not x.is_hermitian(tol):
        return False
    eigs = [v for res in _eig_blocks(x, tol) for v in res.eigenvalues]
    scale = floor_scale(max(abs(v) for v in eigs))
    return min(eigs) >= -tol * scale


def _clamped_sqrt(t: float) -> float:
    return math.sqrt(t) if t > 0.0 else 0.0


def sqrt_positive(x: AlgElement, tol: float = DEFAULT_TOL) -> AlgElement:
    """The positive square root of a positive element.

    Eigenvalues in the roundoff band below zero are clamped to zero before
    taking the square root, so semidefinite inputs are safe.
    """
    if not is_positive(x, tol):
        raise RejectedInputError("sqrt_positive needs a positive element")
    parts = tuple(apply_spectral(p, _clamped_sqrt, tol) for p in x.parts)
    return AlgElement(x.parent, parts)


def pos_neg_parts(
    x: AlgElement, tol: float = DEFAULT_TOL
) -> tuple[AlgElement, AlgElement, AlgElement]:
    """Spectral decomposition of a Hermitian element into (pos, neg, abs).

    Satisfies pos - neg = x, pos @ neg = 0, and pos + neg = abs; each output
    is positive.  One eigendecomposition per block feeds all three outputs.
    """
    if not x.is_hermitian(tol):
        raise RejectedInputError("pos_neg_parts needs a Hermitian element")
    pos_parts, neg_parts, abs_parts = [], [], []
    for p in x.parts:
        res = eig_hermitian(p, tol)
        b = res.basis.data
        lams = np.asarray(res.eigenvalues)
        for target, vals in (
            (pos_parts, np.maximum(lams, 0.0)),
            (neg_parts, np.maximum(-lams, 0.0)),
            (abs_parts, np.abs(lams)),
        ):
            out = (b * vals) @ b.conj().T
            target.append(CMatrix(0.5 * (out + out.conj().T)))
    alg = x.parent
    return alg.element(pos_parts), alg.element(neg_parts), alg.element(abs_parts)


def positivity_witness_check(x: AlgElement, tol: float = DEFAULT_TOL) -> bool:
    """Cross-check the three equivalent positivity criteria.

    Route 1: Hermitian with nonnegative spectrum.  Route 2: x factors as b*b.
    Route 3: x is the square of a Hermitian element.  Routes 2 and 3 are
    decided constructively: build the clamped spectral square root and test
    whether its square actually reproduces x.  Returns True iff all three
    routes agree (jointly positive or jointly not).
    """
    route_spectral = is_positive(x, tol)

    if not x.is_hermitian(tol):
        # b*b and c^2 are Hermitian, so a non-Hermitian x has no witness
        route_bstarb = False
        route_square = False
    else:
        candidate_parts = tuple(apply_spectral(p, _clamped_sqrt, tol) for p in x.parts)
        c = AlgElement(x.parent, candidate_parts)
        route_bstarb = (c.star() @ c).allclose(x, max(tol, 1e-9))
        route_square = (c @ c).allclose(x, max(tol, 1e-9))

    return route_spectral == route_bstarb == route_square

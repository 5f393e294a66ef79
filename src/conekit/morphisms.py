"""Ideals as block supports, and the *-morphisms that move them around.

In a finite direct sum of matrix blocks every two-sided ideal is a sub-sum
over some subset of the blocks, so an ideal is stored as its block support.
The morphisms modelled here are the surjective *-homomorphisms between such
algebras: every target block is one chosen source block, conjugated by an
optional unitary twist, with distinct target blocks drawn from distinct
source blocks.  Dropped source blocks map to zero.

The module also carries the positive-element splitting rule for a sum of two
ideals (half of each shared block to either side).  Random ideals and
morphisms are drawn in ``sampling``; the interaction laws between ideals,
cones and morphism images are checked by the ``lemmas`` suite in ``suites``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import AlgElement, FdAlgebra, positivity_defect
from .errors import RejectedInputError
from .linalg import CMatrix, DEFAULT_TOL, floor_scale

TWIST_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class BlockIdeal:
    """A two-sided ideal: the elements supported on a fixed set of blocks."""

    parent: FdAlgebra
    support: frozenset[int]

    def __post_init__(self):
        support = frozenset(int(i) for i in self.support)
        for i in support:
            if not 0 <= i < self.parent.block_count:
                raise RejectedInputError(
                    f"block index {i} outside algebra with "
                    f"{self.parent.block_count} blocks"
                )
        object.__setattr__(self, "support", support)

    def membership_defect(self, x: AlgElement) -> float:
        """Relative mass of x sitting outside the supported blocks."""
        if x.parent != self.parent:
            raise RejectedInputError("element belongs to a different algebra")
        outside = math.sqrt(
            sum(
                p.frobenius() ** 2
                for k, p in enumerate(x.parts)
                if k not in self.support
            )
        )
        return outside / floor_scale(x.frobenius())

    def contains(self, x: AlgElement, tol: float = DEFAULT_TOL) -> bool:
        return self.membership_defect(x) <= tol

    def mask(self, x: AlgElement) -> AlgElement:
        """Compression of x onto the ideal: blocks off the support become zero."""
        if x.parent != self.parent:
            raise RejectedInputError("element belongs to a different algebra")
        parts = tuple(
            p if k in self.support else CMatrix.zeros(p.dim)
            for k, p in enumerate(x.parts)
        )
        return AlgElement(self.parent, parts)


def full_ideal(alg: FdAlgebra) -> BlockIdeal:
    return BlockIdeal(alg, frozenset(range(alg.block_count)))


def zero_ideal(alg: FdAlgebra) -> BlockIdeal:
    return BlockIdeal(alg, frozenset())


def ideal_sum(first: BlockIdeal, second: BlockIdeal) -> BlockIdeal:
    if first.parent != second.parent:
        raise RejectedInputError("ideals live in different algebras")
    return BlockIdeal(first.parent, first.support | second.support)


def ideal_intersection(first: BlockIdeal, second: BlockIdeal) -> BlockIdeal:
    if first.parent != second.parent:
        raise RejectedInputError("ideals live in different algebras")
    return BlockIdeal(first.parent, first.support & second.support)


@dataclass(frozen=True)
class StarMorphism:
    """Surjective *-homomorphism between direct sums of matrix blocks.

    ``kept_blocks[j]`` names the source block that becomes target block j,
    and ``twists[j]`` is an optional unitary conjugating it on the way
    (``None`` means the identity).  The map on elements is

        target part j  =  u_j @ source part kept_blocks[j] @ u_j*
    """

    source: FdAlgebra
    target: FdAlgebra
    kept_blocks: tuple[int, ...]
    twists: tuple[CMatrix | None, ...]

    def __post_init__(self):
        kept = tuple(int(i) for i in self.kept_blocks)
        if len(kept) != self.target.block_count:
            raise RejectedInputError(
                f"need one source block per target block: "
                f"{len(kept)} given, {self.target.block_count} required"
            )
        if len(self.twists) != self.target.block_count:
            raise RejectedInputError("need one twist slot per target block")
        if len(set(kept)) != len(kept):
            raise RejectedInputError(f"kept blocks must be distinct, got {kept}")
        for j, i in enumerate(kept):
            if not 0 <= i < self.source.block_count:
                raise RejectedInputError(f"kept block {i} is not a source block")
            if self.source.blocks[i] != self.target.blocks[j]:
                raise RejectedInputError(
                    f"target block {j} has dim {self.target.blocks[j]} but "
                    f"source block {i} has dim {self.source.blocks[i]}"
                )
            u = self.twists[j]
            if u is None:
                continue
            if u.dim != self.target.blocks[j]:
                raise RejectedInputError(
                    f"twist {j} has dim {u.dim}, expected {self.target.blocks[j]}"
                )
            defect = (u.adjoint() @ u - CMatrix.identity(u.dim)).frobenius()
            if defect > TWIST_UNITARITY_TOL * u.dim:
                raise RejectedInputError(
                    f"twist {j} is not unitary (defect {defect:.3e})"
                )
        object.__setattr__(self, "kept_blocks", kept)
        object.__setattr__(self, "twists", tuple(self.twists))

    @classmethod
    def identity(cls, alg: FdAlgebra) -> "StarMorphism":
        n = alg.block_count
        return cls(alg, alg, tuple(range(n)), (None,) * n)

    def apply(self, x: AlgElement) -> AlgElement:
        if x.parent != self.source:
            raise RejectedInputError("element is not in the source algebra")
        parts = []
        for j, i in enumerate(self.kept_blocks):
            p = x.parts[i]
            u = self.twists[j]
            if u is not None:
                p = u @ p @ u.adjoint()
            parts.append(p)
        return AlgElement(self.target, tuple(parts))

    def zero_extended_preimage(self, y: AlgElement) -> AlgElement:
        """The preimage that is zero on every dropped source block.

        Applying the morphism to the result reproduces ``y``, and positive
        inputs yield positive preimages.
        """
        if y.parent != self.target:
            raise RejectedInputError("element is not in the target algebra")
        parts = [CMatrix.zeros(d) for d in self.source.blocks]
        for j, i in enumerate(self.kept_blocks):
            p = y.parts[j]
            u = self.twists[j]
            if u is not None:
                p = u.adjoint() @ p @ u
            parts[i] = p
        return AlgElement(self.source, tuple(parts))

    def image_ideal(self, ideal: BlockIdeal) -> BlockIdeal:
        """The image of an ideal: target blocks whose source block is kept in it."""
        if ideal.parent != self.source:
            raise RejectedInputError("ideal lives in a different algebra")
        support = frozenset(
            j for j, i in enumerate(self.kept_blocks) if i in ideal.support
        )
        return BlockIdeal(self.target, support)


def compose(outer: StarMorphism, inner: StarMorphism) -> StarMorphism:
    """The composite morphism outer(inner(.)); inner feeds outer."""
    if inner.target != outer.source:
        raise RejectedInputError(
            "cannot compose: inner target and outer source differ"
        )
    kept = tuple(inner.kept_blocks[k] for k in outer.kept_blocks)
    twists = []
    for j, k in enumerate(outer.kept_blocks):
        u, v = outer.twists[j], inner.twists[k]
        if u is None:
            twists.append(v)
        elif v is None:
            twists.append(u)
        else:
            twists.append(u @ v)
    return StarMorphism(inner.source, outer.target, kept, tuple(twists))


def restrict_to_blocks(alg: FdAlgebra, support: frozenset[int] | set[int]) -> StarMorphism:
    """Projection onto the chosen blocks, as a morphism in its own right."""
    kept = tuple(sorted(int(i) for i in support))
    if not kept:
        raise RejectedInputError("cannot restrict to an empty block set")
    target = FdAlgebra(tuple(alg.blocks[i] for i in kept))
    return StarMorphism(alg, target, kept, (None,) * len(kept))


def decompose_positive(
    c: AlgElement,
    first: BlockIdeal,
    second: BlockIdeal,
    tol: float = DEFAULT_TOL,
) -> tuple[AlgElement, AlgElement]:
    """Split a positive element of an ideal sum into positive ideal parts.

    Returns (a, b) with a + b == c, a positive in ``first`` and b positive in
    ``second``.  Blocks belonging to only one ideal go there whole; blocks in
    both ideals are shared half-and-half, which keeps the sum exact in floating
    point and makes the rule commute with block-selection morphisms.  A block
    outside both ideals must carry (essentially) no mass, otherwise the input
    is not in the ideal sum and is rejected.
    """
    if first.parent != c.parent or second.parent != c.parent:
        raise RejectedInputError("element and ideals must share one algebra")
    defect = positivity_defect(c, tol)
    if defect > tol:
        raise RejectedInputError(
            f"input is not positive (defect {defect:.3e})"
        )
    scale = floor_scale(c.frobenius())
    a_parts: list[CMatrix] = []
    b_parts: list[CMatrix] = []
    for k, p in enumerate(c.parts):
        in_first = k in first.support
        in_second = k in second.support
        if not (in_first or in_second) and p.frobenius() > tol * scale:
            raise RejectedInputError(
                f"block {k} lies outside both ideals but is not zero"
            )
        share = 0.5 * p if in_first and in_second else p
        a_parts.append(share if in_first else CMatrix.zeros(p.dim))
        b_parts.append(share if in_second else CMatrix.zeros(p.dim))
    alg = c.parent
    return alg.element(a_parts), alg.element(b_parts)

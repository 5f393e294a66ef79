"""Every random generator of the package, drawn from a SplitMix64 stream.

Matrices, algebras, elements, ideals and morphisms are all sampled here.
Every sampler takes the stream as an explicit argument so that callers own
the seed and any draw can be replayed exactly.  The base draw fills a matrix
with entries uniform on the square [-1, 1] x [-1, 1] in the complex plane;
Hermitian, positive and unitary samples are all built from that base draw,
so a single seed pins down the whole family.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgElement, FdAlgebra
from .linalg import CMatrix, eig_hermitian
from .morphisms import BlockIdeal, StarMorphism
from .rng import SplitMix64


def random_matrix(rng: SplitMix64, dim: int) -> CMatrix:
    """Square matrix with independent uniform entries on [-1,1] + i[-1,1]."""
    entries = np.empty((dim, dim), dtype=np.complex128)
    for r in range(dim):
        for c in range(dim):
            re = rng.uniform(-1.0, 1.0)
            im = rng.uniform(-1.0, 1.0)
            entries[r, c] = complex(re, im)
    return CMatrix(entries)


def random_hermitian(rng: SplitMix64, dim: int) -> CMatrix:
    m = random_matrix(rng, dim)
    return CMatrix(0.5 * (m.data + m.data.conj().T))


def random_positive(rng: SplitMix64, dim: int) -> CMatrix:
    m = random_matrix(rng, dim)
    return CMatrix(m.data.conj().T @ m.data)


def random_unitary(rng: SplitMix64, dim: int) -> CMatrix:
    """Unitary matrix: the eigenbasis of a random Hermitian draw."""
    return eig_hermitian(random_hermitian(rng, dim)).basis


def random_element(rng: SplitMix64, alg: FdAlgebra) -> AlgElement:
    return alg.element(random_matrix(rng, d) for d in alg.blocks)


def random_hermitian_element(rng: SplitMix64, alg: FdAlgebra) -> AlgElement:
    return alg.element(random_hermitian(rng, d) for d in alg.blocks)


def random_positive_element(rng: SplitMix64, alg: FdAlgebra) -> AlgElement:
    return alg.element(random_positive(rng, d) for d in alg.blocks)


def random_masked_element(
    rng: SplitMix64,
    alg: FdAlgebra,
    support: frozenset[int] | set[int],
    positive: bool = False,
) -> AlgElement:
    """Element whose blocks outside ``support`` are exactly zero.

    With ``positive=True`` the supported blocks are positive draws, so the
    result is a positive element living on the given block support.
    """
    parts = []
    for idx, d in enumerate(alg.blocks):
        if idx in support:
            parts.append(random_positive(rng, d) if positive else random_matrix(rng, d))
        else:
            parts.append(CMatrix.zeros(d))
    return alg.element(parts)


def random_algebra(rng: SplitMix64, blocks: int, max_dim: int) -> FdAlgebra:
    """Algebra with 1..blocks blocks, each of dimension 1..max_dim."""
    count = rng.randint(1, blocks)
    return FdAlgebra(tuple(rng.randint(1, max_dim) for _ in range(count)))


def random_ideal(rng: SplitMix64, alg: FdAlgebra, allow_empty: bool = True) -> BlockIdeal:
    picked = rng.subset(range(alg.block_count), allow_empty=allow_empty)
    return BlockIdeal(alg, frozenset(picked))


def random_morphism(rng: SplitMix64, source: FdAlgebra) -> StarMorphism:
    """Random block-selection morphism out of ``source``, twists included."""
    n = source.block_count
    k = rng.randint(1, n)
    kept = tuple(rng.sample(range(n), k))
    target = FdAlgebra(tuple(source.blocks[i] for i in kept))
    twists = tuple(
        random_unitary(rng, source.blocks[i]) if rng.chance(0.5) else None
        for i in kept
    )
    return StarMorphism(source, target, kept, twists)

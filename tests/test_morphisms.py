"""Tests for ideals, block-selection morphisms and positive splitting."""

import itertools

import numpy as np
import pytest

from conekit.algebra import FdAlgebra, cstar_norm, is_positive
from conekit.errors import RejectedInputError
from conekit.linalg import CMatrix
from conekit.morphisms import (
    BlockIdeal,
    StarMorphism,
    compose,
    decompose_positive,
    full_ideal,
    ideal_intersection,
    ideal_sum,
    restrict_to_blocks,
    zero_ideal,
)
from conekit.rng import SplitMix64, derive_seed
from conekit.sampling import (
    random_element,
    random_ideal,
    random_masked_element,
    random_morphism,
    random_positive,
    random_positive_element,
    random_unitary,
)
from conekit.serialize import canonical_json
from conekit.suites import SuiteParams, run_suite

A3 = FdAlgebra((2, 1, 3))


def mat(rows):
    return CMatrix(np.array(rows, dtype=np.complex128))


class TestBlockIdeal:
    def test_support_validation(self):
        with pytest.raises(RejectedInputError):
            BlockIdeal(A3, frozenset({3}))
        with pytest.raises(RejectedInputError):
            BlockIdeal(A3, frozenset({-1}))

    def test_membership_against_brute_force(self):
        # an element with mass exactly on blocks {0, 2} belongs to an ideal
        # precisely when the support covers those blocks
        rng = SplitMix64(derive_seed(21, "member"))
        x = random_masked_element(rng, A3, {0, 2})
        for support in itertools.chain.from_iterable(
            itertools.combinations(range(3), k) for k in range(4)
        ):
            ideal = BlockIdeal(A3, frozenset(support))
            expected = {0, 2} <= set(support)
            assert ideal.contains(x) == expected

    def test_zero_belongs_everywhere(self):
        assert zero_ideal(A3).contains(A3.zero())
        assert BlockIdeal(A3, frozenset({1})).contains(A3.zero())

    def test_mask(self):
        rng = SplitMix64(derive_seed(21, "mask"))
        x = random_element(rng, A3)
        ideal = BlockIdeal(A3, frozenset({1}))
        m = ideal.mask(x)
        assert m.parts[1] == x.parts[1]
        assert m.parts[0].frobenius() == 0.0
        assert m.parts[2].frobenius() == 0.0

    def test_sum_and_intersection(self):
        i = BlockIdeal(A3, frozenset({0, 1}))
        j = BlockIdeal(A3, frozenset({1, 2}))
        assert ideal_sum(i, j).support == frozenset({0, 1, 2})
        assert ideal_intersection(i, j).support == frozenset({1})
        assert full_ideal(A3).support == frozenset({0, 1, 2})
        assert zero_ideal(A3).support == frozenset()

    def test_mismatched_parents_rejected(self):
        other = FdAlgebra((2, 1))
        with pytest.raises(RejectedInputError):
            ideal_sum(zero_ideal(A3), zero_ideal(other))

    def test_ideal_absorbs_products(self):
        rng = SplitMix64(derive_seed(21, "absorb"))
        ideal = BlockIdeal(A3, frozenset({0, 2}))
        x = random_masked_element(rng, A3, ideal.support)
        y = random_element(rng, A3)
        assert ideal.contains(x @ y)
        assert ideal.contains(y @ x)


class TestStarMorphism:
    def test_validation(self):
        src = FdAlgebra((2, 2))
        tgt = FdAlgebra((2, 2))
        with pytest.raises(RejectedInputError):  # repeated source block
            StarMorphism(src, tgt, (0, 0), (None, None))
        with pytest.raises(RejectedInputError):  # dim mismatch
            StarMorphism(src, FdAlgebra((3,)), (0,), (None,))
        with pytest.raises(RejectedInputError):  # out-of-range source block
            StarMorphism(src, FdAlgebra((2,)), (5,), (None,))
        not_unitary = mat([[1, 0], [0, 2]])
        with pytest.raises(RejectedInputError):
            StarMorphism(src, FdAlgebra((2,)), (0,), (not_unitary,))

    def test_apply_selects_blocks(self):
        alg = FdAlgebra((2, 1))
        f = StarMorphism(alg, FdAlgebra((1,)), (1,), (None,))
        x = alg.element([mat([[2, 1], [1, 2]]), mat([[5]])])
        assert f.apply(x).parts[0] == mat([[5]])

    def test_apply_with_permutation_twist(self):
        alg = FdAlgebra((2,))
        swap = mat([[0, 1], [1, 0]])
        f = StarMorphism(alg, alg, (0,), (swap,))
        x = alg.element([mat([[1, 2], [3, 4]])])
        assert f.apply(x).parts[0] == mat([[4, 3], [2, 1]])

    def test_identity(self):
        rng = SplitMix64(derive_seed(22, "ident"))
        x = random_element(rng, A3)
        assert StarMorphism.identity(A3).apply(x) == x

    def test_morphism_respects_operations(self):
        rng = SplitMix64(derive_seed(22, "homo"))
        f = random_morphism(rng, A3)
        x = random_element(rng, A3)
        y = random_element(rng, A3)
        assert f.apply(x + y).allclose(f.apply(x) + f.apply(y), 1e-12)
        assert f.apply(x @ y).allclose(f.apply(x) @ f.apply(y), 1e-12)
        assert f.apply(x.star()).allclose(f.apply(x).star(), 1e-12)
        assert f.apply(A3.unit()).allclose(f.target.unit(), 1e-12)

    def test_preimage_then_apply_is_identity(self):
        rng = SplitMix64(derive_seed(22, "pre"))
        f = random_morphism(rng, A3)
        y = random_element(rng, f.target)
        g = f.zero_extended_preimage(y)
        assert f.apply(g).allclose(y, 1e-12)
        dropped = set(range(A3.block_count)) - set(f.kept_blocks)
        for i in dropped:
            assert g.parts[i].frobenius() == 0.0

    def test_preimage_of_positive_is_positive(self):
        rng = SplitMix64(derive_seed(22, "prepos"))
        f = random_morphism(rng, A3)
        q = random_positive_element(rng, f.target)
        assert is_positive(f.zero_extended_preimage(q))

    def test_compose_matches_pointwise(self):
        rng = SplitMix64(derive_seed(22, "comp"))
        f = random_morphism(rng, A3)
        g = random_morphism(rng, f.target)
        h = compose(g, f)
        x = random_element(rng, A3)
        assert h.apply(x).allclose(g.apply(f.apply(x)), 1e-12)

    def test_compose_kept_blocks_oracle(self):
        src = FdAlgebra((2, 1, 3))
        f = StarMorphism(src, FdAlgebra((3, 2)), (2, 0), (None, None))
        g = StarMorphism(f.target, FdAlgebra((2,)), (1,), (None,))
        h = compose(g, f)
        assert h.kept_blocks == (0,)
        assert h.source == src and h.target == g.target

    def test_compose_shape_mismatch(self):
        f = StarMorphism(A3, FdAlgebra((2,)), (0,), (None,))
        with pytest.raises(RejectedInputError):
            compose(f, f)

    def test_image_ideal_oracle(self):
        src = FdAlgebra((2, 1, 3))
        f = StarMorphism(src, FdAlgebra((2, 3)), (0, 2), (None, None))
        assert f.image_ideal(BlockIdeal(src, frozenset({0, 2}))).support == frozenset({0, 1})
        assert f.image_ideal(BlockIdeal(src, frozenset({1}))).support == frozenset()
        assert f.image_ideal(full_ideal(src)).support == frozenset({0, 1})

    def test_image_ideal_contains_images(self):
        rng = SplitMix64(derive_seed(22, "imgmem"))
        f = random_morphism(rng, A3)
        ideal = random_ideal(rng, A3)
        x = random_masked_element(rng, A3, ideal.support)
        assert f.image_ideal(ideal).contains(f.apply(x))

    def test_restrict_to_blocks(self):
        r = restrict_to_blocks(A3, {0, 2})
        assert r.target.blocks == (2, 3)
        assert r.kept_blocks == (0, 2)
        with pytest.raises(RejectedInputError):
            restrict_to_blocks(A3, set())


class TestDecomposePositive:
    def setup_method(self):
        self.rng = SplitMix64(derive_seed(23, "split"))
        self.p0 = random_positive(self.rng, 2)
        self.p1 = random_positive(self.rng, 1)
        self.p2 = random_positive(self.rng, 3)
        self.c = A3.element([self.p0, self.p1, self.p2])

    def test_overlap_gets_half_each(self):
        i = BlockIdeal(A3, frozenset({0, 1}))
        j = BlockIdeal(A3, frozenset({1, 2}))
        a, b = decompose_positive(self.c, i, j)
        assert a.parts[0] == self.p0
        assert a.parts[1] == 0.5 * self.p1
        assert a.parts[2].frobenius() == 0.0
        assert b.parts[0].frobenius() == 0.0
        assert b.parts[1] == 0.5 * self.p1
        assert b.parts[2] == self.p2
        # halves recombine exactly, not just approximately
        assert (a + b) == self.c
        assert is_positive(a) and is_positive(b)
        assert i.contains(a) and j.contains(b)

    def test_disjoint_supports(self):
        i = BlockIdeal(A3, frozenset({0}))
        j = BlockIdeal(A3, frozenset({2}))
        c = A3.element([self.p0, CMatrix.zeros(1), self.p2])
        a, b = decompose_positive(c, i, j)
        assert (a + b) == c
        assert a.parts[0] == self.p0 and b.parts[2] == self.p2

    def test_mass_outside_both_rejected(self):
        i = BlockIdeal(A3, frozenset({0}))
        j = BlockIdeal(A3, frozenset({2}))
        with pytest.raises(RejectedInputError, match="block 1"):
            decompose_positive(self.c, i, j)

    def test_non_positive_rejected(self):
        i = BlockIdeal(A3, frozenset({0, 1, 2}))
        x = A3.element([mat([[3, 0], [0, -1]]), self.p1, self.p2])
        with pytest.raises(RejectedInputError, match="not positive"):
            decompose_positive(x, i, i)

    def test_naturality_under_morphisms(self):
        # splitting then mapping agrees with mapping then splitting
        rng = SplitMix64(derive_seed(23, "natural"))
        for _ in range(10):
            f = random_morphism(rng, A3)
            i = random_ideal(rng, A3)
            j = random_ideal(rng, A3)
            c = random_masked_element(rng, A3, i.support | j.support, positive=True)
            a, b = decompose_positive(c, i, j)
            a2, b2 = decompose_positive(f.apply(c), f.image_ideal(i), f.image_ideal(j))
            assert f.apply(a).allclose(a2, 1e-14)
            assert f.apply(b).allclose(b2, 1e-14)

    def test_naturality_is_exact_without_twists(self):
        rng = SplitMix64(derive_seed(23, "exact"))
        f = restrict_to_blocks(A3, {0, 1})
        i = BlockIdeal(A3, frozenset({0, 1}))
        j = BlockIdeal(A3, frozenset({1}))
        c = random_masked_element(rng, A3, {0, 1}, positive=True)
        a, b = decompose_positive(c, i, j)
        a2, b2 = decompose_positive(f.apply(c), f.image_ideal(i), f.image_ideal(j))
        assert f.apply(a) == a2
        assert f.apply(b) == b2



class TestImageLawSuite:
    """The ideal/cone image laws, run through the ``lemmas`` suite."""

    def test_all_laws_hold(self):
        report = run_suite("lemmas", SuiteParams(seed=2026, trials=30))
        assert set(report["properties"]) == {
            "ideal_image_is_ideal",
            "positive_cone_image",
            "ideal_cone_image",
            "cone_sum_image",
            "ideal_sum_cone_image",
            "full_cone_intersection",
            "subalgebra_cone_restriction",
        }
        for name, entry in report["properties"].items():
            assert entry["failures"] == 0, f"{name} failed with residual {entry['worst_residual']}"
            assert entry["trials"] == 30
            assert entry["worst_residual"] <= 1e-9

    def test_suite_is_deterministic(self):
        first = run_suite("lemmas", SuiteParams(seed=99, trials=10))
        second = run_suite("lemmas", SuiteParams(seed=99, trials=10))
        assert canonical_json(first) == canonical_json(second)

"""Tests for directed towers, coherent elements and levelwise splitting."""

import pytest

from conekit.algebra import FdAlgebra, is_positive
from conekit.errors import DecodeError, RejectedInputError
from conekit.linalg import CMatrix
from conekit.morphisms import BlockIdeal, StarMorphism
from conekit.rng import SplitMix64, derive_seed
from conekit.sampling import (
    random_hermitian_element,
    random_masked_element,
    random_morphism,
    random_positive_element,
    random_unitary,
)
from conekit.serialize import decode_system, encode_algebra, encode_morphism
from conekit.towers import (
    CoherentElement,
    CoherentIdeal,
    DirectedSystem,
    chain_system,
    coherence_defect,
    coherent_from_top,
    coherent_ideal_sum,
    ideal_from_top,
    is_coherent,
    limit_decompose_positive,
    limit_is_positive,
    limit_positivity_defect,
    system_validate,
)


def make_chain(seed: int, top_blocks=(2, 1, 3), depth: int = 3) -> DirectedSystem:
    """Random chain with the given top algebra; levels lv0 (bottom) .. lv{d-1}."""
    rng = SplitMix64(derive_seed(seed, "chain"))
    algebras = [FdAlgebra(top_blocks)]
    down_steps = []
    for _ in range(depth - 1):
        m = random_morphism(rng, algebras[-1])
        algebras.append(m.target)
        down_steps.append(m)
    bottom_up = list(reversed(algebras))
    steps = list(reversed(down_steps))
    return chain_system(bottom_up, steps)


class TestSystemStructure:
    def test_single_level_system(self):
        sys1 = DirectedSystem({"only": FdAlgebra((2,))}, frozenset(), {})
        assert sys1.top == "only"
        assert system_validate(sys1).ok

    def test_unknown_level_in_order(self):
        with pytest.raises(RejectedInputError):
            DirectedSystem(
                {"a": FdAlgebra((2,))},
                frozenset({("a", "ghost")}),
                {},
            )

    def test_reflexive_pair_rejected(self):
        with pytest.raises(RejectedInputError):
            DirectedSystem(
                {"a": FdAlgebra((2,))},
                frozenset({("a", "a")}),
                {("a", "a"): StarMorphism.identity(FdAlgebra((2,)))},
            )

    def test_longer_cycle_rejected(self):
        a = FdAlgebra((2,))
        order = {("lv0", "lv1"), ("lv1", "lv2"), ("lv2", "lv0")}
        levels = {lid: a for lid in ("lv0", "lv1", "lv2")}
        connectors = {pair: StarMorphism.identity(a) for pair in order}
        with pytest.raises(RejectedInputError, match="cycle through level lv"):
            DirectedSystem(levels, frozenset(order), connectors)
        body = {
            "levels": {lid: encode_algebra(a) for lid in levels},
            "order": [list(pair) for pair in sorted(order)],
            "connectors": {
                f"{lo}<{hi}": encode_morphism(m) for (lo, hi), m in connectors.items()
            },
        }
        with pytest.raises(DecodeError, match="cycle"):
            decode_system(body)

    def test_connector_cover_must_match_order(self):
        a = FdAlgebra((2,))
        with pytest.raises(RejectedInputError):
            DirectedSystem({"lo": a, "hi": a}, frozenset({("lo", "hi")}), {})

    def test_connector_direction_checked(self):
        lo, hi = FdAlgebra((2,)), FdAlgebra((2, 1))
        wrong_way = StarMorphism(lo, lo, (0,), (None,))
        with pytest.raises(RejectedInputError):
            DirectedSystem(
                {"lo": lo, "hi": hi},
                frozenset({("lo", "hi")}),
                {("lo", "hi"): wrong_way},
            )

    def test_chain_is_transitively_closed(self):
        sys3 = make_chain(31)
        assert set(sys3.order) == {("lv0", "lv1"), ("lv1", "lv2"), ("lv0", "lv2")}
        assert sys3.top == "lv2"
        report = system_validate(sys3)
        assert report.ok
        assert report.worst_residual <= 1e-12

    def test_path_morphism_identity_and_direct(self):
        sys3 = make_chain(32)
        ident = sys3.path_morphism("lv1", "lv1")
        assert ident.kept_blocks == tuple(range(sys3.levels["lv1"].block_count))
        assert sys3.path_morphism("lv0", "lv2") is sys3.connectors[("lv0", "lv2")]
        with pytest.raises(RejectedInputError):
            sys3.path_morphism("lv2", "lv0")

    def test_v_shaped_poset_has_top(self):
        top = FdAlgebra((2, 1))
        left = FdAlgebra((2,))
        right = FdAlgebra((1,))
        sysv = DirectedSystem(
            {"left": left, "right": right, "peak": top},
            frozenset({("left", "peak"), ("right", "peak")}),
            {
                ("left", "peak"): StarMorphism(top, left, (0,), (None,)),
                ("right", "peak"): StarMorphism(top, right, (1,), (None,)),
            },
        )
        assert sysv.top == "peak"
        assert system_validate(sysv).ok

    def test_lambda_shaped_poset_flagged(self):
        bottom = FdAlgebra((2,))
        a = FdAlgebra((2, 1))
        b = FdAlgebra((2, 3))
        sysl = DirectedSystem(
            {"bottom": bottom, "a": a, "b": b},
            frozenset({("bottom", "a"), ("bottom", "b")}),
            {
                ("bottom", "a"): StarMorphism(a, bottom, (0,), (None,)),
                ("bottom", "b"): StarMorphism(b, bottom, (0,), (None,)),
            },
        )
        with pytest.raises(RejectedInputError):
            _ = sysl.top
        report = system_validate(sysl)
        assert not report.ok
        assert any("no common upper" in p for p in report.problems)
        assert any("no top level" in p for p in report.problems)


class TestSystemValidateLaws:
    def test_wrong_composite_blocks_flagged(self):
        two = FdAlgebra((2,))
        pair = FdAlgebra((2, 2))
        swap = StarMorphism(pair, pair, (1, 0), (None, None))
        first = StarMorphism(pair, two, (0,), (None,))
        # correct composite keeps source block 1; this one keeps block 0
        wrong = StarMorphism(pair, two, (0,), (None,))
        sys3 = DirectedSystem(
            {"lv0": two, "lv1": pair, "lv2": pair},
            frozenset({("lv0", "lv1"), ("lv1", "lv2"), ("lv0", "lv2")}),
            {("lv0", "lv1"): first, ("lv1", "lv2"): swap, ("lv0", "lv2"): wrong},
        )
        report = system_validate(sys3)
        assert not report.ok
        assert any("keeps blocks" in p for p in report.problems)

    def test_wrong_composite_twist_flagged(self):
        two = FdAlgebra((2,))
        ident = StarMorphism.identity(two)
        u = random_unitary(SplitMix64(derive_seed(33, "twist")), 2)
        twisted = StarMorphism(two, two, (0,), (u,))
        sys3 = DirectedSystem(
            {"lv0": two, "lv1": two, "lv2": two},
            frozenset({("lv0", "lv1"), ("lv1", "lv2"), ("lv0", "lv2")}),
            {("lv0", "lv1"): ident, ("lv1", "lv2"): ident, ("lv0", "lv2"): twisted},
        )
        report = system_validate(sys3)
        assert not report.ok
        assert any("disagrees" in p for p in report.problems)
        assert report.worst_residual > 1e-3


class TestCoherentElements:
    def test_from_top_is_coherent(self):
        sys3 = make_chain(41)
        rng = SplitMix64(derive_seed(41, "elem"))
        x = random_hermitian_element(rng, sys3.levels[sys3.top])
        elem = coherent_from_top(sys3, x)
        assert coherence_defect(elem) <= 1e-12
        assert is_coherent(elem)

    def test_perturbation_breaks_coherence(self):
        sys3 = make_chain(42)
        rng = SplitMix64(derive_seed(42, "elem"))
        elem = coherent_from_top(sys3, random_hermitian_element(rng, sys3.levels["lv2"]))
        bumped = dict(elem.parts)
        alg0 = sys3.levels["lv0"]
        bumped["lv0"] = bumped["lv0"] + 1e-3 * alg0.unit()
        assert not is_coherent(CoherentElement(sys3, bumped))
        assert coherence_defect(CoherentElement(sys3, bumped)) >= 1e-4

    def test_part_validation(self):
        sys3 = make_chain(43)
        rng = SplitMix64(derive_seed(43, "elem"))
        elem = coherent_from_top(sys3, random_hermitian_element(rng, sys3.levels["lv2"]))
        partial = {k: v for k, v in elem.parts.items() if k != "lv0"}
        with pytest.raises(RejectedInputError):
            CoherentElement(sys3, partial)

    def test_levelwise_operations_commute_with_spreading(self):
        sys3 = make_chain(44)
        rng = SplitMix64(derive_seed(44, "ops"))
        top_alg = sys3.levels[sys3.top]
        x = random_hermitian_element(rng, top_alg)
        y = random_hermitian_element(rng, top_alg)
        lhs = coherent_from_top(sys3, x) + coherent_from_top(sys3, y)
        rhs = coherent_from_top(sys3, x + y)
        for lid in lhs.parts:
            assert lhs.parts[lid].allclose(rhs.parts[lid], 1e-12)
        neg = -coherent_from_top(sys3, x)
        for lid in neg.parts:
            assert neg.parts[lid].allclose(coherent_from_top(sys3, -x).parts[lid], 1e-12)

    def test_top_seminorm_dominates(self):
        sys3 = make_chain(45)
        rng = SplitMix64(derive_seed(45, "norm"))
        elem = coherent_from_top(sys3, random_hermitian_element(rng, sys3.levels["lv2"]))
        top_norm = elem.seminorm("lv2")
        assert abs(elem.bound_norm() - top_norm) <= 1e-10 * max(1.0, top_norm)
        for lid in elem.parts:
            assert elem.seminorm(lid) <= top_norm + 1e-10

    def test_positivity_spreads_down(self):
        sys3 = make_chain(46)
        rng = SplitMix64(derive_seed(46, "pos"))
        p = random_positive_element(rng, sys3.levels["lv2"])
        elem = coherent_from_top(sys3, p)
        assert limit_is_positive(elem)
        assert limit_positivity_defect(elem) <= 1e-12
        h = random_hermitian_element(rng, sys3.levels["lv2"])
        shifted = h - (2.0 * h.norm() + 1.0) * sys3.levels["lv2"].unit()
        assert not limit_is_positive(coherent_from_top(sys3, shifted))


class TestCoherentIdeals:
    def test_from_top_is_compatible(self):
        sys3 = make_chain(51)
        rng = SplitMix64(derive_seed(51, "ideal"))
        top_alg = sys3.levels[sys3.top]
        support = frozenset(rng.subset(range(top_alg.block_count)))
        ideal = ideal_from_top(sys3, support)
        assert ideal.is_compatible()
        assert ideal.supports["lv2"] == support

    def test_incompatible_supports_flagged(self):
        sys3 = make_chain(52)
        full = {
            lid: frozenset(range(alg.block_count)) for lid, alg in sys3.levels.items()
        }
        ideal = CoherentIdeal(sys3, {**full, "lv0": frozenset()})
        if sys3.levels["lv0"].block_count:  # full image lands on every block
            problems = ideal.compatibility_problems()
            assert problems and any("lv0" in p for p in problems)

    def test_sum_of_compatible_is_compatible(self):
        sys3 = make_chain(53)
        rng = SplitMix64(derive_seed(53, "ideal"))
        n = sys3.levels[sys3.top].block_count
        i = ideal_from_top(sys3, frozenset(rng.subset(range(n))))
        j = ideal_from_top(sys3, frozenset(rng.subset(range(n))))
        total = coherent_ideal_sum(i, j)
        assert total.is_compatible()
        for lid in total.supports:
            assert total.supports[lid] == i.supports[lid] | j.supports[lid]

    def test_contains_masked_element(self):
        sys3 = make_chain(54)
        rng = SplitMix64(derive_seed(54, "ideal"))
        top_alg = sys3.levels[sys3.top]
        support = frozenset(rng.subset(range(top_alg.block_count), allow_empty=False))
        ideal = ideal_from_top(sys3, support)
        member = coherent_from_top(
            sys3, random_masked_element(rng, top_alg, support)
        )
        assert ideal.contains(member)
        outside = set(range(top_alg.block_count)) - support
        if outside:
            stray = coherent_from_top(sys3, random_masked_element(rng, top_alg, outside))
            if any(stray.parts["lv2"].parts[k].frobenius() > 1e-6 for k in outside):
                assert not ideal.contains(stray)


class TestLimitDecompose:
    def make_case(self, seed: int):
        sys3 = make_chain(seed)
        rng = SplitMix64(derive_seed(seed, "case"))
        top_alg = sys3.levels[sys3.top]
        n = top_alg.block_count
        i = ideal_from_top(sys3, frozenset(rng.subset(range(n))))
        j = ideal_from_top(sys3, frozenset(rng.subset(range(n))))
        union = i.supports[sys3.top] | j.supports[sys3.top]
        c = coherent_from_top(
            sys3, random_masked_element(rng, top_alg, union, positive=True)
        )
        return sys3, i, j, c

    def test_split_is_exact_coherent_and_contained(self):
        for seed in (61, 62, 63, 64):
            sys3, i, j, c = self.make_case(seed)
            a, b = limit_decompose_positive(c, i, j)
            for lid in c.parts:
                assert (a.parts[lid] + b.parts[lid]) == c.parts[lid]
            assert coherence_defect(a) <= 1e-10
            assert coherence_defect(b) <= 1e-10
            assert limit_is_positive(a) and limit_is_positive(b)
            assert i.contains(a) and j.contains(b)

    def test_error_names_level_and_block(self):
        sys3 = make_chain(65)
        rng = SplitMix64(derive_seed(65, "bad"))
        top_alg = sys3.levels[sys3.top]
        empty = ideal_from_top(sys3, frozenset())
        c = coherent_from_top(sys3, random_positive_element(rng, top_alg))
        with pytest.raises(RejectedInputError, match=r"level lv\d+: block \d+"):
            limit_decompose_positive(c, empty, empty)

    def test_non_positive_rejected_with_level(self):
        sys3 = make_chain(66)
        rng = SplitMix64(derive_seed(66, "bad"))
        top_alg = sys3.levels[sys3.top]
        full = ideal_from_top(sys3, frozenset(range(top_alg.block_count)))
        h = random_hermitian_element(rng, top_alg)
        shifted = h - (2.0 * h.norm() + 1.0) * top_alg.unit()
        c = coherent_from_top(sys3, shifted)
        with pytest.raises(RejectedInputError, match="not positive"):
            limit_decompose_positive(c, full, full)

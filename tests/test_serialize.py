"""Round-trip and schema-error tests for the JSON codecs."""

import json

import numpy as np
import pytest

from conekit.algebra import FdAlgebra
from conekit.errors import DecodeError
from conekit.linalg import CMatrix
from conekit.morphisms import BlockIdeal, StarMorphism
from conekit.rng import SplitMix64, derive_seed
from conekit.sampling import random_element, random_hermitian_element, random_morphism
from conekit.serialize import (
    canonical_json,
    decode_coherent_element,
    decode_coherent_ideal,
    decode_complex,
    decode_element,
    decode_ideal,
    decode_matrix,
    decode_morphism,
    decode_system,
    encode_coherent_element,
    encode_coherent_ideal,
    encode_complex,
    encode_element,
    encode_ideal,
    encode_matrix,
    encode_morphism,
    encode_system,
)
from conekit.towers import chain_system, coherent_from_top, ideal_from_top


def mat(rows):
    return CMatrix(np.array(rows, dtype=np.complex128))


def make_system(seed: int):
    rng = SplitMix64(derive_seed(seed, "sys"))
    top = FdAlgebra((2, 1, 3))
    mid = random_morphism(rng, top)
    low = random_morphism(rng, mid.target)
    return chain_system([low.target, mid.target, top], [low, mid])


class TestScalarsAndMatrices:
    def test_complex_golden(self):
        assert encode_complex(1.5 - 2j) == [1.5, -2.0]
        assert decode_complex([1.5, -2.0]) == 1.5 - 2j

    def test_matrix_golden_text(self):
        m = mat([[1, 1j], [0, -0.5]])
        text = canonical_json(encode_matrix(m))
        assert text == (
            '{"dim":2,"entries":[[1.0,0.0],[0.0,1.0],[0.0,0.0],[-0.5,0.0]]}'
        )

    def test_matrix_roundtrip_is_exact(self):
        rng = SplitMix64(derive_seed(71, "mat"))
        x = random_element(rng, FdAlgebra((4,)))
        m = x.parts[0]
        again = decode_matrix(json.loads(json.dumps(encode_matrix(m))))
        assert again == m  # bitwise, thanks to shortest round-trip floats

    def test_malformed_matrix_locations(self):
        with pytest.raises(DecodeError) as err:
            decode_matrix({"dim": 2, "entries": [[0, 0]] * 3}, "m")
        assert err.value.location == "m.entries"
        with pytest.raises(DecodeError) as err:
            decode_matrix({"dim": 2, "entries": [[0, 0], [0], [0, 0], [0, 0]]}, "m")
        assert err.value.location == "m.entries[1]"
        with pytest.raises(DecodeError) as err:
            decode_matrix({"dim": 0, "entries": []}, "m")
        assert err.value.location == "m.dim"
        with pytest.raises(DecodeError):
            decode_complex([float("nan"), 0.0])


class TestElementsAndIdeals:
    def test_element_roundtrip(self):
        rng = SplitMix64(derive_seed(72, "elem"))
        x = random_element(rng, FdAlgebra((2, 1, 3)))
        again = decode_element(json.loads(json.dumps(encode_element(x))))
        assert again == x

    def test_element_embeds_algebra(self):
        x = FdAlgebra((2, 1)).unit()
        body = encode_element(x)
        assert body["algebra"] == {"blocks": [2, 1]}
        assert len(body["parts"]) == 2

    def test_element_part_mismatch(self):
        body = encode_element(FdAlgebra((2, 1)).unit())
        body["parts"].pop()
        with pytest.raises(DecodeError) as err:
            decode_element(body, "e")
        assert err.value.location == "e.parts"

    def test_ideal_roundtrip_and_order(self):
        alg = FdAlgebra((2, 1, 3))
        ideal = BlockIdeal(alg, frozenset({2, 0}))
        body = encode_ideal(ideal)
        assert body == {"support": [0, 2]}
        assert decode_ideal(body, alg) == ideal

    def test_ideal_out_of_range(self):
        with pytest.raises(DecodeError) as err:
            decode_ideal({"support": [7]}, FdAlgebra((2,)), "i")
        assert err.value.location == "i.support"


class TestMorphismsAndSystems:
    def test_morphism_roundtrip(self):
        rng = SplitMix64(derive_seed(73, "morph"))
        src = FdAlgebra((2, 1, 3))
        f = random_morphism(rng, src)
        again = decode_morphism(json.loads(json.dumps(encode_morphism(f))), src)
        assert again == f

    def test_morphism_target_derived(self):
        src = FdAlgebra((2, 1, 3))
        f = decode_morphism({"kept_blocks": [2, 0], "twists": [None, None]}, src)
        assert f.target.blocks == (3, 2)

    def test_morphism_bad_block(self):
        src = FdAlgebra((2,))
        with pytest.raises(DecodeError) as err:
            decode_morphism({"kept_blocks": [4], "twists": [None]}, src, where="f")
        assert err.value.location == "f.kept_blocks[0]"

    def test_system_roundtrip(self):
        system = make_system(74)
        again = decode_system(json.loads(json.dumps(encode_system(system))))
        assert again == system

    def test_system_connector_key_grammar(self):
        body = encode_system(make_system(75))
        (key, morph), *_ = body["connectors"].items()
        assert "<" in key
        body["connectors"]["nonsense"] = morph
        with pytest.raises(DecodeError):
            decode_system(body)

    def test_connector_must_be_an_order_pair(self):
        body = encode_system(make_system(76))
        key, morph = next(iter(body["connectors"].items()))
        del body["connectors"][key]
        body["connectors"]["lv2<lv0"] = morph  # wrong direction
        with pytest.raises(DecodeError):
            decode_system(body)


class TestCoherentCodecs:
    def test_coherent_element_roundtrip(self):
        system = make_system(77)
        rng = SplitMix64(derive_seed(77, "coh"))
        elem = coherent_from_top(
            system, random_hermitian_element(rng, system.levels[system.top])
        )
        body = json.loads(json.dumps(encode_coherent_element(elem)))
        assert set(body) == {"lv0", "lv1", "lv2"}
        assert decode_coherent_element(body, system) == elem

    def test_coherent_ideal_roundtrip(self):
        system = make_system(78)
        n = system.levels[system.top].block_count
        ideal = ideal_from_top(system, frozenset(range(0, n, 2)))
        body = json.loads(json.dumps(encode_coherent_ideal(ideal)))
        assert decode_coherent_ideal(body, system) == ideal

    def test_coherent_element_missing_level(self):
        system = make_system(79)
        rng = SplitMix64(derive_seed(79, "coh"))
        elem = coherent_from_top(
            system, random_hermitian_element(rng, system.levels[system.top])
        )
        body = encode_coherent_element(elem)
        del body["lv1"]
        with pytest.raises(DecodeError):
            decode_coherent_element(body, system)

    def test_canonical_json_sorts_and_packs(self):
        assert canonical_json({"b": 1, "a": [1.5, True]}) == '{"a":[1.5,true],"b":1}'

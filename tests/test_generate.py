"""Tests for deterministic instance generation and re-validation."""

import json

import pytest

from conekit.errors import DecodeError, RejectedInputError
from conekit.generate import (
    InstanceSpec,
    check_instance,
    gen_instance,
    instance_payload,
    spec_from_json,
    spec_to_json,
)
from conekit.serialize import canonical_digest, canonical_json
from conekit.towers import (
    coherence_defect,
    coherent_ideal_sum,
    limit_is_positive,
    system_validate,
)


class TestInstanceSpec:
    def test_defaults_are_valid(self):
        spec = InstanceSpec()
        assert (spec.seed, spec.blocks, spec.max_dim, spec.depth) == (1, 3, 4, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 2**64},
            {"blocks": 0},
            {"blocks": 5},
            {"max_dim": 0},
            {"max_dim": 9},
            {"depth": 0},
            {"depth": 4},
            {"tol": 0.0},
            {"tol": float("nan")},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(RejectedInputError):
            InstanceSpec(**kwargs)

    def test_json_roundtrip(self):
        spec = InstanceSpec(seed=42, blocks=2, max_dim=3, depth=3, tol=1e-8)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_defaults_fill_in(self):
        assert spec_from_json({"seed": 9}) == InstanceSpec(seed=9)

    def test_json_unknown_field(self):
        with pytest.raises(DecodeError):
            spec_from_json({"sedd": 9})


class TestGeneration:
    def test_generated_instance_is_healthy(self):
        inst = gen_instance(InstanceSpec(seed=5, depth=3))
        assert system_validate(inst.system).ok
        assert inst.first.is_compatible() and inst.second.is_compatible()
        assert coherence_defect(inst.element) <= 1e-10
        assert limit_is_positive(inst.element)
        assert coherent_ideal_sum(inst.first, inst.second).contains(inst.element)

    def test_depth_one_has_single_level(self):
        inst = gen_instance(InstanceSpec(seed=5, depth=1))
        assert list(inst.system.levels) == ["lv0"]
        assert inst.system.top == "lv0"

    def test_payload_is_byte_identical_across_runs(self):
        spec = InstanceSpec(seed=123, depth=3)
        first = canonical_json(instance_payload(spec))
        second = canonical_json(instance_payload(spec))
        assert first == second

    def test_different_seeds_give_different_digests(self):
        digests = {instance_payload(InstanceSpec(seed=s))["digest"] for s in range(8)}
        assert len(digests) == 8

    def test_payload_survives_json_text(self):
        payload = instance_payload(InstanceSpec(seed=7))
        reparsed = json.loads(canonical_json(payload))
        assert check_instance(reparsed) == ()


class TestCheckInstance:
    def test_clean_payload_passes(self):
        assert check_instance(instance_payload(InstanceSpec(seed=11, depth=2))) == ()

    def test_digest_tamper_detected(self):
        payload = instance_payload(InstanceSpec(seed=11))
        payload["digest"] = "0" * 64
        assert any("digest" in p for p in check_instance(payload))

    def test_element_tamper_detected(self):
        payload = json.loads(canonical_json(instance_payload(InstanceSpec(seed=13, depth=2))))
        level, body = sorted(payload["element"].items())[0]
        body["parts"][0]["entries"][0][0] += 0.25
        problems = check_instance(payload)
        assert any("digest" in p for p in problems)
        assert any("coherent" in p or "positive" in p or "ideal sum" in p for p in problems)

    def test_missing_field_reported(self):
        payload = instance_payload(InstanceSpec(seed=11))
        del payload["system"]
        assert any("missing field system" in p for p in check_instance(payload))

    def test_wrong_generator_reported(self):
        payload = instance_payload(InstanceSpec(seed=11))
        payload["generator"] = "mt19937"
        assert any("generator" in p for p in check_instance(payload))

    def test_non_object_reported(self):
        assert check_instance([1, 2, 3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_zeroed_level_is_not_coherent_at_any_scale(self, scale):
        # at 1e200 the Frobenius norms overflow and the residual is inf/inf = NaN
        payload = instance_payload(InstanceSpec(seed=7, blocks=4, max_dim=8, depth=3))
        for level, part in payload["element"].items():
            factor = 0.0 if level == "lv0" else scale
            for block in part["parts"]:
                entries = block["entries"]
                block["entries"] = [[factor * re, factor * im] for re, im in entries]
        body = {k: v for k, v in payload.items() if k != "digest"}
        payload["digest"] = canonical_digest(body)
        problems = check_instance(payload)
        assert any("not coherent" in p for p in problems), problems

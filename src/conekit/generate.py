"""Deterministic generation of verification instances.

An instance is a tower together with two compatible coherent ideals and a
coherent positive element of their sum — everything a splitting check needs.
Generation is purely a function of the instance spec (seed plus size caps),
so two runs on one numpy/BLAS build produce byte-identical JSON payloads; a
sha256 digest over the canonical text is embedded so that replays can prove
they are looking at the same instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import DecodeError, RejectedInputError
from .linalg import DEFAULT_TOL
from .rng import GENERATOR_NAME, SplitMix64, derive_seed
from .sampling import random_algebra, random_masked_element, random_morphism
from .serialize import (
    _expect_int,
    _expect_number,
    canonical_digest,
    decode_coherent_element,
    decode_coherent_ideal,
    decode_system,
    encode_coherent_element,
    encode_coherent_ideal,
    encode_system,
)
from .towers import (
    CoherentElement,
    CoherentIdeal,
    DirectedSystem,
    chain_system,
    coherence_defect,
    coherent_from_top,
    coherent_ideal_sum,
    ideal_from_top,
    limit_positivity_defect,
    system_validate,
)

MAX_BLOCKS = 4
MAX_BLOCK_DIM = 8
MAX_DEPTH = 3


@dataclass(frozen=True)
class InstanceSpec:
    """Size caps and seed pinning down one generated instance."""

    seed: int = 1
    blocks: int = 3
    max_dim: int = 4
    depth: int = 2
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise RejectedInputError(f"seed must be a 64-bit value, got {self.seed}")
        if not 1 <= self.blocks <= MAX_BLOCKS:
            raise RejectedInputError(
                f"blocks must be in 1..{MAX_BLOCKS}, got {self.blocks}"
            )
        if not 1 <= self.max_dim <= MAX_BLOCK_DIM:
            raise RejectedInputError(
                f"max_dim must be in 1..{MAX_BLOCK_DIM}, got {self.max_dim}"
            )
        if not 1 <= self.depth <= MAX_DEPTH:
            raise RejectedInputError(
                f"depth must be in 1..{MAX_DEPTH}, got {self.depth}"
            )
        if not (isinstance(self.tol, (int, float)) and math.isfinite(self.tol) and self.tol > 0):
            raise RejectedInputError(f"tol must be a positive number, got {self.tol}")


def spec_to_json(spec: InstanceSpec) -> dict:
    return {
        "seed": spec.seed,
        "blocks": spec.blocks,
        "max_dim": spec.max_dim,
        "depth": spec.depth,
        "tol": float(spec.tol),
    }


def spec_from_json(obj: Any, where: str = "spec") -> InstanceSpec:
    if not isinstance(obj, dict):
        raise DecodeError(f"expected an object, got {type(obj).__name__}", where)
    defaults = spec_to_json(InstanceSpec())
    stray = set(obj) - set(defaults)
    if stray:
        raise DecodeError(f"unknown fields {sorted(stray)}", where)
    merged = {**defaults, **obj}
    try:
        return InstanceSpec(
            seed=_expect_int(merged["seed"], f"{where}.seed"),
            blocks=_expect_int(merged["blocks"], f"{where}.blocks"),
            max_dim=_expect_int(merged["max_dim"], f"{where}.max_dim"),
            depth=_expect_int(merged["depth"], f"{where}.depth"),
            tol=_expect_number(merged["tol"], f"{where}.tol"),
        )
    except RejectedInputError as exc:
        raise DecodeError(str(exc), where) from exc


@dataclass(frozen=True)
class Instance:
    """A tower, two compatible coherent ideals, and a positive element of
    their sum."""

    system: DirectedSystem
    first: CoherentIdeal
    second: CoherentIdeal
    element: CoherentElement


def gen_instance(spec: InstanceSpec) -> Instance:
    """Build the instance the spec points at, top level downwards."""
    rng = SplitMix64(derive_seed(spec.seed, "instance"))
    top = random_algebra(rng, spec.blocks, spec.max_dim)
    algebras = [top]
    down_steps = []
    for _ in range(spec.depth - 1):
        step = random_morphism(rng, algebras[-1])
        algebras.append(step.target)
        down_steps.append(step)
    system = chain_system(list(reversed(algebras)), list(reversed(down_steps)))

    n = top.block_count
    first = ideal_from_top(system, frozenset(rng.subset(range(n))))
    second = ideal_from_top(system, frozenset(rng.subset(range(n))))
    union = first.supports[system.top] | second.supports[system.top]
    c_top = random_masked_element(rng, top, union, positive=True)
    element = coherent_from_top(system, c_top)
    return Instance(system, first, second, element)


def instance_payload(spec: InstanceSpec) -> dict:
    """Generate and encode the instance, digest included."""
    inst = gen_instance(spec)
    body = {
        "generator": GENERATOR_NAME,
        "spec": spec_to_json(spec),
        "system": encode_system(inst.system),
        "first": encode_coherent_ideal(inst.first),
        "second": encode_coherent_ideal(inst.second),
        "element": encode_coherent_element(inst.element),
    }
    return {**body, "digest": canonical_digest(body)}


def check_instance(payload: Any, tol: float | None = None) -> tuple[str, ...]:
    """Re-validate a stored instance; returns problems, empty when healthy.

    Checks the digest, decodes every component, then re-proves the semantic
    claims: the tower laws hold, both ideals are compatible, and the element
    is coherent, positive and lives in the ideal sum.
    """
    if not isinstance(payload, dict):
        return (f"instance: expected an object, got {type(payload).__name__}",)
    problems: list[str] = []
    missing = [
        key
        for key in ("generator", "spec", "system", "first", "second", "element", "digest")
        if key not in payload
    ]
    if missing:
        return tuple(f"instance: missing field {key}" for key in missing)
    if payload["generator"] != GENERATOR_NAME:
        problems.append(
            f"generator: expected {GENERATOR_NAME!r}, got {payload['generator']!r}"
        )
    body = {k: v for k, v in payload.items() if k != "digest"}
    if canonical_digest(body) != payload["digest"]:
        problems.append("digest: does not match the payload")
    try:
        spec = spec_from_json(payload["spec"])
        system = decode_system(payload["system"])
        first = decode_coherent_ideal(payload["first"], system, "first")
        second = decode_coherent_ideal(payload["second"], system, "second")
        element = decode_coherent_element(payload["element"], system, "element")
    except DecodeError as exc:
        problems.append(str(exc))
        return tuple(problems)
    if tol is None:
        tol = spec.tol
    report = system_validate(system, tol)
    problems.extend(f"system: {p}" for p in report.problems)
    problems.extend(f"first: {p}" for p in first.compatibility_problems())
    problems.extend(f"second: {p}" for p in second.compatibility_problems())
    drift = coherence_defect(element)
    if drift > tol:
        problems.append(f"element: not coherent (residual {drift:.3e})")
    defect = limit_positivity_defect(element, tol)
    if defect > tol:
        problems.append(f"element: not positive (defect {defect:.3e})")
    if not coherent_ideal_sum(first, second).contains(element, tol):
        problems.append("element: mass outside the ideal sum")
    return tuple(problems)

"""JSON codecs for every domain type, plus canonical text output.

The wire conventions, fixed so that other implementations can interoperate:

* complex number            -> [re, im]
* matrix                    -> {"dim": n, "entries": [[re, im], ...]} row-major
* element                   -> {"algebra": {"blocks": [...]}, "parts": [...]}
* ideal                     -> {"support": [...]} (ascending block indices)
* morphism                  -> {"kept_blocks": [...], "twists": [matrix|null, ...]}
* system                    -> {"levels": {id: {"blocks": [...]}},
                                "order": [[lo, hi], ...],
                                "connectors": {"lo<hi": morphism}}
* coherent element / ideal  -> an object keyed directly by level id

``canonical_json`` renders with sorted keys, no whitespace and shortest
round-trip floats, so equal values produce byte-identical text.  Decoders
raise DecodeError whose ``location`` names the offending spot.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable

from .algebra import AlgElement, FdAlgebra
from .errors import DecodeError, RejectedInputError
from .linalg import CMatrix
from .morphisms import BlockIdeal, StarMorphism
from .towers import CoherentElement, CoherentIdeal, DirectedSystem

import numpy as np


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_digest(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON text of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _build(where: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``make``; a RejectedInputError becomes a DecodeError at ``where``."""
    try:
        return make(*args, **kwargs)
    except RejectedInputError as exc:
        raise DecodeError(str(exc), where) from exc


def _expect_dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise DecodeError(f"expected an object, got {type(obj).__name__}", where)
    return obj


def _expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise DecodeError(f"expected an array, got {type(obj).__name__}", where)
    return obj


def _expect_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise DecodeError(f"expected an integer, got {obj!r}", where)
    return obj


def _expect_number(obj: Any, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise DecodeError(f"expected a number, got {obj!r}", where)
    value = float(obj)
    if not math.isfinite(value):
        raise DecodeError(f"expected a finite number, got {obj!r}", where)
    return value


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def decode_complex(obj: Any, where: str = "complex") -> complex:
    pair = _expect_list(obj, where)
    if len(pair) != 2:
        raise DecodeError(f"a complex number is a [re, im] pair, got {len(pair)} items", where)
    return complex(_expect_number(pair[0], f"{where}[0]"), _expect_number(pair[1], f"{where}[1]"))


def encode_matrix(m: CMatrix) -> dict:
    flat = m.data.reshape(-1)
    return {"dim": m.dim, "entries": [encode_complex(z) for z in flat]}


def decode_matrix(obj: Any, where: str = "matrix") -> CMatrix:
    body = _expect_dict(obj, where)
    dim = _expect_int(body.get("dim"), f"{where}.dim")
    if dim < 1:
        raise DecodeError(f"dim must be >= 1, got {dim}", f"{where}.dim")
    entries = _expect_list(body.get("entries"), f"{where}.entries")
    if len(entries) != dim * dim:
        raise DecodeError(
            f"need {dim * dim} entries for dim {dim}, got {len(entries)}",
            f"{where}.entries",
        )
    values = [
        decode_complex(e, f"{where}.entries[{k}]") for k, e in enumerate(entries)
    ]
    data = np.array(values, dtype=np.complex128).reshape(dim, dim)
    return CMatrix(data)


def encode_algebra(alg: FdAlgebra) -> dict:
    return {"blocks": list(alg.blocks)}


def decode_algebra(obj: Any, where: str = "algebra") -> FdAlgebra:
    body = _expect_dict(obj, where)
    blocks = _expect_list(body.get("blocks"), f"{where}.blocks")
    dims = [_expect_int(b, f"{where}.blocks[{k}]") for k, b in enumerate(blocks)]
    return _build(f"{where}.blocks", FdAlgebra, tuple(dims))


def encode_element(x: AlgElement) -> dict:
    return {
        "algebra": encode_algebra(x.parent),
        "parts": [encode_matrix(p) for p in x.parts],
    }


def decode_element(obj: Any, where: str = "element") -> AlgElement:
    body = _expect_dict(obj, where)
    alg = decode_algebra(body.get("algebra"), f"{where}.algebra")
    parts = _expect_list(body.get("parts"), f"{where}.parts")
    mats = [decode_matrix(p, f"{where}.parts[{k}]") for k, p in enumerate(parts)]
    return _build(f"{where}.parts", alg.element, mats)


def encode_ideal(ideal: BlockIdeal) -> dict:
    return {"support": sorted(ideal.support)}


def decode_ideal(obj: Any, alg: FdAlgebra, where: str = "ideal") -> BlockIdeal:
    body = _expect_dict(obj, where)
    support = _expect_list(body.get("support"), f"{where}.support")
    indices = [_expect_int(i, f"{where}.support[{k}]") for k, i in enumerate(support)]
    return _build(f"{where}.support", BlockIdeal, alg, frozenset(indices))


def encode_morphism(f: StarMorphism) -> dict:
    return {
        "kept_blocks": list(f.kept_blocks),
        "twists": [None if u is None else encode_matrix(u) for u in f.twists],
    }


def decode_morphism(
    obj: Any,
    source: FdAlgebra,
    target: FdAlgebra | None = None,
    where: str = "morphism",
) -> StarMorphism:
    """Rebuild a morphism out of ``source``; the target is derived from the
    kept blocks unless one is supplied to validate against."""
    body = _expect_dict(obj, where)
    kept_raw = _expect_list(body.get("kept_blocks"), f"{where}.kept_blocks")
    kept = tuple(
        _expect_int(i, f"{where}.kept_blocks[{k}]") for k, i in enumerate(kept_raw)
    )
    for k, i in enumerate(kept):
        if not 0 <= i < source.block_count:
            raise DecodeError(
                f"kept block {i} is not a source block", f"{where}.kept_blocks[{k}]"
            )
    twists_raw = _expect_list(body.get("twists"), f"{where}.twists")
    twists = tuple(
        None if t is None else decode_matrix(t, f"{where}.twists[{k}]")
        for k, t in enumerate(twists_raw)
    )
    if target is None:
        target = FdAlgebra(tuple(source.blocks[i] for i in kept))
    return _build(where, StarMorphism, source, target, kept, twists)


def encode_system(system: DirectedSystem) -> dict:
    return {
        "levels": {lid: encode_algebra(alg) for lid, alg in system.levels.items()},
        "order": [list(pair) for pair in sorted(system.order)],
        "connectors": {
            f"{lo}<{hi}": encode_morphism(m)
            for (lo, hi), m in system.connectors.items()
        },
    }


def decode_system(obj: Any, where: str = "system") -> DirectedSystem:
    body = _expect_dict(obj, where)
    levels_raw = _expect_dict(body.get("levels"), f"{where}.levels")
    levels = {
        str(lid): decode_algebra(alg, f"{where}.levels.{lid}")
        for lid, alg in levels_raw.items()
    }
    order_raw = _expect_list(body.get("order"), f"{where}.order")
    order = set()
    for k, pair in enumerate(order_raw):
        items = _expect_list(pair, f"{where}.order[{k}]")
        if len(items) != 2 or not all(isinstance(s, str) for s in items):
            raise DecodeError("an order pair is [lo, hi]", f"{where}.order[{k}]")
        order.add((items[0], items[1]))
    connectors_raw = _expect_dict(body.get("connectors"), f"{where}.connectors")
    connectors = {}
    for key, morph in connectors_raw.items():
        spot = f"{where}.connectors.{key}"
        lo, sep, hi = key.partition("<")
        if not sep or not lo or not hi:
            raise DecodeError("connector keys look like 'lo<hi'", spot)
        if (lo, hi) not in order:
            raise DecodeError(f"connector ({lo}, {hi}) is not an order pair", spot)
        if lo not in levels or hi not in levels:
            raise DecodeError(f"connector ({lo}, {hi}) names unknown levels", spot)
        connectors[(lo, hi)] = decode_morphism(
            morph, levels[hi], levels[lo], spot
        )
    return _build(where, DirectedSystem, levels, frozenset(order), connectors)


def encode_coherent_element(elem: CoherentElement) -> dict:
    return {lid: encode_element(p) for lid, p in elem.parts.items()}


def decode_coherent_element(
    obj: Any, system: DirectedSystem, where: str = "coherent"
) -> CoherentElement:
    body = _expect_dict(obj, where)
    parts = {}
    for lid, raw in body.items():
        x = decode_element(raw, f"{where}.{lid}")
        if lid not in system.levels:
            raise DecodeError(f"unknown level {lid}", f"{where}.{lid}")
        if x.parent != system.levels[lid]:
            raise DecodeError(
                f"part algebra {x.parent.blocks} does not match level "
                f"{system.levels[lid].blocks}",
                f"{where}.{lid}",
            )
        parts[lid] = x
    return _build(where, CoherentElement, system, parts)


def encode_coherent_ideal(ideal: CoherentIdeal) -> dict:
    return {lid: sorted(s) for lid, s in ideal.supports.items()}


def decode_coherent_ideal(
    obj: Any, system: DirectedSystem, where: str = "ideal"
) -> CoherentIdeal:
    body = _expect_dict(obj, where)
    supports = {}
    for lid, raw in body.items():
        if lid not in system.levels:
            raise DecodeError(f"unknown level {lid}", f"{where}.{lid}")
        indices = _expect_list(raw, f"{where}.{lid}")
        supports[lid] = frozenset(
            _expect_int(i, f"{where}.{lid}[{k}]") for k, i in enumerate(indices)
        )
    return _build(where, CoherentIdeal, system, supports)

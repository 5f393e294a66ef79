"""Finite directed towers of block algebras and their coherent elements.

A tower is a finite family of block algebras indexed by a poset, with a
downward connector for each comparable pair: a surjective block-selection
morphism from the higher algebra onto the lower one.  An element of the
projective limit is one part per level, lower parts agreeing with the image
of higher parts.  Every tower used here has a top level, so a coherent
element is determined by its top part, and positivity, seminorms and ideal
splitting are all computed levelwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

from .algebra import AlgElement, FdAlgebra, cstar_norm, positivity_defect
from .errors import RejectedInputError
from .linalg import DEFAULT_TOL, floor_scale, max_residual
from .morphisms import BlockIdeal, StarMorphism, compose, decompose_positive
from .rng import SplitMix64, derive_seed
from .sampling import random_element


@dataclass(frozen=True)
class DirectedSystem:
    """Levels, an order relation (lo, hi) pairs, and one connector per pair.

    ``connectors[(lo, hi)]`` maps the ``hi`` algebra onto the ``lo`` algebra.
    The order lists strict comparabilities only, with no cycles; reflexive
    pairs are implied and carry identity connectors.
    """

    levels: Mapping[str, FdAlgebra]
    order: frozenset[tuple[str, str]]
    connectors: Mapping[tuple[str, str], StarMorphism]

    def __post_init__(self):
        if not self.levels:
            raise RejectedInputError("a system needs at least one level")
        levels = dict(self.levels)
        order = frozenset((str(lo), str(hi)) for lo, hi in self.order)
        connectors = dict(self.connectors)
        for lo, hi in order:
            if lo not in levels or hi not in levels:
                raise RejectedInputError(f"order pair ({lo}, {hi}) names unknown levels")
            if lo == hi:
                raise RejectedInputError(f"order must be strict, got ({lo}, {hi})")
        if set(connectors) != set(order):
            raise RejectedInputError("connectors must cover exactly the order pairs")
        for (lo, hi), m in connectors.items():
            if m.source != levels[hi] or m.target != levels[lo]:
                raise RejectedInputError(
                    f"connector for ({lo}, {hi}) must map level {hi} onto level {lo}"
                )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "connectors", connectors)
        for lo, hi in sorted(order):
            if hi in self.reaches_down(lo):
                raise RejectedInputError(f"order has a cycle through level {hi}")

    def _below(self, hi: str) -> list[str]:
        return [lo for lo, h in self.order if h == hi]

    def _above(self, lo: str) -> list[str]:
        return [hi for l, hi in self.order if l == lo]

    def _walk_down(self, start: str) -> dict[str, str | None]:
        """Breadth-first walk down from ``start``: level -> first-reached parent."""
        parents: dict[str, str | None] = {start: None}
        queue = [start]
        for cur in queue:  # the queue grows while it is read
            for nxt in self._below(cur):
                if nxt not in parents:
                    parents[nxt] = cur
                    queue.append(nxt)
        return parents

    def reaches_down(self, start: str) -> set[str]:
        """All levels reachable downward from ``start``, itself included."""
        return set(self._walk_down(start))

    @property
    def top(self) -> str:
        """The level that dominates every other one."""
        for lid in self.levels:
            if self.reaches_down(lid) == set(self.levels):
                return lid
        raise RejectedInputError("system has no top level")

    def path_morphism(self, lo: str, hi: str) -> StarMorphism:
        """Connector from level ``hi`` down to level ``lo``, composed if needed."""
        if lo not in self.levels or hi not in self.levels:
            raise RejectedInputError(f"unknown level in ({lo}, {hi})")
        if lo == hi:
            return StarMorphism.identity(self.levels[lo])
        if (lo, hi) in self.connectors:
            return self.connectors[(lo, hi)]
        parents = self._walk_down(hi)
        if lo not in parents:
            raise RejectedInputError(f"level {lo} is not below level {hi}")
        m = None
        cur = lo
        while cur != hi:
            step = self.connectors[(cur, parents[cur])]
            m = step if m is None else compose(m, step)
            cur = parents[cur]
        return m


@dataclass(frozen=True)
class SystemReport:
    """Validation outcome: human-readable problems plus the worst residual."""

    problems: tuple[str, ...]
    worst_residual: float

    @property
    def ok(self) -> bool:
        return not self.problems


def system_validate(system: DirectedSystem, tol: float = DEFAULT_TOL) -> SystemReport:
    """Check the semantic laws: composition coherence and directedness.

    Composition is probed two ways: the block bookkeeping of a composite
    connector must match the direct connector exactly, and their action on
    deterministic probe elements must agree within tol.
    """
    problems: list[str] = []
    worst = 0.0
    order = system.order
    for a, b in sorted(order):
        for c in sorted(system._above(b)):
            if (a, c) not in order:
                continue
            direct = system.connectors[(a, c)]
            composite = compose(system.connectors[(a, b)], system.connectors[(b, c)])
            if direct.kept_blocks != composite.kept_blocks:
                problems.append(
                    f"composite {a}<{b}<{c} keeps blocks {composite.kept_blocks}, "
                    f"direct connector keeps {direct.kept_blocks}"
                )
                continue
            for rep in range(2):
                rng = SplitMix64(derive_seed(0x9E, "probe", a, b, c, rep))
                x = random_element(rng, system.levels[c])
                gap = direct.apply(x) - composite.apply(x)
                residual = gap.frobenius() / floor_scale(x.frobenius())
                worst = max_residual(worst, residual)
                if not residual <= tol:
                    problems.append(
                        f"composite {a}<{b}<{c} disagrees with the direct "
                        f"connector (residual {residual:.3e})"
                    )
    ids = list(system.levels)
    down = {lid: system.reaches_down(lid) for lid in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if not any(a in down[c] and b in down[c] for c in ids):
                problems.append(f"levels {a} and {b} have no common upper level")
    try:
        system.top
    except RejectedInputError:
        problems.append("system has no top level")
    return SystemReport(tuple(problems), worst)


def chain_system(
    algebras: Sequence[FdAlgebra], steps: Sequence[StarMorphism]
) -> DirectedSystem:
    """Fully closed chain lv0 <= lv1 <= ...; steps[k] maps level k+1 onto level k."""
    depth = len(algebras)
    if len(steps) != depth - 1:
        raise RejectedInputError(f"{depth} levels need {depth - 1} steps")
    for k, m in enumerate(steps):
        if m.source != algebras[k + 1] or m.target != algebras[k]:
            raise RejectedInputError(f"step {k} does not map level {k + 1} onto level {k}")
    direct: dict[tuple[int, int], StarMorphism] = {}
    for j in range(depth):
        for i in range(j - 1, -1, -1):
            if i == j - 1:
                direct[(i, j)] = steps[i]
            else:
                direct[(i, j)] = compose(steps[i], direct[(i + 1, j)])
    levels = {f"lv{k}": algebras[k] for k in range(depth)}
    order = frozenset((f"lv{i}", f"lv{j}") for i, j in direct)
    connectors = {(f"lv{i}", f"lv{j}"): m for (i, j), m in direct.items()}
    return DirectedSystem(levels, order, connectors)


@dataclass(frozen=True)
class CoherentElement:
    """One part per level; coherent when connectors carry high parts to low."""

    system: DirectedSystem
    parts: Mapping[str, AlgElement]

    def __post_init__(self):
        parts = dict(self.parts)
        if set(parts) != set(self.system.levels):
            raise RejectedInputError("element needs exactly one part per level")
        for lid, x in parts.items():
            if x.parent != self.system.levels[lid]:
                raise RejectedInputError(f"part at {lid} is in the wrong algebra")
        object.__setattr__(self, "parts", parts)

    def _zip(self, other: "CoherentElement"):
        if self.system is not other.system and self.system != other.system:
            raise RejectedInputError("elements live over different systems")
        return ((lid, self.parts[lid], other.parts[lid]) for lid in self.parts)

    def __add__(self, other: "CoherentElement") -> "CoherentElement":
        return CoherentElement(
            self.system, {lid: a + b for lid, a, b in self._zip(other)}
        )

    def __sub__(self, other: "CoherentElement") -> "CoherentElement":
        return CoherentElement(
            self.system, {lid: a - b for lid, a, b in self._zip(other)}
        )

    def __mul__(self, scalar: complex) -> "CoherentElement":
        return CoherentElement(
            self.system, {lid: scalar * p for lid, p in self.parts.items()}
        )

    __rmul__ = __mul__

    def __neg__(self) -> "CoherentElement":
        return self * (-1.0)

    def star(self) -> "CoherentElement":
        return CoherentElement(self.system, {lid: p.star() for lid, p in self.parts.items()})

    def seminorm(self, level: str) -> float:
        """The level seminorm: the C*-norm of the part at that level."""
        if level not in self.parts:
            raise RejectedInputError(f"unknown level {level}")
        return cstar_norm(self.parts[level])

    def bound_norm(self) -> float:
        """The largest level seminorm; for coherent elements the top attains it."""
        return max(cstar_norm(p) for p in self.parts.values())


def coherence_defect(elem: CoherentElement) -> float:
    """Worst relative mismatch between a part and the image of a higher part."""
    worst = 0.0
    for (lo, hi), m in elem.system.connectors.items():
        pushed = m.apply(elem.parts[hi])
        gap = (pushed - elem.parts[lo]).frobenius()
        worst = max_residual(worst, gap / floor_scale(elem.parts[hi].frobenius()))
    return worst


def is_coherent(elem: CoherentElement, tol: float = DEFAULT_TOL) -> bool:
    return coherence_defect(elem) <= tol


def coherent_from_top(system: DirectedSystem, x_top: AlgElement) -> CoherentElement:
    """Spread a top-level element down the tower along the connectors."""
    top = system.top
    if x_top.parent != system.levels[top]:
        raise RejectedInputError("element is not in the top-level algebra")
    parts = {
        lid: system.path_morphism(lid, top).apply(x_top) for lid in system.levels
    }
    return CoherentElement(system, parts)


def limit_positivity_defect(elem: CoherentElement, tol: float = DEFAULT_TOL) -> float:
    defects = (positivity_defect(p, tol) for p in elem.parts.values())
    return reduce(max_residual, defects)


def limit_is_positive(elem: CoherentElement, tol: float = DEFAULT_TOL) -> bool:
    return limit_positivity_defect(elem, tol) <= tol


@dataclass(frozen=True)
class CoherentIdeal:
    """A block support per level, compatible when connectors map them onto
    each other exactly."""

    system: DirectedSystem
    supports: Mapping[str, frozenset[int]]

    def __post_init__(self):
        supports = {
            lid: frozenset(int(i) for i in s) for lid, s in dict(self.supports).items()
        }
        if set(supports) != set(self.system.levels):
            raise RejectedInputError("ideal needs exactly one support per level")
        for lid, support in supports.items():
            BlockIdeal(self.system.levels[lid], support)  # bounds check
        object.__setattr__(self, "supports", supports)

    def level_ideal(self, level: str) -> BlockIdeal:
        return BlockIdeal(self.system.levels[level], self.supports[level])

    def compatibility_problems(self) -> tuple[str, ...]:
        problems = []
        for (lo, hi), m in self.system.connectors.items():
            image = m.image_ideal(self.level_ideal(hi)).support
            if image != self.supports[lo]:
                problems.append(
                    f"support at {lo} is {sorted(self.supports[lo])}, but the "
                    f"connector from {hi} lands on {sorted(image)}"
                )
        return tuple(problems)

    def is_compatible(self) -> bool:
        return not self.compatibility_problems()

    def contains(self, elem: CoherentElement, tol: float = DEFAULT_TOL) -> bool:
        if elem.system != self.system:
            raise RejectedInputError("element lives over a different system")
        return all(
            self.level_ideal(lid).contains(elem.parts[lid], tol) for lid in self.supports
        )


def ideal_from_top(system: DirectedSystem, support: frozenset[int] | set[int]) -> CoherentIdeal:
    """Spread a top-level block support down the tower; always compatible."""
    top = system.top
    top_ideal = BlockIdeal(system.levels[top], frozenset(support))
    supports = {
        lid: system.path_morphism(lid, top).image_ideal(top_ideal).support
        for lid in system.levels
    }
    return CoherentIdeal(system, supports)


def coherent_ideal_sum(first: CoherentIdeal, second: CoherentIdeal) -> CoherentIdeal:
    if first.system != second.system:
        raise RejectedInputError("ideals live over different systems")
    supports = {
        lid: first.supports[lid] | second.supports[lid] for lid in first.supports
    }
    return CoherentIdeal(first.system, supports)


def limit_decompose_positive(
    elem: CoherentElement,
    first: CoherentIdeal,
    second: CoherentIdeal,
    tol: float = DEFAULT_TOL,
) -> tuple[CoherentElement, CoherentElement]:
    """Split a coherent positive element of an ideal sum, level by level.

    The single-level splitting rule commutes with the connectors, so the two
    outputs are again coherent whenever the input is.  Errors name the level
    (and block) that broke.
    """
    if first.system != elem.system or second.system != elem.system:
        raise RejectedInputError("element and ideals must share one system")
    a_parts: dict[str, AlgElement] = {}
    b_parts: dict[str, AlgElement] = {}
    for lid in elem.parts:
        try:
            a_parts[lid], b_parts[lid] = decompose_positive(
                elem.parts[lid],
                first.level_ideal(lid),
                second.level_ideal(lid),
                tol,
            )
        except RejectedInputError as exc:
            raise RejectedInputError(f"level {lid}: {exc}") from exc
    return (
        CoherentElement(elem.system, a_parts),
        CoherentElement(elem.system, b_parts),
    )

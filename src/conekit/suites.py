"""Randomized verification suites with deterministic, replayable reports.

This is the one suite runner, and every property it checks lives here, the
ideal/cone/morphism interaction laws of the ``lemmas`` suite included.
Each suite is a family of named properties.  Trial ``t`` of a suite runs on
the child seed ``derive_seed(seed, suite, t)``, and each property inside the
trial draws from its own child of that, so any failure can be replayed in
isolation.  A report is a plain JSON-ready dict: per-property pass/fail
counts and worst residuals, plus one entry per failing trial embedding the
replay seed and a digest of the offending inputs (a trial that raises has a
null residual).  Reports contain no timestamps and no environment data, so
the same seed and parameters render byte-identical text for a given
numpy/BLAS build, including under multiple worker processes, because
results are merged in trial order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .algebra import (
    cstar_norm,
    pos_neg_parts,
    positivity_defect,
    positivity_witness_check,
    spectrum,
    sqrt_positive,
)
from .errors import RejectedInputError
from .generate import InstanceSpec, check_instance, gen_instance, instance_payload
from .linalg import DEFAULT_TOL, eig_hermitian, floor_scale
from .morphisms import decompose_positive, ideal_sum, restrict_to_blocks
from .rng import GENERATOR_NAME, SplitMix64, derive_seed
from .sampling import (
    random_algebra,
    random_element,
    random_hermitian_element,
    random_ideal,
    random_masked_element,
    random_morphism,
    random_positive_element,
)
from .serialize import canonical_digest, canonical_json, encode_element
from .towers import (
    coherence_defect,
    coherent_ideal_sum,
    limit_decompose_positive,
)

SUITE_NAMES = ("calculus", "cone", "lemmas", "theorem", "system")


@dataclass(frozen=True)
class SuiteParams:
    """Knobs shared by every suite run."""

    seed: int = 1
    trials: int = 100
    tol: float = DEFAULT_TOL
    blocks: int = 3
    max_dim: int = 4
    depth: int = 2
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise RejectedInputError(f"seed must be a 64-bit value, got {self.seed}")
        if self.trials < 1:
            raise RejectedInputError(f"trials must be >= 1, got {self.trials}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise RejectedInputError(f"tol must be positive and finite, got {self.tol}")
        if self.blocks < 1 or self.max_dim < 1 or self.depth < 1:
            raise RejectedInputError("blocks, max_dim and depth must be >= 1")
        if self.workers < 1:
            raise RejectedInputError(f"workers must be >= 1, got {self.workers}")


def _reldist(x, y) -> float:
    return (x - y).frobenius() / floor_scale(max(x.frobenius(), y.frobenius()))


# --- calculus: the spectral machinery on one algebra ----------------------


def _prop_eig_reconstruction(rng, p):
    x = random_hermitian_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    worst = 0.0
    for part in x.parts:
        res = eig_hermitian(part, p.tol)
        gap = (res.reconstruct() - part).frobenius()
        worst = max(worst, gap / floor_scale(part.frobenius()))
    return worst, {"element": encode_element(x)}


def _prop_eig_unitarity(rng, p):
    x = random_hermitian_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    worst = max(
        eig_hermitian(part, p.tol).unitarity_defect() / part.dim for part in x.parts
    )
    return worst, {"element": encode_element(x)}


def _prop_eig_ascending(rng, p):
    x = random_hermitian_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    ok = all(
        all(a <= b for a, b in zip(res.eigenvalues, res.eigenvalues[1:]))
        for res in (eig_hermitian(part, p.tol) for part in x.parts)
    )
    return (0.0 if ok else 1.0), {"element": encode_element(x)}


def _prop_cstar_identity(rng, p):
    x = random_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    n = cstar_norm(x)
    residual = abs(cstar_norm(x.star() @ x) - n * n) / floor_scale(n * n)
    return residual, {"element": encode_element(x)}


def _prop_sqrt_squares_back(rng, p):
    q = random_positive_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    r = sqrt_positive(q, p.tol)
    residual = max(_reldist(r @ r, q), positivity_defect(r, p.tol))
    return residual, {"element": encode_element(q)}


def _prop_pos_neg_laws(rng, p):
    x = random_hermitian_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    pos, neg, absval = pos_neg_parts(x, p.tol)
    scale = floor_scale(cstar_norm(x)) ** 2
    residual = max(
        _reldist(pos - neg, x),
        _reldist(pos + neg, absval),
        cstar_norm(pos @ neg) / scale,
        positivity_defect(pos, p.tol),
        positivity_defect(neg, p.tol),
    )
    return residual, {"element": encode_element(x)}


def _prop_spectrum_real(rng, p):
    x = random_hermitian_element(rng, random_algebra(rng, p.blocks, p.max_dim))
    rep = spectrum(x, p.tol)
    if not rep.is_real:
        return 1.0, {"element": encode_element(x)}
    square = spectrum(x.star() @ x, p.tol)
    scale = floor_scale(max(abs(v) for v in square.values))
    shortfall = max(0.0, -min(v.real for v in square.values)) / scale
    return shortfall, {"element": encode_element(x)}


# --- cone: order structure of the positive elements -----------------------


def _prop_sum_closure(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    a = random_positive_element(rng, alg)
    b = random_positive_element(rng, alg)
    return positivity_defect(a + b, p.tol), {"element": encode_element(a + b)}


def _prop_scale_closure(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    a = random_positive_element(rng, alg)
    lam = rng.uniform(0.0, 4.0)
    return positivity_defect(lam * a, p.tol), {"element": encode_element(a), "scale": lam}


def _prop_conjugation_closure(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    a = random_positive_element(rng, alg)
    y = random_element(rng, alg)
    return positivity_defect(y.star() @ a @ y, p.tol), {
        "element": encode_element(a),
        "conjugator": encode_element(y),
    }


def _prop_pointedness(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    a = random_positive_element(rng, alg)
    residual = cstar_norm(a) if positivity_defect(-a, p.tol) <= p.tol else 0.0
    return residual, {"element": encode_element(a)}


def _prop_witness_agreement(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    kind = rng.choice(("raw", "hermitian", "positive", "shifted"))
    if kind == "raw":
        x = random_element(rng, alg)
    elif kind == "hermitian":
        x = random_hermitian_element(rng, alg)
    elif kind == "positive":
        x = random_positive_element(rng, alg)
    else:
        h = random_hermitian_element(rng, alg)
        x = h - (2.0 * cstar_norm(h) + 1.0) * alg.unit()
    ok = positivity_witness_check(x, p.tol)
    return (0.0 if ok else 1.0), {"kind": kind, "element": encode_element(x)}


# --- lemmas: ideal/cone interaction laws under morphism images ------------
# The law bodies name elements p and q, so their parameters are ``params``.


def _law_ideal_image_is_ideal(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    f = random_morphism(rng, alg)
    image = f.image_ideal(random_ideal(rng, alg))
    x = random_masked_element(rng, f.target, image.support)
    y = random_element(rng, f.target)
    return max(
        image.membership_defect(x @ y),
        image.membership_defect(y @ x),
        image.membership_defect(x.star()),
        image.membership_defect(x + x),
    )


def _law_positive_cone_image(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    f = random_morphism(rng, alg)
    p = random_positive_element(rng, alg)
    forward = positivity_defect(f.apply(p), params.tol)
    q = random_positive_element(rng, f.target)
    g = f.zero_extended_preimage(q)
    return max(forward, positivity_defect(g, params.tol), _reldist(f.apply(g), q))


def _ideal_cone_image(rng, f, ideal, tol):
    """f maps the positive cone of ``ideal`` onto the positive cone of its image."""
    image = f.image_ideal(ideal)
    p = random_masked_element(rng, f.source, ideal.support, positive=True)
    fp = f.apply(p)
    forward = max(positivity_defect(fp, tol), image.membership_defect(fp))
    q = random_masked_element(rng, f.target, image.support, positive=True)
    g = f.zero_extended_preimage(q)
    backward = max(
        positivity_defect(g, tol),
        ideal.membership_defect(g),
        _reldist(f.apply(g), q),
    )
    return max(forward, backward)


def _law_ideal_cone_image(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    f = random_morphism(rng, alg)
    return _ideal_cone_image(rng, f, random_ideal(rng, alg), params.tol)


def _law_cone_sum_image(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    f = random_morphism(rng, alg)
    first = random_ideal(rng, alg)
    second = random_ideal(rng, alg)
    img_first = f.image_ideal(first)
    img_second = f.image_ideal(second)
    p = random_masked_element(rng, alg, first.support, positive=True)
    q = random_masked_element(rng, alg, second.support, positive=True)
    forward = max(
        _reldist(f.apply(p + q), f.apply(p) + f.apply(q)),
        img_first.membership_defect(f.apply(p)),
        img_second.membership_defect(f.apply(q)),
    )
    x = random_masked_element(rng, f.target, img_first.support, positive=True)
    y = random_masked_element(rng, f.target, img_second.support, positive=True)
    gx = f.zero_extended_preimage(x)
    gy = f.zero_extended_preimage(y)
    backward = max(
        positivity_defect(gx, params.tol),
        first.membership_defect(gx),
        positivity_defect(gy, params.tol),
        second.membership_defect(gy),
        _reldist(f.apply(gx + gy), x + y),
    )
    return max(forward, backward)


def _law_ideal_sum_cone_image(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    f = random_morphism(rng, alg)
    first = random_ideal(rng, alg)
    second = random_ideal(rng, alg)
    total = ideal_sum(first, second)
    support_law = (
        0.0
        if f.image_ideal(total).support
        == (f.image_ideal(first).support | f.image_ideal(second).support)
        else 1.0
    )
    return max(support_law, _ideal_cone_image(rng, f, total, params.tol))


def _law_full_cone_intersection(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    ideal = random_ideal(rng, alg)
    c = random_positive_element(rng, alg)
    inside = ideal.mask(c)
    return max(
        positivity_defect(inside, params.tol),
        ideal.membership_defect(inside),
        positivity_defect(c - inside, params.tol),
    )


def _law_subalgebra_cone_restriction(rng, params):
    alg = random_algebra(rng, params.blocks, params.max_dim)
    support = frozenset(rng.subset(range(alg.block_count), allow_empty=False))
    r = restrict_to_blocks(alg, support)
    c = random_positive_element(rng, alg)
    forward = positivity_defect(r.apply(c), params.tol)
    q = random_positive_element(rng, r.target)
    g = r.zero_extended_preimage(q)
    backward = max(positivity_defect(g, params.tol), _reldist(r.apply(g), q))
    return max(forward, backward)


LAW_CHECKS = {
    "ideal_image_is_ideal": _law_ideal_image_is_ideal,
    "positive_cone_image": _law_positive_cone_image,
    "ideal_cone_image": _law_ideal_cone_image,
    "cone_sum_image": _law_cone_sum_image,
    "ideal_sum_cone_image": _law_ideal_sum_cone_image,
    "full_cone_intersection": _law_full_cone_intersection,
    "subalgebra_cone_restriction": _law_subalgebra_cone_restriction,
}


def _lemma_prop(law_name, check):
    def prop(rng, params):
        return check(rng, params), {"law": law_name}

    return prop


# --- theorem: splitting a positive element of an ideal sum ----------------


def _theorem_case(rng, p):
    alg = random_algebra(rng, p.blocks, p.max_dim)
    first = random_ideal(rng, alg)
    second = random_ideal(rng, alg)
    union = first.support | second.support
    c = random_masked_element(rng, alg, union, positive=True)
    return alg, first, second, c


def _theorem_payload(first, second, c):
    return {
        "first": sorted(first.support),
        "second": sorted(second.support),
        "element": encode_element(c),
    }


def _prop_split_sum_exact(rng, p):
    _, first, second, c = _theorem_case(rng, p)
    a, b = decompose_positive(c, first, second, p.tol)
    residual = ((a + b) - c).frobenius() / floor_scale(c.frobenius())
    return residual, _theorem_payload(first, second, c)


def _prop_split_parts_positive(rng, p):
    _, first, second, c = _theorem_case(rng, p)
    a, b = decompose_positive(c, first, second, p.tol)
    residual = max(positivity_defect(a, p.tol), positivity_defect(b, p.tol))
    return residual, _theorem_payload(first, second, c)


def _prop_split_membership(rng, p):
    _, first, second, c = _theorem_case(rng, p)
    a, b = decompose_positive(c, first, second, p.tol)
    residual = max(first.membership_defect(a), second.membership_defect(b))
    return residual, _theorem_payload(first, second, c)


def _prop_split_naturality(rng, p):
    alg, first, second, c = _theorem_case(rng, p)
    a, b = decompose_positive(c, first, second, p.tol)
    f = random_morphism(rng, alg)
    fa, fb = decompose_positive(
        f.apply(c), f.image_ideal(first), f.image_ideal(second), p.tol
    )
    residual = max(_reldist(f.apply(a), fa), _reldist(f.apply(b), fb))
    return residual, _theorem_payload(first, second, c)


def _prop_split_rejects_stray_mass(rng, p):
    alg, first, second, c = _theorem_case(rng, p)
    outside = set(range(alg.block_count)) - (first.support | second.support)
    if not outside:
        return 0.0, _theorem_payload(first, second, c)
    # the unit shift keeps the outside blocks clearly nonzero while staying positive
    stray = c + random_masked_element(rng, alg, outside, positive=True) + alg.unit()
    try:
        decompose_positive(stray, first, second, p.tol)
        return 1.0, _theorem_payload(first, second, stray)
    except RejectedInputError:
        return 0.0, _theorem_payload(first, second, c)


# --- system: towers, coherent ideals, and the limit splitting -------------


def _system_spec(rng, p):
    return InstanceSpec(
        seed=rng.next_u64(),
        blocks=min(p.blocks, 4),
        max_dim=min(p.max_dim, 8),
        depth=min(p.depth, 3),
        tol=p.tol,
    )


def _prop_instance_checks(rng, p):
    spec = _system_spec(rng, p)
    payload = instance_payload(spec)
    problems = check_instance(payload)
    residual = 0.0 if not problems else 1.0
    return residual, {"digest": payload["digest"], "problems": list(problems)}


def _prop_limit_split(rng, p):
    spec = _system_spec(rng, p)
    inst = gen_instance(spec)
    a, b = limit_decompose_positive(inst.element, inst.first, inst.second, p.tol)
    exact = max(
        ((a.parts[lid] + b.parts[lid]) - inst.element.parts[lid]).frobenius()
        / floor_scale(inst.element.parts[lid].frobenius())
        for lid in inst.element.parts
    )
    naturality = max(coherence_defect(a), coherence_defect(b))
    inclusion = max(
        max(
            inst.first.level_ideal(lid).membership_defect(a.parts[lid]),
            inst.second.level_ideal(lid).membership_defect(b.parts[lid]),
            positivity_defect(a.parts[lid], p.tol),
            positivity_defect(b.parts[lid], p.tol),
        )
        for lid in inst.element.parts
    )
    return max(exact, naturality, inclusion), {"spec_seed": spec.seed}


def _prop_limit_membership(rng, p):
    spec = _system_spec(rng, p)
    inst = gen_instance(spec)
    total = coherent_ideal_sum(inst.first, inst.second)
    ok = (
        total.contains(inst.element, p.tol)
        and inst.first.is_compatible()
        and inst.second.is_compatible()
        and total.is_compatible()
    )
    return (0.0 if ok else 1.0), {"spec_seed": spec.seed}


def _prop_digest_stable(rng, p):
    spec = _system_spec(rng, p)
    first = instance_payload(spec)
    second = instance_payload(spec)
    ok = canonical_json(first) == canonical_json(second)
    return (0.0 if ok else 1.0), {"digest": first["digest"]}


SUITES = {
    "calculus": {
        "eig_reconstruction": _prop_eig_reconstruction,
        "eig_unitarity": _prop_eig_unitarity,
        "eig_ascending": _prop_eig_ascending,
        "cstar_identity": _prop_cstar_identity,
        "sqrt_squares_back": _prop_sqrt_squares_back,
        "pos_neg_laws": _prop_pos_neg_laws,
        "spectrum_real": _prop_spectrum_real,
    },
    "cone": {
        "sum_closure": _prop_sum_closure,
        "scale_closure": _prop_scale_closure,
        "conjugation_closure": _prop_conjugation_closure,
        "pointedness": _prop_pointedness,
        "witness_agreement": _prop_witness_agreement,
    },
    "lemmas": {name: _lemma_prop(name, check) for name, check in LAW_CHECKS.items()},
    "theorem": {
        "split_sum_exact": _prop_split_sum_exact,
        "split_parts_positive": _prop_split_parts_positive,
        "split_membership": _prop_split_membership,
        "split_naturality": _prop_split_naturality,
        "split_rejects_stray_mass": _prop_split_rejects_stray_mass,
    },
    "system": {
        "instance_checks": _prop_instance_checks,
        "limit_split": _prop_limit_split,
        "limit_membership": _prop_limit_membership,
        "digest_stable": _prop_digest_stable,
    },
}


def _run_trial(suite: str, p: SuiteParams, t: int) -> list[tuple]:
    """One trial of every property in a suite; returns result rows."""
    trial_seed = derive_seed(p.seed, suite, t)
    rows = []
    for name, prop in SUITES[suite].items():
        rng = SplitMix64(derive_seed(trial_seed, name))
        try:
            residual, payload = prop(rng, p)
            message = ""
        except Exception as exc:  # a crash is a failing trial, not a crash of the run
            residual, payload = float("inf"), {"error": str(exc)}
            message = f"{type(exc).__name__}: {exc}"
        digest = None
        if residual > p.tol:
            digest = canonical_digest(payload)
            if not message:
                message = f"residual {residual:.3e} exceeds tol {p.tol:.1e}"
        rows.append((name, t, trial_seed, residual, digest, message))
    return rows


def _trial_star(args):
    return _run_trial(*args)


def _single_report(suite: str, p: SuiteParams) -> dict:
    if suite not in SUITES:
        raise RejectedInputError(f"unknown suite {suite!r}")
    if p.workers == 1:
        batches = [_run_trial(suite, p, t) for t in range(p.trials)]
    else:
        jobs = [(suite, p, t) for t in range(p.trials)]
        with ProcessPoolExecutor(max_workers=p.workers) as pool:
            batches = list(pool.map(_trial_star, jobs, chunksize=8))
    stats = {
        name: {"trials": p.trials, "failures": 0, "worst_residual": 0.0}
        for name in SUITES[suite]
    }
    failures = []
    for rows in batches:  # batches arrive in trial order
        for name, t, trial_seed, residual, digest, message in rows:
            entry = stats[name]
            entry["worst_residual"] = max(entry["worst_residual"], residual)
            if digest is not None:
                entry["failures"] += 1
                failures.append(
                    {
                        "property": name,
                        "trial": t,
                        "seed": trial_seed,
                        "digest": digest,
                        "residual": _json_residual(residual),
                        "message": message,
                    }
                )
    for entry in stats.values():
        entry["worst_residual"] = _json_residual(entry["worst_residual"])
    failures.sort(key=lambda f: (f["property"], f["trial"]))
    failure_count = sum(entry["failures"] for entry in stats.values())
    return _report(suite, p, failure_count, properties=stats, failures=failures)


def _json_residual(residual: float) -> float | None:
    """JSON has no infinity: a crashed trial's residual is reported as null."""
    return residual if math.isfinite(residual) else None


def _report(suite: str, p: SuiteParams, failure_count: int, **body) -> dict:
    """The fields every report carries, around its suite-specific body."""
    return {
        "generator": GENERATOR_NAME,
        "suite": suite,
        "seed": p.seed,
        "trials": p.trials,
        "tol": p.tol,
        "blocks": p.blocks,
        "max_dim": p.max_dim,
        "depth": p.depth,
        **body,
        "failure_count": failure_count,
        "ok": failure_count == 0,
    }


def run_suite(suite: str, params: SuiteParams | None = None) -> dict:
    """Run one suite (or ``"all"``) and return its JSON-ready report."""
    p = params or SuiteParams()
    if suite == "all":
        subreports = {name: _single_report(name, p) for name in SUITE_NAMES}
        failure_count = sum(r["failure_count"] for r in subreports.values())
        return _report("all", p, failure_count, subreports=subreports)
    return _single_report(suite, p)


def render_report(report: dict) -> str:
    """Human-oriented plain-text rendering; one line per property."""
    lines = []
    if report["suite"] == "all":
        for name in SUITE_NAMES:
            lines.append(render_report(report["subreports"][name]).rstrip())
        lines.append(
            f"total: {report['failure_count']} failure(s); "
            f"{'ok' if report['ok'] else 'FAILED'}"
        )
        return "\n".join(lines) + "\n"
    head = (
        f"suite {report['suite']} (seed={report['seed']}, trials={report['trials']}, "
        f"tol={report['tol']:g})"
    )
    lines.append(head)
    for name in sorted(report["properties"]):
        entry = report["properties"][name]
        verdict = "ok" if entry["failures"] == 0 else f"{entry['failures']} FAILED"
        worst = entry["worst_residual"]
        if worst is None:  # a trial crashed; the text form shows that as inf
            worst = float("inf")
        lines.append(
            f"  {name}: {verdict} ({entry['trials']} trials, "
            f"worst residual {worst:.3e})"
        )
    for fail in report["failures"]:
        lines.append(
            f"  replay: property={fail['property']} trial={fail['trial']} "
            f"seed={fail['seed']} digest={fail['digest'][:12]} {fail['message']}"
        )
    return "\n".join(lines) + "\n"

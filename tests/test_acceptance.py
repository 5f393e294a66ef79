"""Acceptance suite: one verdict line per criterion, printed after the run.

Each test exercises its claim over many deterministic random samples at the
pinned tolerances and records PASS/FAIL into the terminal summary.
"""

import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_LINES

from conekit.algebra import (
    FdAlgebra,
    cstar_norm,
    pos_neg_parts,
    positivity_defect,
    positivity_witness_check,
    sqrt_positive,
)
from conekit.generate import InstanceSpec, gen_instance
from conekit.linalg import eig_hermitian, floor_scale
from conekit.morphisms import decompose_positive
from conekit.rng import SplitMix64, derive_seed
from conekit.sampling import (
    random_algebra,
    random_element,
    random_hermitian,
    random_hermitian_element,
    random_ideal,
    random_masked_element,
    random_positive_element,
)
from conekit.serialize import canonical_json
from conekit.suites import SuiteParams, run_suite
from conekit.towers import (
    coherence_defect,
    limit_decompose_positive,
)


@contextmanager
def criterion(line: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"FAIL {line}")
        raise
    else:
        ACCEPTANCE_LINES.append(f"PASS {line}")


def small_algebra(rng: SplitMix64) -> FdAlgebra:
    return random_algebra(rng, 3, 4)


def test_criterion_1_eigensolver():
    with criterion("criterion 1: eigensolver on 500 Hermitian matrices (dims 1-8)"):
        rng = SplitMix64(derive_seed(1, "acceptance", "eig"))
        start = time.perf_counter()
        for _ in range(500):
            dim = rng.randint(1, 8)
            m = random_hermitian(rng, dim)
            res = eig_hermitian(m)
            recon = (res.reconstruct() - m).frobenius()
            assert recon <= 1e-10 * max(1.0, m.frobenius())
            assert res.unitarity_defect() <= 1e-10 * dim
            assert list(res.eigenvalues) == sorted(res.eigenvalues)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_cstar_identity():
    with criterion("criterion 2: C*-identity on 500 random elements"):
        rng = SplitMix64(derive_seed(1, "acceptance", "cstar"))
        for _ in range(500):
            x = random_element(rng, small_algebra(rng))
            n = cstar_norm(x)
            assert abs(cstar_norm(x.star() @ x) - n * n) <= 1e-8 * max(1.0, n * n)


def test_criterion_3_sqrt_and_decomposition():
    with criterion("criterion 3: square roots and spectral splits on 500 samples"):
        rng = SplitMix64(derive_seed(1, "acceptance", "sqrt"))
        for _ in range(500):
            alg = small_algebra(rng)
            p = random_positive_element(rng, alg)
            r = sqrt_positive(p)
            assert ((r @ r) - p).frobenius() <= 1e-9 * max(1.0, p.frobenius())
            assert positivity_defect(r) <= 1e-9
            x = random_hermitian_element(rng, alg)
            pos, neg, absval = pos_neg_parts(x)
            scale = max(1.0, x.frobenius())
            assert ((pos - neg) - x).frobenius() <= 1e-9 * scale
            assert ((pos + neg) - absval).frobenius() <= 1e-9 * scale
            assert cstar_norm(pos @ neg) <= 1e-9 * scale * scale
            assert positivity_defect(pos) <= 1e-9
            assert positivity_defect(neg) <= 1e-9


def test_criterion_4_witness_equivalence():
    with criterion("criterion 4: positivity witnesses agree on 500 samples"):
        rng = SplitMix64(derive_seed(1, "acceptance", "witness"))
        disagreements = 0
        for k in range(500):
            alg = small_algebra(rng)
            kind = k % 4
            if kind == 0:
                x = random_element(rng, alg)
            elif kind == 1:
                x = random_hermitian_element(rng, alg)
            elif kind == 2:
                x = random_positive_element(rng, alg)
            else:
                h = random_hermitian_element(rng, alg)
                x = h - (2.0 * cstar_norm(h) + 1.0) * alg.unit()
            if not positivity_witness_check(x):
                disagreements += 1
        assert disagreements == 0


def test_criterion_5_cone_properties():
    with criterion("criterion 5: cone closure and pointedness on 500 samples"):
        rng = SplitMix64(derive_seed(1, "acceptance", "cone"))
        for _ in range(500):
            alg = small_algebra(rng)
            p = random_positive_element(rng, alg)
            q = random_positive_element(rng, alg)
            y = random_element(rng, alg)
            lam = rng.uniform(0.0, 4.0)
            assert positivity_defect(p + q) <= 1e-9
            assert positivity_defect(lam * p) <= 1e-9
            assert positivity_defect(y.star() @ p @ y) <= 1e-9
            if positivity_defect(-p) <= 1e-9:
                assert cstar_norm(p) <= 1e-9
        # the zero element sits in both halves of the cone, and only it does
        z = FdAlgebra((3, 2)).zero()
        assert positivity_defect(z) <= 1e-9 and positivity_defect(-z) <= 1e-9
        assert cstar_norm(z) <= 1e-9


def test_criterion_6_image_laws():
    with criterion("criterion 6: image/cone interaction laws on 100 instances each"):
        report = run_suite("lemmas", SuiteParams(seed=1, trials=100))
        assert len(report["properties"]) == 7
        for entry in report["properties"].values():
            assert entry["trials"] == 100
            assert entry["failures"] == 0
            assert entry["worst_residual"] <= 1e-9


def test_criterion_7_single_level_split():
    with criterion("criterion 7: ideal-sum splitting on 200 instances"):
        rng = SplitMix64(derive_seed(1, "acceptance", "split"))
        for _ in range(200):
            alg = small_algebra(rng)
            first = random_ideal(rng, alg)
            second = random_ideal(rng, alg)
            c = random_masked_element(
                rng, alg, first.support | second.support, positive=True
            )
            a, b = decompose_positive(c, first, second)
            assert ((a + b) - c).frobenius() <= 1e-10 * max(1.0, c.frobenius())
            assert positivity_defect(a) <= 1e-9
            assert positivity_defect(b) <= 1e-9
            assert first.membership_defect(a) <= 1e-9
            assert second.membership_defect(b) <= 1e-9


def test_criterion_8_limit_split():
    with criterion("criterion 8: levelwise splitting over 100 towers (depth <= 3)"):
        rng = SplitMix64(derive_seed(1, "acceptance", "towers"))
        for _ in range(100):
            spec = InstanceSpec(
                seed=rng.next_u64(),
                blocks=3,
                max_dim=4,
                depth=rng.randint(1, 3),
            )
            inst = gen_instance(spec)
            a, b = limit_decompose_positive(inst.element, inst.first, inst.second)
            assert coherence_defect(a) <= 1e-10
            assert coherence_defect(b) <= 1e-10
            for lid in inst.element.parts:
                c_part = inst.element.parts[lid]
                gap = ((a.parts[lid] + b.parts[lid]) - c_part).frobenius()
                assert gap <= 1e-10 * max(1.0, c_part.frobenius())
                assert inst.first.level_ideal(lid).membership_defect(a.parts[lid]) <= 1e-9
                assert inst.second.level_ideal(lid).membership_defect(b.parts[lid]) <= 1e-9
                assert positivity_defect(a.parts[lid]) <= 1e-9
                assert positivity_defect(b.parts[lid]) <= 1e-9


def test_criterion_9_deterministic_reports():
    with criterion("criterion 9: byte-identical reports, full run under 2 minutes"):
        params = SuiteParams(seed=1, trials=100)
        start = time.perf_counter()
        first = canonical_json(run_suite("all", params))
        first_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        second = canonical_json(run_suite("all", params))
        second_elapsed = time.perf_counter() - start
        assert first == second
        assert '"ok":true' in first
        assert first_elapsed < 120.0 and second_elapsed < 120.0

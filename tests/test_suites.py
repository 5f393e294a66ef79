"""Tests for the verification suites and their reports."""

import pytest

from conekit import suites
from conekit.errors import RejectedInputError
from conekit.rng import derive_seed
from conekit.serialize import canonical_json
from conekit.suites import SUITE_NAMES, SUITES, SuiteParams, render_report, run_suite


class TestParams:
    def test_defaults(self):
        p = SuiteParams()
        assert (p.seed, p.trials, p.tol) == (1, 100, 1e-9)
        assert (p.blocks, p.max_dim, p.depth, p.workers) == (3, 4, 2, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"trials": 0}, {"tol": 0.0}, {"workers": 0}, {"seed": -5}, {"blocks": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(RejectedInputError):
            SuiteParams(**kwargs)


class TestSuiteRuns:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_each_suite_is_clean(self, suite):
        report = run_suite(suite, SuiteParams(seed=3, trials=12))
        assert report["ok"], report["failures"]
        assert report["failure_count"] == 0
        assert report["failures"] == []
        assert set(report["properties"]) == set(SUITES[suite])
        for entry in report["properties"].values():
            assert entry["trials"] == 12
            assert entry["failures"] == 0
            assert entry["worst_residual"] <= 1e-9

    def test_all_wraps_subreports(self):
        report = run_suite("all", SuiteParams(seed=4, trials=4))
        assert set(report["subreports"]) == set(SUITE_NAMES)
        assert report["ok"]
        assert report["failure_count"] == sum(
            sub["failure_count"] for sub in report["subreports"].values()
        )

    def test_degenerate_scalar_algebra(self):
        report = run_suite("all", SuiteParams(seed=5, trials=4, blocks=1, max_dim=1))
        assert report["ok"]

    def test_unknown_suite(self):
        with pytest.raises(RejectedInputError):
            run_suite("sanity", SuiteParams(trials=1))


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        p = SuiteParams(seed=17, trials=6)
        first = canonical_json(run_suite("all", p))
        second = canonical_json(run_suite("all", p))
        assert first == second

    def test_workers_do_not_change_the_report(self, monkeypatch):
        # report two CPUs so the real pool runs even on a one-CPU machine
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
        serial = run_suite("theorem", SuiteParams(seed=8, trials=10, workers=1))
        parallel = run_suite("theorem", SuiteParams(seed=8, trials=10, workers=2))
        assert canonical_json(serial) == canonical_json(parallel)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_seed_changes_residuals(self, suite):
        a = run_suite(suite, SuiteParams(seed=1, trials=6))
        b = run_suite(suite, SuiteParams(seed=2, trials=6))
        assert a["properties"] != b["properties"]  # not just the seed field


class TestFailurePath:
    def test_tiny_tol_produces_replayable_failures(self):
        report = run_suite("calculus", SuiteParams(seed=9, trials=5, tol=1e-18))
        assert not report["ok"]
        assert report["failure_count"] > 0
        assert len(report["failures"]) == report["failure_count"]
        for fail in report["failures"]:
            assert fail["property"] in SUITES["calculus"]
            assert 0 <= fail["trial"] < 5
            assert fail["seed"] == derive_seed(9, "calculus", fail["trial"])
            assert len(fail["digest"]) == 64
            assert fail["message"]

    def test_failures_sorted_for_stable_output(self):
        report = run_suite("calculus", SuiteParams(seed=9, trials=5, tol=1e-18))
        keys = [(f["property"], f["trial"]) for f in report["failures"]]
        assert keys == sorted(keys)

    def test_nan_residual_fails_closed(self, monkeypatch):
        monkeypatch.setitem(
            SUITES["cone"], "sum_closure", lambda rng, p: (float("nan"), {"probe": 1})
        )
        report = run_suite("cone", SuiteParams(seed=3, trials=4))
        entry = report["properties"]["sum_closure"]
        assert entry["failures"] == 4
        assert entry["worst_residual"] is None
        assert not report["ok"]
        assert [f["residual"] for f in report["failures"]] == [None] * 4
        assert "sum_closure: 4 FAILED" in render_report(report)
        canonical_json(report)  # no NaN reaches the JSON text


class TestWorkerClamp:
    @pytest.mark.parametrize(
        "workers, trials, cpus, pools",
        [
            (10**6, 3, 8, [3]),
            (10**6, 5, 4, [4]),
            (3, 5, 2, [2]),
            (4, 5, None, []),
            (1, 5, 8, []),
        ],
    )
    def test_pool_size_is_clamped(self, monkeypatch, workers, trials, cpus, pools):
        created = []

        class InlinePool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(suites, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
        report = run_suite("cone", SuiteParams(seed=3, trials=trials, workers=workers))
        assert created == pools
        serial = run_suite("cone", SuiteParams(seed=3, trials=trials))
        assert canonical_json(report) == canonical_json(serial)


class TestRendering:
    def test_one_line_per_property(self):
        report = run_suite("cone", SuiteParams(seed=3, trials=5))
        text = render_report(report)
        for name in SUITES["cone"]:
            assert f"  {name}: ok" in text

    def test_all_rendering_has_total(self):
        report = run_suite("all", SuiteParams(seed=3, trials=3))
        text = render_report(report)
        assert "total: 0 failure(s); ok" in text

    def test_failures_rendered_with_replay_seed(self):
        report = run_suite("cone", SuiteParams(seed=3, trials=3, tol=1e-18))
        text = render_report(report)
        assert "replay:" in text and "seed=" in text

"""Measured body of one benchmark run, started by run.py in a fresh child.

The child's environment pins BLAS to one thread before numpy loads, so the
pool workers it forks are single-threaded too.  ``sys.argv[1]`` is a JSON
config from run.py; the last line of stdout is a JSON result.

conekit is driven only through its public functions, as the CLI drives it:
``run_suite`` + ``canonical_json`` (``conekit verify --json``), and
``instance_payload`` -> ``canonical_json`` -> ``json.loads`` ->
``check_instance`` (``conekit gen`` then ``conekit check``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Why each workload: see BENCHMARK.json.  A unit is one verify report or one
# instance round trip; a run does round(seconds * units_per_s) units, so the
# work of a run depends only on --seconds and its inputs only on --seed.
# units_per_s is calibrated so a run takes about --seconds at the commit that
# added the benchmark.  verify_small and verify_small_pool run the same
# reports, so their report digests must agree.
WORKLOADS = {
    "verify_small": {
        "kind": "verify", "trials": 20, "blocks": 3, "max_dim": 4, "depth": 2,
        "pool": False, "units_per_s": 3.6,
    },
    "verify_small_pool": {
        "kind": "verify", "trials": 20, "blocks": 3, "max_dim": 4, "depth": 2,
        "pool": True, "units_per_s": 3.6,
    },
    "verify_large_dim": {
        "kind": "verify", "trials": 1, "blocks": 2, "max_dim": 24, "depth": 2,
        "pool": False, "units_per_s": 2.6,
    },
    "instance_roundtrip": {
        "kind": "instance", "blocks": 4, "max_dim": 8, "depth": 3,
        "pool": False, "units_per_s": 200.0,
    },
}
# Self-check sizes: enough to touch every layer, small enough to run in seconds.
TINY = {"verify": {"trials": 2}, "instance": {}}
TINY_UNITS = {"verify": 2, "instance": 6}
MIN_UNITS = 2
TAIL_BEYOND = 10


def unit_seed(seed: int, kind: str, index: int) -> int:
    """Input seed of unit ``index``; independent of conekit's own generator."""
    digest = hashlib.sha256(f"{kind}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workers_for(spec: dict) -> int:
    # the pool path needs at least two workers; one per usable core otherwise
    return max(2, len(os.sched_getaffinity(0))) if spec["pool"] else 1


class Gates:
    """Correctness gates; a tripped gate counts as one failed check."""

    def __init__(self):
        self.results: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.results.setdefault(name, {"checks": 0, "failures": 0, "detail": ""})
        entry["checks"] += 1
        if not ok:
            entry["failures"] += 1
            entry["detail"] = entry["detail"] or detail

    @property
    def attempted(self) -> int:
        return sum(e["checks"] for e in self.results.values())

    @property
    def failed(self) -> int:
        return sum(e["failures"] for e in self.results.values())


class Workload:
    """One workload at fixed sizes; ``run`` times one unit and checks it."""

    def __init__(self, spec: dict, seed: int, units: int, tiny: bool):
        import conekit

        self.conekit = conekit
        self.kind = spec["kind"]
        self.sizes = {k: spec[k] for k in ("trials", "blocks", "max_dim", "depth") if k in spec}
        if tiny:
            self.sizes.update(TINY[self.kind])
        self.workers = workers_for(spec)
        self.seeds = [unit_seed(seed, self.kind, i) for i in range(units)]
        self.items_per_unit = 1

    def run(self, index: int, workers: int | None = None) -> dict:
        """One unit: its wall time, output digest, items, failed items and verdict."""
        ck = self.conekit
        seed = self.seeds[index]
        if self.kind == "verify":
            params = ck.SuiteParams(seed=seed, workers=workers or self.workers, **self.sizes)
            t0 = time.perf_counter()
            report = ck.run_suite("all", params)
            text = ck.serialize.canonical_json(report)
            wall = time.perf_counter() - t0
            items = sum(
                entry["trials"]
                for sub in report["subreports"].values()
                for entry in sub["properties"].values()
            )
            return {"wall": wall, "sha": sha256(text), "items": items,
                    "failed": report["failure_count"], "ok": report["ok"], "bytes_in": 0}
        spec = ck.InstanceSpec(seed=seed, **self.sizes)
        t0 = time.perf_counter()
        payload = ck.instance_payload(spec)
        text = ck.serialize.canonical_json(payload)
        loaded = json.loads(text)
        problems = ck.check_instance(loaded)
        wall = time.perf_counter() - t0
        round_trip = (
            loaded.get("digest") == payload["digest"]
            and ck.serialize.canonical_json(loaded) == text
        )
        ok = not problems and round_trip
        return {"wall": wall, "sha": sha256(text), "items": 1, "failed": int(not ok), "ok": ok,
                "bytes_in": len(text),
                "detail": "; ".join(problems) or ("" if round_trip else "digest did not round-trip")}

    def warm_up(self) -> None:
        """Let imports and any lazy set-up finish before timing."""
        ck = self.conekit
        if self.kind == "verify":
            ck.run_suite("all", ck.SuiteParams(seed=1, trials=1, **{
                k: v for k, v in self.sizes.items() if k != "trials"}))
        else:
            ck.check_instance(ck.instance_payload(ck.InstanceSpec(seed=1, **self.sizes)))


def run_pass(wl: Workload, indices, gates: Gates, tally: dict, workers=None) -> list[dict]:
    """Run units in order; a unit that raises counts as failed, never dropped."""
    out = []
    for i in indices:
        try:
            unit = wl.run(i, workers)
        except Exception as exc:  # a crash is a failed unit, reported with its traceback
            traceback.print_exc(file=sys.stderr)
            unit = {"wall": float("nan"), "sha": None, "items": wl.items_per_unit,
                    "failed": wl.items_per_unit, "ok": False, "bytes_in": 0,
                    "error": f"{type(exc).__name__}: {exc}"}
        else:
            wl.items_per_unit = unit["items"]
        tally["attempted"] += unit["items"]
        tally["failed"] += unit["failed"]
        why = unit.get("error") or unit.get("detail") or "report not ok"
        gates.check("report_ok" if wl.kind == "verify" else "instance_ok", unit["ok"], f"unit {i}: {why}")
        out.append(unit)
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(units: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the units that completed."""
    units = [u for u in units if "error" not in u]
    walls = [u["wall"] for u in units]
    items = sum(u["items"] for u in units)
    total = sum(walls)
    per_item_ms = [1e3 * u["wall"] / u["items"] for u in units]
    tail_ms, tail_pct, n = tail(per_item_ms)
    metrics = {
        "wall_s": total,
        "items_per_s": items / total,
        "item_ms_p50": statistics.median(per_item_ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"tail_percentile": tail_pct, "latency_samples": n, "items": items}
    return metrics, detail


def machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas_name"] = blas.get("name")
    info["blas_version"] = blas.get("version")
    info["blas_config"] = blas.get("openblas configuration")
    # runtime core type and thread count, from the OpenBLAS numpy loaded
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "")):
            try:
                corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            info["blas_core"] = corename().decode()
            info["blas_threads"] = threads()
            break
    return info


def main() -> int:
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"]).resolve()
    import conekit

    if root / "src" not in Path(conekit.__file__).resolve().parents:
        print(f"conekit was imported from {conekit.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[cfg["workload"]]
    tiny = cfg.get("tiny", False)
    units = TINY_UNITS[spec["kind"]] if tiny else max(MIN_UNITS, round(cfg["seconds"] * spec["units_per_s"]))
    wl = Workload(spec, cfg["seed"], units, tiny)
    gates = Gates()
    tally = {"attempted": 0, "failed": 0}
    t_warm = time.perf_counter()
    wl.warm_up()
    result = {"warmup_s": time.perf_counter() - t_warm, "units": units, "sizes": wl.sizes,
              "workers": wl.workers, "machine": machine()}

    if not cfg["trace"]:
        timed = run_pass(wl, range(units), gates, tally)
        repeat = run_pass(wl, [0], gates, tally, workers=1)[0]
        repeat_sha = repeat["sha"]
        if cfg.get("tamper"):
            repeat_sha = "0" * 64
        gates.check("repeat_identical", repeat_sha == timed[0]["sha"],
                    f"unit 0 digest {timed[0]['sha']} on the timed pass, {repeat_sha} on the 1-worker repeat")
        if any("error" not in u for u in timed):
            result["end_to_end"], result["latency"] = end_to_end(timed)
        result["worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if spec["pool"] else None
        )
    else:
        from tracer import Tracer

        traced_units = max(1, (units + 1) // 2)
        indices = range(traced_units)
        plain = run_pass(wl, indices, gates, tally)
        spill = Path(cfg["scratch"])
        tracer = Tracer(spill)
        tracer.install()
        try:
            traced = run_pass(wl, indices, gates, tally)
        finally:
            tracer.uninstall()
        tracer.collect()
        for i, (a, b) in enumerate(zip(plain, traced)):
            gates.check("traced_identical", a["sha"] == b["sha"],
                        f"unit {i} digest {a['sha']} untraced, {b['sha']} traced")
        layers = tracer.per_layer_metrics()
        layers["serialize.bytes_in"] = float(sum(u["bytes_in"] for u in traced))
        plain_s = sum(u["wall"] for u in plain)
        layers["trace.overhead_frac"] = sum(u["wall"] for u in traced) / plain_s - 1.0
        if spec["pool"]:
            single = run_pass(wl, indices, gates, tally, workers=1)
            single_s = sum(u["wall"] for u in single)
            for i, (a, b) in enumerate(zip(plain, single)):
                gates.check("pool_matches_single", a["sha"] == b["sha"],
                            f"unit {i} digest {a['sha']} with {wl.workers} workers, {b['sha']} with 1")
            layers["suites.pool_overhead_s"] = (plain_s - single_s / wl.workers) / traced_units
            layers["suites.parallel_efficiency"] = single_s / (wl.workers * plain_s)
        else:
            layers["suites.pool_overhead_s"] = 0.0
            layers["suites.parallel_efficiency"] = 1.0
        result["per_layer"] = layers
        result["traced_units"] = traced_units
        tracer.write(Path(cfg["spans"]))
        timed = plain

    digests = [u["sha"] or "" for u in timed]
    result["report_sha256"] = sha256("\n".join(digests))
    result["gates"] = gates.results
    result["attempted"] = tally["attempted"] + gates.attempted
    result["failed"] = tally["failed"] + gates.failed
    result["errors"] = [u["error"] for u in timed if "error" in u]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

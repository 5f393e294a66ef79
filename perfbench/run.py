"""conekit benchmark: one entry point for every workload and both passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a source checkout; it imports conekit from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced pass (see tracer.py).  Every metric is
printed by name and unit together with the correctness gates, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A results file with the machine, gates and report digests is written under
``.perfbench/results/``.

``setup_s`` is measured here, in fresh interpreters apart from the measured
body: importing conekit, building the CLI parser (``conekit --help``) and
one minimal first call of each public path, so work moved into import time
or into a lazy first call shows in it.  The body runs in a child process
(body.py) whose environment pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_SAMPLES = 7
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Per-layer metrics in these units are time measurements; all others are
# counts or ratios of counts and must repeat exactly between traced runs.
TIMED_UNITS = {"s", "us", "ratio"}

SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import conekit, conekit.cli, conekit.serialize
with contextlib.redirect_stdout(io.StringIO()):
    try:
        conekit.cli.main(["--help"])
    except SystemExit:
        pass
conekit.serialize.canonical_json(conekit.run_suite(
    "all", conekit.SuiteParams(trials=1, blocks=1, max_dim=2, depth=1)))
conekit.check_instance(conekit.instance_payload(
    conekit.InstanceSpec(blocks=1, max_dim=2, depth=1)))
elapsed = time.perf_counter() - t0
print(conekit.__file__)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on overrun."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited with code {proc.returncode}")
    return out


def measure_setup(samples: int, deadline: float) -> list[float]:
    times = []
    for _ in range(samples):
        out = run_child([sys.executable, "-c", SETUP_CODE], deadline - time.monotonic())
        path, elapsed = out.strip().splitlines()[-2:]
        if ROOT / "src" not in Path(path).resolve().parents:
            raise BenchError(f"conekit was imported from {path}, not from {ROOT / 'src'}")
        times.append(float(elapsed))
    return times


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(bench: dict, workload: str, seed: int, seconds: int, trace: int,
                 deadline: float, tiny: bool = False, tamper: bool = False) -> dict:
    """One run: set-up samples, then the body child; returns the results record."""
    setup = [] if trace else measure_setup(1 if tiny else SETUP_SAMPLES, deadline)
    scratch = OUT / f"spill-{os.getpid()}"
    spans = OUT / "spans" / f"{workload}-seed{seed}.pkl"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spans.parent.mkdir(parents=True, exist_ok=True)
    cfg = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "tiny": tiny, "tamper": tamper,
           "scratch": str(scratch), "spans": str(spans)}
    try:
        out = run_child([sys.executable, str(HERE / "body.py"), json.dumps(cfg)],
                        deadline - time.monotonic())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    body = json.loads(out.strip().splitlines()[-1])

    kind = "per_layer" if trace else "end_to_end"
    values = dict(body.get(kind, {}))
    if not trace:
        values["setup_s"] = statistics.median(setup)
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": body["failed"] == 0, "attempted": body["attempted"], "failed": body["failed"],
        "failed_frac": body["failed"] / body["attempted"],
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "setup_samples_s": setup,
        **{k: v for k, v in body.items() if k not in ("end_to_end", "per_layer", "attempted", "failed")},
    }
    if not tiny:
        path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        record["results_file"] = str(path.relative_to(ROOT))
    return record


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  "
          f"trace {rec['trace']}  units {rec['units']}  workers {rec['workers']}")
    width = max(len(m) for m in rec["metrics"])
    for name, m in rec["metrics"].items():
        print(f"  {name:<{width}} = {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<{width}} = {rec['failed_frac']:.6g} "
          f"({rec['failed']} failed of {rec['attempted']} attempted)")
    if "latency" in rec:
        lat = rec["latency"]
        print(f"  item_ms_tail is p{lat['tail_percentile']:.1f} of {lat['latency_samples']} samples")
    if rec.get("worker_peak_rss_mb"):
        print(f"  largest pool worker peak rss = {rec['worker_peak_rss_mb']:.6g} MB")
    print(f"  report sha256 {rec['report_sha256']}")
    for name, gate in rec["gates"].items():
        verdict = "PASS" if gate["failures"] == 0 else f"FAIL ({gate['failures']}) {gate['detail']}"
        print(f"  gate {name}: {verdict} [{gate['checks']} checks]")
    if rec.get("results_file"):
        print(f"  results in {rec['results_file']}")


def self_check(bench: dict) -> int:
    """Tiny runs of every workload that test the benchmark itself."""
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    far = time.monotonic() + 3600.0
    digests = {}
    for w in (w["name"] for w in bench["workloads"]):
        plain = run_workload(bench, w, 1, 1, 0, far, tiny=True)
        expect(plain["correct"], f"{w}: tiny untraced run is correct")
        digests[w] = plain["report_sha256"]
        first = run_workload(bench, w, 1, 1, 1, far, tiny=True)
        second = run_workload(bench, w, 1, 1, 1, far, tiny=True)
        expect(first["correct"] and second["correct"], f"{w}: tiny traced runs are correct")
        exact = [m["name"] for m in bench["per_layer"] if m["unit"] not in TIMED_UNITS]
        drift = [m for m in exact if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        expect(not drift, f"{w}: exact counts repeat between traced runs {drift or ''}")
        tampered = run_workload(bench, w, 1, 1, 0, far, tiny=True, tamper=True)
        expect(not tampered["correct"] and tampered["failed_frac"] > 0
               and tampered["gates"]["repeat_identical"]["failures"] == 1,
               f"{w}: a tampered report digest trips the gate and raises failed_frac")
    expect(digests["verify_small"] == digests["verify_small_pool"],
           "verify_small and verify_small_pool reports are byte-identical")
    # run_workload raises if emitted names differ from BENCHMARK.json
    expect(True, "emitted metric names match BENCHMARK.json on both passes")
    print(f"self-check: {'ok' if not failures else f'{len(failures)} FAILED'}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="test the benchmark itself at tiny sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conekit" / "__init__.py").is_file():
        print(f"run.py: no conekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = declared()
    if args.self_check:
        return self_check(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in (*names, "all"):
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if args.workload != "all":
            rec = run_workload(bench, args.workload, args.seed, seconds, args.trace,
                               start + DEADLINE_S)
            print_record(rec)
            summary = {"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": rec["metrics"]}
        else:
            summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in names:
                rec = run_workload(bench, w, args.seed, seconds, args.trace,
                                   time.monotonic() + DEADLINE_S)
                print_record(rec)
                summary["correct"] &= rec["correct"]
                summary["attempted"] += rec["attempted"]
                summary["failed"] += rec["failed"]
                summary["metrics"].update({f"{w}.{m}": v for m, v in rec["metrics"].items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

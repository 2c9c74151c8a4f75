"""The repository benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper-barriers [--seed 0] [--seconds S] [--trace 0]
    python3 bench/run.py --workload all --trace 1
    python3 bench/run.py --workload all --record-golden   # re-record bench/golden.json

Each workload runs in a fresh process (``suite.py``) with a private run
cache and none of the program's tuning/cache environment settings, so a
developer's tuning table cannot change which algorithm runs.  The
report lists every metric with its unit and sample count, then the
run's metadata; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The
exit code is non-zero when any output check failed.

At the default seed the run is also compared with ``golden.json``: a
result digest that differs is a failed check; an exact per-layer count
that differs is printed as a named drift (old -> new) so a change in
simulated work is visible, without failing the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
WORKLOADS = ("paper-barriers", "multi-job", "chaos-fuzz")
DEFAULT_SEED = 0
#: Environment settings that would make a run depend on the developer's
#: machine rather than on the checkout.
CLEARED_ENV = ("REPRO_TUNING_TABLE", "REPRO_CACHE", "REPRO_SCHEDULE_CACHE_SIZE")
IMPORT_SAMPLES = 7
DEADLINE_S = 170.0

#: Metric names and units come from the benchmark definition, so the
#: report and the definition cannot drift apart.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Best-of-three wall time of a fixed pure-Python loop: a host speed
    reference for reading results from different machines together."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def hermetic_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run ``suite.py`` to completion (it is killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable, str(BENCH / "suite.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        env = hermetic_env(tmp)
        out = tmp / "result.json"
        run_child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", str(out)],
            env, deadline,
        )
        result = json.loads(out.read_text())
        imports = [result["import_s"]]
        for _ in range(IMPORT_SAMPLES - 1):
            probe = run_child(["--import-only"], env, deadline)
            imports.append(float(probe.stdout.strip().splitlines()[-1]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    result["import_samples"] = imports
    result["e2e"]["setup_s"] = statistics.median(imports) + result["setup_batch_s"]
    return result


def compare_golden(name: str, result: dict, golden: dict) -> list:
    """Digest mismatches fail their unit; ledger drift is only reported."""
    lines = []
    recorded = golden.get(name)
    if recorded is None:
        return [f"  golden: nothing recorded for {name}"]
    for unit, want in recorded["digests"].items():
        got = result["digests"].get(unit)
        if got != want:
            result["problems"].append(f"{unit}: output digest {got} differs from golden {want}")
            result["failed"] += max(1, result["units"].get(unit, 0))
    drift = [
        (key, old, result["ledger"].get(key))
        for key, old in recorded["ledger"].items()
        if result["ledger"].get(key) != old
    ]
    drift += [
        (key, None, value) for key, value in result["ledger"].items()
        if key not in recorded["ledger"]
    ]
    for key, old, new in drift:
        lines.append(f"  ledger drift {key}: {old} -> {new}")
    if not drift:
        lines.append(f"  ledger: all {len(recorded['ledger'])} exact counts match golden")
    return lines


def report(name: str, seed: int, result: dict, trace: int, notes: list) -> None:
    n = result["batches"]
    sampled = f"  sampled={result['traced_batches']}" if trace else ""
    print(f"== {name}  seed={seed}  batches={n}{sampled}  ops/batch={result['ops_per_batch']}")
    for key, value in result["e2e"].items():
        count = len(result["import_samples"]) if key == "setup_s" else n
        print(f"  {key:<36} {value:>14.6g} {UNITS[key]:<6} n={count}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} {'ratio':<6} ({failed}/{attempted})")
    for key, value in result["layers"].items():
        print(f"  {key:<36} {value:>14.6g} {UNITS[key]}")
    print(f"  per-layer spans: median of {n + result['traced_batches']} batches;"
          f" self times: {result['traced_batches']} sampled batches")
    for key, value in result["ledger"].items():
        if "@" in key:
            print(f"  ledger {key:<36} {value}")
    for line in notes:
        print(line)
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's digests and exact counts to golden.json "
                        "(default seed only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error("--record-golden records the default seed only")

    meta = metadata()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, warned = {}, 0, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        notes = []
        if args.record_golden:
            golden[name] = {"digests": result["digests"], "ledger": result["ledger"]}
        elif args.seed == DEFAULT_SEED:
            notes = compare_golden(name, result, golden)
        report(name, args.seed, result, args.trace, notes)
        attempted += result["attempted"]
        failed += result["failed"]
        warned += result["warnings_captured"]
        values = result["layers"] if args.trace else result["e2e"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": UNITS[key]}
    if args.record_golden:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    meta["source_digest"] = result["source_digest"][:16]
    meta["warnings_captured"] = warned
    print("   ".join(f"{k}={v}" for k, v in meta.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

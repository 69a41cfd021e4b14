"""hopfcalc benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hopfcalc is imported from ``src``.
Each pass runs in a fresh worker process (worker.py), one after another
(a closed loop with one client), until ``--seconds`` have gone by.
``HOPFCALC_THREADS`` is removed from the workers' environment, so the
``table`` pool uses one thread per CPU.

``--trace 0`` prints the end-to-end metrics: medians over the run's
passes, with times rescaled to the reference CPU speed by the speed
sampled during each pass (see worker.py); the times as measured go to
the run record.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics of the traced pass with the median wall time,
plus the tracing overhead (that pass's wall time minus the untraced
median, both at the reference speed).
Spans go to ``.perfbench/spans/`` and a record of every run, with the
machine's state, to ``.perfbench/runs/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without printing it
when the checkout holds no hopfcalc sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flagship", "grid-bounded", "cover-deep", "oracle-suite")
SETUP_SAMPLES = 5
# a run, set-up included, must end within 180 s even if a worker hangs
RUN_LIMIT_S = 170
OUT_DIR = Path(".perfbench")


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("HOPFCALC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")])
    )
    return env


def _worker(args, extra: list[str]) -> dict:
    left = args.deadline - time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(), capture_output=True, text=True,
            timeout=max(left, 0.001),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s in worker {cmd}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker failed with exit code {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    out = json.loads(lines[-1])
    out["loadavg_1m"] = os.getloadavg()[0]
    return out


def _commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "HOPFCALC_THREADS": os.environ.get("HOPFCALC_THREADS"),
        "commit": _commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _median(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def _measure(args) -> tuple[list, list]:
    """Run passes until --seconds have gone by; returns (untraced, traced)."""
    OUT_DIR.joinpath("spans").mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(_worker(args, []))
        if args.trace:
            name = f"{args.workload}-seed{args.seed}-pass{len(traced)}.jsonl"
            traced.append(_worker(args, ["--spans", str(OUT_DIR / "spans" / name)]))
            traced[-1]["traced"] = True
        if time.perf_counter() - start >= args.seconds:
            return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # exit through Python on SIGTERM, so that subprocess.run kills and
    # reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not Path("src/hopfcalc/__init__.py").is_file():
        print("perfbench: no src/hopfcalc here; run from a hopfcalc checkout",
              file=sys.stderr)
        return 2
    env = _environment()
    try:
        # compiles the bytecode cache and warms the page cache, which
        # users pay once per install, not once per run
        _worker(args, ["--setup-only"])
        untraced, traced = _measure(args)
        setups = list(untraced)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(args, ["--setup-only"]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # the output contract is byte-deterministic: every pass of one run
    # must print the same output
    hashes = {p["sha256"] for p in passes}
    attempted += 1
    failed += len(hashes) != 1
    problems = [q for p in passes for q in p["problems"]]

    if args.trace:
        # the lower median, so that the pass is one that really ran
        chosen = sorted(traced, key=lambda p: p["wall_ref_s"])[(len(traced) - 1) // 2]
        metrics = dict(chosen["layers"])
        metrics["trace.overhead_s"] = chosen["wall_ref_s"] - _median(untraced, "wall_ref_s")
    else:
        first = passes[0]
        metrics = {
            "wall_ref_s": _median(untraced, "wall_ref_s"),
            "cpu_ref_s": _median(untraced, "cpu_ref_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "setup_s": _median(setups, "setup_ref_s"),
            "exact_share": first["exact_share"],
            "h2_ratio": first["h2_ratio"],
            "passed_share": (attempted - failed) / attempted,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "numpy": passes[0]["numpy"],
        "hopfcalc": passes[0]["hopfcalc"],
        "median_as_measured_s": {
            "wall": _median(untraced, "wall_s"),
            "cpu": _median(untraced, "cpu_s"),
            "setup": _median(setups, "setup_s"),
        },
        "setup_samples": [{k: p[k] for k in ("setup_s", "setup_ref_s")} for p in setups],
        "passes": [
            {k: p[k] for k in ("wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s", "speed",
                               "steal_s", "stolen_s", "probe_samples", "peak_rss_mb", "loadavg_1m", "sha256")}
            | {"traced": p.get("traced", False)}
            for p in passes
        ],
        "problems": problems[:50],
    }
    OUT_DIR.joinpath("runs").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT_DIR.joinpath("runs", name).write_text(json.dumps(record, indent=2) + "\n")
    for q in problems[:10]:
        print(f"perfbench: check failed: {q}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "environment": env,
                      "passes": len(untraced), "traced_passes": len(traced),
                      "median_as_measured_s": record["median_as_measured_s"]}))

    declared = json.loads(Path("BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

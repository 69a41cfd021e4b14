"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--spans FILE]

Run from the root of a checkout with ``src`` on PYTHONPATH (run.py does
both).  A fresh process per pass keeps the corpus cache, the oracle's
boundary-matrix cache and ``ru_maxrss`` from carrying over between passes.
Prints one JSON object as its last line of standard output.

Each time the process measures is reported twice: as measured
(``wall_s``) and at the reference CPU speed (``wall_ref_s``), rescaled
by the speed that ``SpeedProbe`` sampled during the same interval.
Wall times at the reference speed also leave out the time the
hypervisor kept the process off its vCPU (``_stolen_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext

PROBE_KEYS = [tuple((i * 7 + j) % 5 for j in range(6)) for i in range(64)]
PROBE_ROUNDS = 12
PROBE_PERIOD_S = 0.05
# the burst's time on an uncontended vCPU of a 2-vCPU Intel Xeon VM
# (about the fastest quarter of its bursts there); a time rescaled by
# the probe reads as if the whole interval had run at that speed
REFERENCE_BURST_S = 0.0004


class SpeedProbe:
    """Samples how fast this process's CPU runs while the process works.

    On a shared VM the host slows a vCPU by up to about 1.8x, and the
    slowdown changes within a second, so a pass's wall time mostly
    measures the host.  A real-time timer interrupts the process every
    ``PROBE_PERIOD_S``; the handler runs between two bytecodes of the
    work, on the same CPU, and times a fixed pure-Python burst of about
    0.4 ms (tuple rotations counted in a dict, as in rewriting).  That
    costs about 1% of the pass, which ``rescale`` takes back out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def burst(self, *_signal) -> None:
        t0 = time.perf_counter()
        seen = {}
        for r in range(PROBE_ROUNDS):
            for k in PROBE_KEYS:
                h = k[1:] + k[:1]
                seen[h] = seen.get(h, 0) + r
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def start(self) -> float:
        """Start an interval: one burst, so that every interval has one."""
        t0 = time.perf_counter()
        self.burst()
        return t0

    def rescale(self, t0: float, t1: float, seconds: float, stolen: float = 0.0):
        """``seconds`` spent from t0 to t1: (less the bursts, at reference speed).

        The reference time is the work done, measured in seconds at the
        reference speed: the time the process ran, less the bursts and
        the ``stolen`` time, times the mean sampled speed.
        """
        bursts = [b for t, b in self.samples if t0 <= t < t1]
        net = seconds - sum(bursts)
        return net, (net - stolen) * statistics.mean(REFERENCE_BURST_S / b for b in bursts)


def _steal_s() -> float:
    """Time the hypervisor has kept this VM's vCPUs from running so far.

    A vCPU that is runnable but not running counts as steal in
    /proc/stat; an idle one counts none.  Reads 0 where /proc/stat
    does not exist.
    """
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _stolen_s(steal: float, wall: float, cpu: float) -> float:
    """The part of ``wall`` the hypervisor took from this process.

    The VM's steal over the interval counts every vCPU, and a process
    can lose no more than the time it spent off the CPU, ``wall - cpu``.
    When the process ran on both vCPUs at once (cpu > wall), there is
    no telling which one was stolen from, and nothing is taken out.
    """
    return min(steal, max(0.0, wall - cpu))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _no_span(name, **attrs):
    return nullcontext()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", metavar="FILE", default=None)
    args = ap.parse_args()

    with SpeedProbe() as probe:
        steal0 = _steal_s()
        cpu_start = time.process_time()
        t0 = probe.start()
        import numpy

        import hopfcalc
        import workloads

        w = workloads.WORKLOADS[args.workload]
        tracer = None
        span = _no_span
        if args.spans:
            import spans

            tracer = spans.Tracer(f"{args.workload}/{args.seed}")
            tracer.install()
            span = tracer.span
        with span("presentation.parse"):
            inputs = w.load(args.seed)
        t1 = time.perf_counter()
        steal1 = _steal_s()
        setup_cpu = time.process_time()
        if not args.setup_only:
            t2 = probe.start()
            cpu0 = _cpu_s()
            with span("bench.pass"):
                outcome = w.run(inputs, span)
            cpu = _cpu_s() - cpu0
            t3 = time.perf_counter()
            steal_s = _steal_s() - steal1

    setup_s, setup_ref_s = probe.rescale(
        t0, t1, t1 - t0, _stolen_s(steal1 - steal0, t1 - t0, setup_cpu - cpu_start)
    )
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "hopfcalc": hopfcalc.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    stolen_s = _stolen_s(steal_s, t3 - t2, cpu)
    wall_s, wall_ref_s = probe.rescale(t2, t3, t3 - t2, stolen_s)
    # the bursts ran on this process's CPU, so they count in its CPU
    # time; stolen time does not
    cpu_s, cpu_ref_s = probe.rescale(t2, t3, cpu)
    verdict = w.check(inputs, outcome)
    result.update(
        wall_s=wall_s,
        wall_ref_s=wall_ref_s,
        cpu_s=cpu_s,
        cpu_ref_s=cpu_ref_s,
        speed=cpu_ref_s / cpu_s,
        steal_s=steal_s,
        stolen_s=stolen_s,
        probe_samples=sum(t2 <= t < t3 for t, _ in probe.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        sha256=hashlib.sha256(outcome.text.encode("utf-8")).hexdigest(),
        attempted=verdict.attempted,
        failed=verdict.failed,
        exact_share=verdict.exact_dims / (2 * verdict.attempted),
        h2_ratio=verdict.h2_sum / verdict.h2_reference_sum,
        problems=verdict.problems[:20],
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
        layers = spans.layer_metrics(tracer.spans, outcome.reports + tracer.reports)
        parse = [s for s in tracer.spans if s["name"] == "presentation.parse"]
        layers["presentation.parse_s"] = sum(s["end"] - s["start"] for s in parse)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

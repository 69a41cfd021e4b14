"""Tests of the benchmark's own parts: the seeded generator and the span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import spans
import workloads
from hopfcalc import oracle
from hopfcalc.presentation import parse_presentation
from hopfcalc.rewrite import group_order, initial_rules, knuth_bendix

SEEDS = range(12)


def test_same_seed_gives_the_same_oracle_inputs():
    for seed in SEEDS:
        assert workloads.extra_oracle_groups(seed) == workloads.extra_oracle_groups(seed)
    drawn = {repr(workloads.extra_oracle_groups(seed)) for seed in SEEDS}
    assert len(drawn) > 1


def test_generated_groups_stay_within_the_oracle_cap():
    for seed in SEEDS:
        groups = workloads.extra_oracle_groups(seed)
        assert len(groups) == workloads.EXTRA_ABELIAN + len(workloads.DIHEDRAL_SHAPES)
        for name, text, order, dims in groups:
            assert order <= oracle.DEFAULT_CAP, (seed, name)
            rws = knuth_bendix(initial_rules(parse_presentation(text, name=name)))
            assert rws.confluent, (seed, name)
            assert group_order(rws, oracle.DEFAULT_CAP) == order, (seed, name, text)
            assert set(dims) == set(workloads.PRIMES)


def _span(i, name, parent, thread, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "thread": thread,
            "start": start, "end": end, **attrs}


def test_self_times_add_up_to_the_pass_wall_time_across_threads():
    # cli.main hands two cells to two pool threads; while both run, each
    # gets half of the wall clock, and cli.main none (it only waits)
    trace = [
        _span(0, "bench.pass", None, 1, 0.0, 10.0),
        _span(1, "cli.main", 0, 1, 1.0, 9.0),
        _span(2, "hopf.run_pipeline", 1, 2, 2.0, 6.0),
        _span(3, "hopf.run_pipeline", 1, 3, 4.0, 8.0),
        _span(4, "rewrite.knuth_bendix", 3, 3, 4.0, 5.0, kind="cover", rules=9,
              steps=10, confluent=False, max_lhs=3),
    ]
    m = spans.layer_metrics(trace, [])
    assert m["trace.pass_wall_s"] == 10.0
    assert m["unattributed_s"] == 2.0
    assert m["rewrite.self_s"] == 0.5
    # each pipeline alone for 2 s, then side by side with a leaf or
    # with each other for 1 + 1 s
    assert m["hopf.self_s"] == 2.0 + 2.0 + 0.5 + 1.0
    assert m["cli.render_s"] == 1.0
    assert m["cli.self_s"] == 1.0 + 1.0
    assert m["cli.threads"] == 2
    assert m["cli.cells_in_flight"] == 0.8
    assert sum(m[f"{layer}.self_s"] for layer in spans.SELF_LAYERS) + 2.0 == 10.0

    # the worker adds the parse time and run.py the tracing overhead
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in bench["per_layer"]}
    assert declared == set(m) | {"presentation.parse_s", "trace.overhead_s"}

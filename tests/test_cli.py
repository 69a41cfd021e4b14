"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfcalc import cli
from hopfcalc.oracle import OracleUnavailable
from hopfcalc.presentation import corpus
from hopfcalc.rewrite import (
    DEFAULT_BUDGET,
    Budget,
    dump_rules,
    initial_rules,
    knuth_bendix,
)

UB_PRES = "gens: a b\nrel: [a,b]^2\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def use_cpus(monkeypatch, cpus):
    """Make the cell shares see ``cpus`` as this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compute_text_exact(capsys):
    code, out, _ = run(capsys, "compute", "--corpus", "SL2_F2", "--prime", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h1 = 1, h2 = 1 (exact)"
    assert lines[1] == "dim A = 2 (exact), image rank = 1"


def test_compute_text_upper_bound(tmp_path, capsys):
    pres = tmp_path / "csq.pres"
    pres.write_text(UB_PRES, encoding="utf-8")
    code, out, _ = run(capsys, "compute", "--pres", str(pres), "--prime", "2")
    assert code == 0
    assert out.splitlines()[0] == "h1 = 2, h2 ≤ 1"


def test_compute_json(capsys):
    code, out, _ = run(
        capsys, "compute", "--corpus", "SL2_F2", "--prime", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "SL2_F2"
    assert data["h2_value"] == 1
    assert data["h2_kind"] == "exact"
    assert data["candidates"] == [{"coeffs": [0, 1], "word": "a*b*a*b"}]


def test_compute_csv_and_markdown(capsys):
    code, out, _ = run(
        capsys, "compute", "--corpus", "SL2_ZI", "--prime", "2", "--format", "csv"
    )
    assert code == 0
    head, row = out.splitlines()
    assert head.startswith("group,prime,n_generators,h1_dim,dim_A")
    assert row.startswith("SL2_ZI,2,")
    code, out, _ = run(
        capsys, "compute", "--corpus", "SL2_ZI", "--prime", "2", "--format", "markdown"
    )
    assert code == 0
    assert out.splitlines()[0] == "| field | value |"


def test_compute_candidate_listing(capsys):
    code, out, _ = run(
        capsys, "compute", "--corpus", "SL2_F2", "--prime", "2", "--generators"
    )
    assert code == 0
    assert "candidates (1):" in out
    assert "  a*b*a*b  coeffs=0,1" in out


def test_compute_dump_files(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    matrix = tmp_path / "matrix.txt"
    code, _, _ = run(
        capsys,
        "compute", "--corpus", "SL2_F2", "--prime", "2",
        "--dump-rules", str(rules), "--dump-matrix", str(matrix),
    )
    assert code == 0
    assert rules.read_text(encoding="utf-8").startswith("# confluent: true")
    mat_lines = matrix.read_text(encoding="utf-8").splitlines()
    assert mat_lines[0] == "# rows: 2  cols: 2  prime: 2"
    assert len(mat_lines) == 3


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("--corpus", "SL2_F2", "--prime", "2"),
            "de5f9e5bb35e4a3c36d95f0ad78372238ae3044d1b4f180c89c9483e3836b41b",
        ),
        # the base completion stops at its step budget here
        (
            ("--corpus", "SL2Z7Z7_6GEN", "--prime", "7", "--budget-steps", "30000"),
            "bb187ba5580ec33a65adfbea2e415645837fe18889f74c9eadd943f2a2afc6c2",
        ),
    ],
    ids=["SL2_F2-p2", "SL2Z7Z7_6GEN-p7-budget"],
)
def test_dump_rules_is_pinned(tmp_path, capsys, argv, sha256):
    rules = tmp_path / "rules.txt"
    code, _, _ = run(capsys, "compute", *argv, "--dump-rules", str(rules))
    assert code == 0
    assert hashlib.sha256(rules.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "name, p, budget",
    [
        ("SL2_F3", 3, DEFAULT_BUDGET),
        ("GL2_Z", 5, Budget(max_steps=120000)),
        ("SL2Z7Z7_6GEN", 7, Budget(max_steps=30000)),
    ],
    ids=["finite", "budget-limited", "flagship"],
)
def test_dump_rules_leaves_the_record_alone(tmp_path, capsys, name, p, budget):
    argv = ["compute", "--corpus", name, "--prime", str(p), "--format", "json",
            "--budget-steps", str(budget.max_steps)]
    rules = tmp_path / "rules.txt"
    plain = run(capsys, *argv)
    assert plain[0] == 0
    assert run(capsys, *argv, "--dump-rules", str(rules)) == plain
    pres = corpus(name)
    expected = dump_rules(knuth_bendix(initial_rules(pres), budget), pres.generators)
    assert rules.read_text(encoding="utf-8") == expected


def test_dump_rules_is_written_before_the_run(monkeypatch, tmp_path, capsys):
    def failing(pres, p, budget):
        raise ArithmeticError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", failing)
    argv = ["compute", "--corpus", "SL2_F2", "--prime", "2", "--dump-rules"]
    # an unwritable path exits 2 before the pipeline is called
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "rules.txt"))
    assert code == 2
    assert "rules.txt" in err
    # a pipeline that raises leaves the rules file written
    rules = tmp_path / "rules.txt"
    with pytest.raises(ArithmeticError, match="the pipeline ran"):
        cli.main(argv + [str(rules)])
    assert rules.read_text(encoding="utf-8").startswith("# confluent: true")


def test_a_key_error_is_a_fault_not_a_validation_error(monkeypatch):
    # only the documented errors exit 2; a KeyError from inside the run propagates
    def faulty(pres, p, budget):
        raise KeyError("a normal form that is not an element")

    monkeypatch.setattr(cli, "run_pipeline", faulty)
    with pytest.raises(KeyError, match="not an element"):
        cli.main(["compute", "--corpus", "SL2_F2", "--prime", "2"])


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "compute", "--prime", "2")[0] == 1  # no source
    assert (
        run(
            capsys,
            "compute", "--pres", "x", "--corpus", "SL2_F2", "--prime", "2",
        )[0]
        == 1
    )  # two sources
    assert run(capsys, "table", "--corpus", "SL2_ZI", "--primes", "")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "compute", "--corpus", "SL2_F2")[0] == 1  # argparse: no prime


@pytest.mark.parametrize(
    "argv",
    [
        ("simplify", "--corpus", "SL2_F2", "--format", "csv"),
        ("simplify", "--corpus", "SL2_F2", "--format", "markdown"),
        ("oracle-check", "--corpus", "SL2_F2", "--prime", "2", "--format", "markdown"),
    ],
)
def test_formats_a_command_cannot_render_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "invalid choice" in err


def test_oracle_check_csv(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--primes", "2,3", "--format", "csv"
    )
    assert code == 0
    head, *rows = out.splitlines()
    assert head.startswith("group,prime,")
    assert [row.split(",")[:2] for row in rows] == [["SL2_F2", "2"], ["SL2_F2", "3"]]


def test_validation_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "compute", "--corpus", "NOPE", "--prime", "2")[0] == 2
    assert run(capsys, "compute", "--corpus", "SL2_F2", "--prime", "4")[0] == 2
    # prime, but at or above 2^31, where products of residues overflow int64
    assert run(capsys, "compute", "--corpus", "SL2_F2", "--prime", "4294967311")[0] == 2
    missing = tmp_path / "missing.pres"
    assert run(capsys, "compute", "--pres", str(missing), "--prime", "2")[0] == 2
    bad = tmp_path / "bad.pres"
    bad.write_text("gens: a\nrel: a^^2\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "--pres", str(bad), "--prime", "2")
    assert code == 2
    assert "parse error" in err


def test_more_than_128_generators_exit_2(tmp_path, capsys):
    pres = tmp_path / "wide.pres"
    gens = " ".join(f"g{i}" for i in range(129))
    pres.write_text(f"gens: {gens}\nrel: g0*g128\n", encoding="utf-8")
    code, out, err = run(capsys, "compute", "--pres", str(pres), "--prime", "2")
    assert code == 2
    assert out == ""
    assert "at most 128 generators" in err


def test_bad_prime_in_a_list_exits_2(capsys):
    code, out, err = run(capsys, "table", "--corpus", "SL2_F2", "--primes", "2,x")
    assert (code, out) == (2, "")
    assert err == "hopfcalc: error: bad prime 'x'\n"


def test_an_empty_corpus_list_is_a_usage_error(capsys):
    # as an empty prime list is: not the whole corpus
    for corpus_list in ("", " , "):
        code, out, err = run(capsys, "table", "--corpus", corpus_list, "--primes", "2")
        assert (code, out) == (1, "")
        assert err == "hopfcalc: error: empty corpus list\n"


def test_a_repeated_prime_or_group_runs_once(capsys):
    code, out, _ = run(
        capsys, "table", "--corpus", "SL2_ZI,SL2_ZI", "--primes", "3,2,3,02",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "group,prime,h1,h2,h2_kind",
        "SL2_ZI,3,0,0,exact",
        "SL2_ZI,2,1,1,exact",
    ]
    code, out, _ = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--prime", "2", "--primes", "2"
    )
    assert code == 0
    assert out.splitlines() == [
        "SL2_F2 p=2: pipeline h1=1 h2=1  oracle h1=1 h2=1  pass"
    ]


def test_budget_flags_default_to_the_default_budget():
    parser = cli.build_parser()
    for argv in (
        ["compute", "--corpus", "SL2_F2", "--prime", "2"],
        ["table"],
        ["oracle-check", "--corpus", "SL2_F2"],
    ):
        assert parser.parse_args(argv).budget_steps == DEFAULT_BUDGET.max_steps


@pytest.mark.parametrize("flag", ["--budget-rules", "--budget-len"])
@pytest.mark.parametrize("command", [
    ["compute", "--corpus", "SL2_F2", "--prime", "2"],
    ["table"],
    ["oracle-check", "--corpus", "SL2_F2"],
], ids=["compute", "table", "oracle-check"])
def test_removed_budget_flags_are_usage_errors(capsys, command, flag):
    code, out, err = run(capsys, *command, flag, "12")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_compute_stopped_by_the_rule_limit_gives_an_upper_bound(capsys):
    code, out, _ = run(
        capsys, "compute", "--corpus", "SL2_F3", "--prime", "3",
        "--budget-steps", "3000", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["budget"]["base_limited"] is True
    # the oracle's h2 for SL(2,3) at p=3 is 1, so the bound is tight
    assert (record["h2_value"], record["h2_kind"]) == (1, "upper_bound")


def test_zero_budget_limits_exit_2(capsys):
    for value in ("0", "-1"):
        code, out, err = run(
            capsys, "compute", "--corpus", "SL2_F2", "--prime", "2",
            "--budget-steps", value,
        )
        assert code == 2
        assert out == ""
        assert "budget limits must be positive" in err


def test_oracle_unavailable_exits_3(tmp_path, capsys):
    pres = tmp_path / "free.pres"
    pres.write_text("gens: a\n", encoding="utf-8")
    code, _, err = run(capsys, "oracle-check", "--pres", str(pres), "--prime", "2")
    assert code == 3
    assert "oracle unavailable" in err


def test_oracle_check_pass(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--primes", "2,3"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.endswith("pass") for line in lines)


def test_oracle_check_json(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--primes", "2,3", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert [(rep["group"], rep["prime"]) for rep in reports] == [("SL2_F2", 2), ("SL2_F2", 3)]
    assert all(rep["verdict"] == "pass" for rep in reports)


def test_oracle_check_defaults_to_the_primes_up_to_7(capsys):
    code, out, _ = run(capsys, "oracle-check", "--corpus", "SL2_F2")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"SL2_F2 p={p}" for p in (2, 3, 5, 7)
    ]


def test_oracle_unavailable_when_the_base_does_not_complete_exits_3(capsys):
    code, out, err = run(
        capsys, "oracle-check", "--corpus", "SL2_F3", "--prime", "3", "--budget-steps", "10"
    )
    assert (code, out) == (3, "")
    assert "no confluent rewriting system within budget" in err


def test_oracle_check_rejects_a_cap_below_one(tmp_path, capsys):
    pres = tmp_path / "trivial.pres"
    pres.write_text("gens: a\nrel: a\n", encoding="utf-8")
    for cap in ("0", "-3"):
        code, out, err = run(
            capsys, "oracle-check", "--pres", str(pres), "--prime", "2",
            "--max-order", cap,
        )
        assert (code, out) == (2, "")
        assert "cap must be at least 1" in err
    code, _, err = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--prime", "2", "--max-order", "0"
    )
    assert code == 2
    assert "oracle unavailable" not in err


def fake_oracle_check(pres, p, budget=None, cap=None):
    """A report that passes at p=2 and fails at every other prime."""
    return {
        "group": pres.name, "prime": p,
        "pipeline_h1": 0, "pipeline_h2": 0, "pipeline_kind": "exact",
        "oracle_h1": int(p != 2), "oracle_h2": 0,
        "verdict": "pass" if p == 2 else "fail",
    }


def test_oracle_check_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli.oracle, "check", fake_oracle_check)
    code, out, _ = run(capsys, "oracle-check", "--corpus", "SL2_F2", "--prime", "3")
    assert code == 1
    assert out.splitlines()[0].endswith("fail")
    # p=3 is the second cell, checked in a forked process
    use_cpus(monkeypatch, {0, 1})
    code, out, _ = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--primes", "2,3"
    )
    assert code == 1
    assert [line.split()[-1] for line in out.splitlines()] == ["pass", "fail"]
    assert_no_child_left()


def test_oracle_unavailable_in_a_forked_share_exits_3(monkeypatch, capsys):
    def unavailable_at_3(pres, p, budget=None, cap=None):
        if p == 3:
            raise OracleUnavailable("no oracle at p=3")
        return fake_oracle_check(pres, p)

    monkeypatch.setattr(cli.oracle, "check", unavailable_at_3)
    use_cpus(monkeypatch, {0, 1})
    code, out, err = run(
        capsys, "oracle-check", "--corpus", "SL2_F2", "--primes", "2,3"
    )
    assert (code, out) == (3, "")
    assert "oracle unavailable: no oracle at p=3" in err
    assert_no_child_left()


def test_table_markdown_and_bounds(capsys):
    code, out, _ = run(
        capsys,
        "table", "--corpus", "SL2_ZI,SL2_ZOMEGA", "--primes", "2,3",
    )
    assert code == 0
    assert "## h1" in out and "## h2" in out
    assert "| SL2_ZI | 1 | 0 |" in out
    code, out, _ = run(
        capsys, "table", "--corpus", "SL2_ZSQRTM5", "--primes", "2"
    )
    assert code == 0
    assert "≤" in out  # budget-limited cells carry the bound marker


def test_table_csv_and_json(capsys):
    code, out, _ = run(
        capsys,
        "table", "--corpus", "SL2_ZI", "--primes", "2,3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group,prime,h1,h2,h2_kind"
    assert lines[1] == "SL2_ZI,2,1,1,exact"
    code, out, _ = run(
        capsys,
        "table", "--corpus", "SL2_ZI", "--primes", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"group": "SL2_ZI", "prime": 2, "h1_dim": 1, "h2_value": 1, "h2_kind": "exact"}
    ]


def test_table_output_is_byte_identical_across_cpu_counts(monkeypatch, capsys):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ("table", "--corpus", "SL2_ZI,SL2_ZOMEGA", "--primes", "2,3")
    for fmt in ("json", "csv", "markdown", "text"):
        use_cpus(monkeypatch, {0})
        one = run(capsys, *argv, "--format", fmt)
        use_cpus(monkeypatch, {0, 1})
        assert run(capsys, *argv, "--format", fmt) == one, fmt
        assert one[0] == 0
    assert len(forks) == 4  # one child per two-CPU run
    assert_no_child_left()


def test_table_raises_the_first_failing_cell_from_a_forked_share(monkeypatch):
    # two shares: the parent runs cells 0 and 2, a child runs cell 1
    real = cli.run_pipeline

    def failing(pres, p, budget):
        if pres.name != "SL2_F2":
            raise ArithmeticError(f"{pres.name} p={p} failed")
        return real(pres, p, budget)

    monkeypatch.setattr(cli, "run_pipeline", failing)
    use_cpus(monkeypatch, {0, 1})
    argv = ["table", "--corpus", "SL2_F2,SL2_ZI,SL2_F3", "--primes", "2"]
    with pytest.raises(ArithmeticError, match="^SL2_ZI p=2 failed$"):
        cli.main(argv)
    assert_no_child_left()


def exit_at_once():
    os._exit(1)


def raise_unpicklable():
    raise ArithmeticError(lambda: None)


@pytest.mark.parametrize("death", [exit_at_once, raise_unpicklable])
def test_table_reports_a_forked_share_that_dies(monkeypatch, death):
    real = cli.run_pipeline
    parent = os.getpid()

    def dying(pres, p, budget):
        if os.getpid() != parent:
            death()
        return real(pres, p, budget)

    monkeypatch.setattr(cli, "run_pipeline", dying)
    use_cpus(monkeypatch, {0, 1})
    argv = ["table", "--corpus", "SL2_F2,SL2_ZI", "--primes", "2"]
    died = r"cells \[\('SL2_ZI', 2\)\] exited with status 1 before"
    with pytest.raises(RuntimeError, match=died):
        cli.main(argv)
    assert_no_child_left()


def test_table_on_one_cpu_does_not_fork(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    use_cpus(monkeypatch, {0})
    code, out, _ = run(capsys, "table", "--corpus", "SL2_F2,SL2_ZI", "--primes", "2,3")
    assert code == 0
    assert "| SL2_ZI | 1 | 0 |" in out
    assert_no_child_left()


def test_simplify_with_map(tmp_path, capsys):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: a b\nrel: a*b\nrel: b^2\n", encoding="utf-8")
    mapfile = tmp_path / "m.sub"
    mapfile.write_text("targets: x y\nmap: a -> x*y\nmap: b -> y^-1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "simplify", "--pres", str(pres), "--map", str(mapfile)
    )
    assert code == 0
    assert out == "gens: x y\nrel: x\nrel: y^-2\n"


def test_simplify_identity_map_keeps_the_presentation(capsys):
    code, out, _ = run(capsys, "simplify", "--corpus", "SL2_F2")
    assert code == 0
    assert out == "gens: a b\nrel: a^2\nrel: b^3\nrel: a*b*a*b\n"


def test_simplify_map_mismatch_exits_2(tmp_path, capsys):
    mapfile = tmp_path / "m.sub"
    mapfile.write_text("targets: x\nmap: q -> x\n", encoding="utf-8")
    code, _, _ = run(capsys, "simplify", "--corpus", "SL2_F2", "--map", str(mapfile))
    assert code == 2


def test_simplify_json(capsys):
    code, out, _ = run(
        capsys, "simplify", "--corpus", "SL2_F2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["a", "b"]
    assert data["relators"] == ["a^2", "b^3", "a*b*a*b"]


def test_compute_output_is_byte_identical_across_runs(capsys):
    argv = ("compute", "--corpus", "SL2_F3", "--prime", "3", "--format", "json")
    assert run(capsys, *argv) == run(capsys, *argv)


def test_module_entry_point():
    # the child process imports the package the tests import, installed or not
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcalc", "compute", "--corpus", "SL2_ZI", "--prime", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "h1 = 1, h2 = 1 (exact)"

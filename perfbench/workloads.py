"""The benchmark workloads: input, the call into hopfcalc, and the answer check.

Each workload has three steps.  ``load(seed)`` parses the input; it runs
during set-up, so parse time counts in ``setup_s``.  ``run(inputs, span)``
is the timed pass; ``span`` opens a trace span around a call into a layer
(a no-op in untraced passes).  ``check(inputs, outcome)`` compares the
pass output with answers known independently of this run.

Only ``oracle-suite`` depends on the seed; the other three are fixed
corpus inputs.  Every workload is a slice of a longer ROADMAP run,
sized so that one pass takes a few seconds; README.md gives the reasons.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hopfcalc import cli, oracle, words
from hopfcalc.hopf import BoundKind, run_pipeline, to_json
from hopfcalc.presentation import corpus, parse_presentation, parse_word, render_word
from hopfcalc.rewrite import Budget

PRIMES = (2, 3, 5, 7)

# The flagship at the default budget takes over a minute; this budget
# keeps its shape (base and cover completions both budget-limited, the
# spanning search the largest stage) at a few seconds per pass.
FLAGSHIP_BUDGET = Budget(max_steps=30_000)
GRID_NAMES = ("GL2_Z", "SL2_Z", "PSL2_Z")
GRID_PRIMES = (5, 7)
GRID_ARGV = (
    "table", "--corpus", ",".join(GRID_NAMES),
    "--primes", ",".join(map(str, GRID_PRIMES)),
    "--format", "json", "--budget-steps", "120000",
)
COVER_DEEP_ARGV = (
    "compute", "--corpus", "PSL2_Z", "--prime", "2",
    "--budget-steps", "100000", "--format", "json",
)

# h1 over the corpus, columns p = 2, 3, 5, 7 (criterion 1 of the test suite)
H1_TABLE = {
    "GL2_Z": (2, 0, 0, 0),
    "SL2_Z": (1, 1, 0, 0),
    "PSL2_Z": (1, 1, 0, 0),
}
# h2 references (value, "exact" | "ub") from criterion 3 of the test
# suite.  PSL2_Z = Z/2 * Z/3, so H2 of the free product is
# H2(Z/2) + H2(Z/3): 1 at p = 2 and p = 3, 0 otherwise.
H2_REFERENCE = {
    "GL2_Z": ((4, "ub"), (2, "ub"), (2, "ub"), (2, "ub")),
    "SL2_Z": ((2, "ub"), (2, "ub"), (1, "ub"), (1, "ub")),
    "PSL2_Z": ((1, "exact"), (1, "exact"), (0, "exact"), (0, "exact")),
}

# sample drawn per seed for oracle-suite: two abelian groups Z_m x Z_n
# of order 12 and the dihedral groups of order 6 and 8, each presented
# with its relators rotated, maybe inverted, and shuffled.  The oracle's
# cost depends on the group: over the four primes it takes 0.07 s for
# Z2xZ4 but 0.8 s for D4.  Drawing the shapes from all orders 8 to 12
# moved a pass's time by up to a quarter with the seed; with these
# shapes the draws differ by about 0.15 s.
EXTRA_ABELIAN = 2
ABELIAN_SHAPES = ((2, 6), (3, 4))
DIHEDRAL_SHAPES = (3, 4)


@dataclass
class Outcome:
    """What one pass produced: its canonical output text and budget reports."""

    text: str
    reports: list = field(default_factory=list)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    exact_dims: int = 0
    h2_sum: int = 0
    h2_reference_sum: int = 0
    problems: list = field(default_factory=list)

    def cell(self, ok: bool, h2: int, h2_exact: bool, h2_reference: int, what: str) -> None:
        """Count one checked cell; h1 is always exact, h2 sometimes."""
        self.attempted += 1
        self.exact_dims += 1 + int(h2_exact)
        self.h2_sum += h2
        self.h2_reference_sum += h2_reference
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass(frozen=True)
class Workload:
    load: Callable
    run: Callable
    check: Callable


def _h2_ok(value: int, exact: bool, ref: tuple[int, str]) -> bool:
    ref_value, ref_kind = ref
    if ref_kind == "exact":
        return value == ref_value if exact else value >= ref_value
    # a reference upper bound: an exact value may only sharpen it
    return value <= ref_value if exact else value >= 0


def _call_cli(argv, span) -> str:
    buf = io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"hopfcalc {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# flagship


def _load_flagship(seed: int):
    golden = Path("tests/golden/sl2z7z7_p7.json").read_text(encoding="utf-8")
    return corpus("SL2Z7Z7_6GEN"), json.loads(golden)


def _run_flagship(inputs, span) -> Outcome:
    pres, _ = inputs
    with span("hopf.run_pipeline"):
        res = run_pipeline(pres, 7, FLAGSHIP_BUDGET)
    text = json.dumps(to_json(res), indent=2, ensure_ascii=False)
    return Outcome(text, [res.budget_report])


def _check_flagship(inputs, out: Outcome) -> Verdict:
    _, golden = inputs
    record = json.loads(out.text)
    # the budget block records this slice's own smaller budget; every
    # other key must match the default-budget golden record
    diff = sorted(k for k in golden if k != "budget" and record.get(k) != golden[k])
    v = Verdict()
    v.cell(
        not diff,
        record["h2_value"],
        record["h2_kind"] == BoundKind.EXACT.value,
        golden["h2_value"],
        f"flagship differs from the golden record in {diff}",
    )
    return v


# ---------------------------------------------------------------------------
# grid-bounded and cover-deep


def _load_corpus_names(names):
    def load(seed: int):
        return [corpus(name) for name in names]

    return load


def _run_grid(inputs, span) -> Outcome:
    return Outcome(_call_cli(GRID_ARGV, span))


def _check_grid(inputs, out: Outcome) -> Verdict:
    printed = {(rec["group"], rec["prime"]): rec for rec in json.loads(out.text)}
    v = Verdict()
    for pres in inputs:
        for p in GRID_PRIMES:
            col = PRIMES.index(p)
            ref = H2_REFERENCE[pres.name][col]
            rec = printed.get((pres.name, p))
            if rec is None:
                v.cell(False, 0, False, ref[0], f"grid printed no cell {pres.name} p={p}")
                continue
            exact = rec["h2_kind"] == BoundKind.EXACT.value
            ok = rec["h1_dim"] == H1_TABLE[pres.name][col] and _h2_ok(
                rec["h2_value"], exact, ref
            )
            v.cell(ok, rec["h2_value"], exact, ref[0], f"grid cell {pres.name} p={p}: {rec}")
    return v


def _run_cover_deep(inputs, span) -> Outcome:
    text = _call_cli(COVER_DEEP_ARGV, span)
    return Outcome(text, [json.loads(text)["budget"]])


def _check_cover_deep(inputs, out: Outcome) -> Verdict:
    rec = json.loads(out.text)
    ref = H2_REFERENCE["PSL2_Z"][0]
    exact = rec["h2_kind"] == BoundKind.EXACT.value
    ok = (
        rec["h1_dim"] == H1_TABLE["PSL2_Z"][0]
        and _h2_ok(rec["h2_value"], exact, ref)
        and rec["h2_value"] == rec["dim_A"] - rec["rank_image"]
    )
    v = Verdict()
    v.cell(ok, rec["h2_value"], exact, ref[0], f"cover-deep PSL2_Z p=2: {rec}")
    return v


# ---------------------------------------------------------------------------
# oracle-suite


def _abelian_dims(m: int, n: int, p: int) -> tuple[int, int]:
    """(h1, h2) of Z_m x Z_n over F_p by the Kuenneth formula.

    H1 = Z_m + Z_n and H2(;Z) = Z_gcd(m,n); universal coefficients give
    h2 = dim(H2 (x) F_p) + dim Tor(H1, F_p).
    """
    h1 = (m % p == 0) + (n % p == 0)
    return h1, h1 + (math.gcd(m, n) % p == 0)


def _dihedral_dims(k: int, p: int) -> tuple[int, int]:
    """(h1, h2) of the dihedral group of order 2k over F_p.

    H1 is Z/2 (k odd) or (Z/2)^2 (k even), H2(;Z) is 0 or Z/2, so all
    mod-p homology in degrees 1 and 2 is 2-primary.
    """
    if p != 2:
        return 0, 0
    return (2, 3) if k % 2 == 0 else (1, 1)


# the criterion-6 groups of the test suite; expected (h1, h2) per prime
# from the group structure.  SL2_F3 is binary tetrahedral: H1 = Z/3 and
# H2(;Z) = 0.  Q8: H1 = (Z/2)^2 and H2(;Z) = 0.
FIXED_ORACLE_CASES = (
    *((f"Z{n}", f"gens: a\nrel: a^{n}\n", PRIMES) for n in range(1, 13)),
    ("V4", "gens: a b\nrel: a^2\nrel: b^2\nrel: [a,b]\n", PRIMES),
    ("Q8", "gens: a b\nrel: a^4\nrel: a^2*b^-2\nrel: b^-1*a*b*a\n", PRIMES),
    ("SL2_F2", None, PRIMES),
    # SL2_F3 at p = 5, 7 spends 16 s in cover completion, which the
    # completion workloads already measure
    ("SL2_F3", None, (2, 3)),
)


def _fixed_dims(name: str, p: int) -> tuple[int, int]:
    if name.startswith("Z"):
        return _abelian_dims(1, int(name[1:]), p)
    if name == "V4":
        return _abelian_dims(2, 2, p)
    if name == "Q8":
        return (2, 2) if p == 2 else (0, 0)
    if name == "SL2_F2":
        return _dihedral_dims(3, p)
    if name == "SL2_F3":
        return (1, 1) if p == 3 else (0, 0)
    raise KeyError(name)


def _shuffle_relators(rng: random.Random, gens: tuple[str, ...], rels: list[str]) -> str:
    """Presentation text with each relator rotated and maybe inverted.

    Every relator given here is cyclically reduced, so each rotation is
    again freely reduced and has the same normal closure.
    """
    lines = []
    for text in rels:
        w = parse_word(text, gens)
        k = rng.randrange(len(w))
        w = w[k:] + w[:k]
        if rng.random() < 0.5:
            w = words.invert(w)
        lines.append(f"rel: {render_word(w, gens)}")
    rng.shuffle(lines)
    return "\n".join([f"gens: {' '.join(gens)}", *lines]) + "\n"


def extra_oracle_groups(seed: int) -> list[tuple[str, str, int, dict]]:
    """The seed's sample: (name, presentation text, order, {p: (h1, h2)})."""
    rng = random.Random(seed)
    out = []
    for m, n in (rng.choice(ABELIAN_SHAPES) for _ in range(EXTRA_ABELIAN)):
        text = _shuffle_relators(rng, ("a", "b"), [f"a^{m}", f"b^{n}", "[a,b]"])
        dims = {p: _abelian_dims(m, n, p) for p in PRIMES}
        out.append((f"Z{m}xZ{n}", text, m * n, dims))
    for k in DIHEDRAL_SHAPES:
        text = _shuffle_relators(rng, ("r", "s"), [f"r^{k}", "s^2", "(s*r)^2"])
        dims = {p: _dihedral_dims(k, p) for p in PRIMES}
        out.append((f"D{k}", text, 2 * k, dims))
    return out


def _load_oracle(seed: int):
    cases = []
    for name, text, primes in FIXED_ORACLE_CASES:
        pres = corpus(name) if text is None else parse_presentation(text, name=name)
        cases.append((pres, {p: _fixed_dims(name, p) for p in primes}))
    for name, text, _, dims in extra_oracle_groups(seed):
        cases.append((parse_presentation(text, name=name), dims))
    return cases


def _run_oracle(cases, span) -> Outcome:
    reports = []
    for pres, dims in cases:
        for p in dims:
            with span("oracle.check"):
                reports.append(oracle.check(pres, p))
    return Outcome(json.dumps(reports, indent=2, ensure_ascii=False))


def _check_oracle(cases, out: Outcome) -> Verdict:
    reports = iter(json.loads(out.text))
    v = Verdict()
    for pres, dims in cases:
        for p, expected in dims.items():
            rep = next(reports, None)
            if rep is None:
                v.cell(False, 0, False, expected[1], f"no oracle report for {pres.name} p={p}")
                continue
            ok = (
                rep["verdict"] == "pass"
                and rep["prime"] == p
                and (rep["oracle_h1"], rep["oracle_h2"]) == expected
            )
            exact = rep["pipeline_kind"] == BoundKind.EXACT.value
            v.cell(ok, rep["pipeline_h2"], exact, expected[1], f"oracle {pres.name} p={p}: {rep}")
    return v


WORKLOADS = {
    "flagship": Workload(_load_flagship, _run_flagship, _check_flagship),
    "grid-bounded": Workload(_load_corpus_names(GRID_NAMES), _run_grid, _check_grid),
    "cover-deep": Workload(
        _load_corpus_names(("PSL2_Z",)), _run_cover_deep, _check_cover_deep
    ),
    "oracle-suite": Workload(_load_oracle, _run_oracle, _check_oracle),
}

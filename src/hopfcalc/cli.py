"""Command-line front end.

Four subcommands: ``compute`` runs the pipeline on one presentation at
one prime, ``table`` regenerates the h1/h2 grids over the corpus,
``simplify`` applies a substitution map and tidies the relators, and
``oracle-check`` compares pipeline answers against the Fox-calculus
oracle on finite groups.  Every result comes from one ``run_pipeline``
call per cell.  ``table`` and ``oracle-check`` run their cells in one
forked share per CPU in the process's affinity mask (``taskset -c 0
hopfcalc table ...`` runs them all in one process); the output is
byte-identical across runs and CPU counts.  Exit codes: 0 success, 1
usage or failed check, 2 parse or validation error, 3 oracle
unavailable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import pickle
import sys
from pathlib import Path

from . import oracle
from .hopf import BoundKind, HopfResult, image_matrix, run_pipeline, to_json
from .presentation import (
    ParseError,
    Presentation,
    apply_substitution,
    corpus,
    corpus_names,
    parse_presentation,
    parse_substitution,
    render_presentation,
    render_word,
    simplify,
)
from .rewrite import DEFAULT_BUDGET, Budget, dump_rules, initial_rules, knuth_bendix

FORMATS = ("text", "json", "csv", "markdown")
DEFAULT_PRIMES = (2, 3, 5, 7)


class UsageError(Exception):
    """Bad flag combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for
    # parse errors, so route through exit code 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_source_flags(sp):
    sp.add_argument("--pres", metavar="FILE", help="presentation file")
    sp.add_argument(
        "--corpus", metavar="NAME", help="built-in corpus entry (see table --help)"
    )


def _add_budget_flags(sp):
    sp.add_argument("--budget-rules", type=int, metavar="N", default=DEFAULT_BUDGET.max_rules)
    sp.add_argument("--budget-len", type=int, metavar="N", default=DEFAULT_BUDGET.max_rule_length)
    sp.add_argument("--budget-steps", type=int, metavar="N", default=DEFAULT_BUDGET.max_steps)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopfcalc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="one presentation, one prime")
    _add_source_flags(c)
    c.add_argument("--prime", type=int, required=True)
    c.add_argument(
        "--generators", action="store_true", help="also list candidate words"
    )
    c.add_argument("--format", choices=FORMATS, default="text")
    _add_budget_flags(c)
    c.add_argument("--dump-matrix", metavar="FILE", default=None)
    c.add_argument("--dump-rules", metavar="FILE", default=None)
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser("table", help="h1/h2 grids over corpus entries")
    t.add_argument(
        "--corpus",
        metavar="NAMES",
        default=None,
        help="comma-separated corpus entries (default: all)",
    )
    t.add_argument("--primes", metavar="P1,P2,...", default=None)
    t.add_argument("--format", choices=FORMATS, default="markdown")
    _add_budget_flags(t)
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("simplify", help="substitute generators and tidy relators")
    _add_source_flags(s)
    s.add_argument("--map", metavar="FILE", default=None, help="substitution map file")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_simplify)

    o = sub.add_parser("oracle-check", help="compare pipeline against the oracle")
    _add_source_flags(o)
    o.add_argument("--prime", type=int, default=None)
    o.add_argument("--primes", metavar="P1,P2,...", default=None)
    o.add_argument("--max-order", type=int, default=oracle.DEFAULT_CAP)
    o.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_budget_flags(o)
    o.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse handles --help and usage failures by exiting; fold
        # that into the return-code contract instead of letting it
        # propagate past callers that invoke main() directly
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"hopfcalc: error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"hopfcalc: parse error: {e}", file=sys.stderr)
        return 2
    except oracle.OracleUnavailable as e:
        print(f"hopfcalc: oracle unavailable: {e}", file=sys.stderr)
        return 3
    except KeyError as e:
        print(f"hopfcalc: error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"hopfcalc: error: {e}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# shared plumbing


def _load_presentation(args) -> Presentation:
    if bool(args.pres) == bool(args.corpus):
        raise UsageError("exactly one of --pres or --corpus is required")
    if args.pres:
        path = Path(args.pres)
        return parse_presentation(path.read_text("utf-8"), name=path.stem)
    return corpus(args.corpus)


def _budget(args) -> Budget:
    return Budget(
        max_rules=args.budget_rules,
        max_rule_length=args.budget_len,
        max_steps=args.budget_steps,
    )


def _comma_list(raw: str, what: str) -> list[str]:
    """The non-blank items of a comma-separated flag value, each once.

    A repeated item keeps the place of its first occurrence.
    """
    items = list(dict.fromkeys(t.strip() for t in raw.split(",") if t.strip()))
    if not items:
        raise UsageError(f"empty {what} list")
    return items


def _parse_primes(args) -> list[int]:
    prime = getattr(args, "prime", None)  # table has only --primes
    out = [] if prime is None else [prime]
    if args.primes is not None:
        for t in _comma_list(args.primes, "prime"):
            try:
                out.append(int(t))
            except ValueError:
                raise ValueError(f"bad prime {t!r}") from None
    # a prime given twice, as --prime and in --primes or as 2 and 02, runs once
    return list(dict.fromkeys(out)) or list(DEFAULT_PRIMES)


def _share(func, items, start: int, step: int):
    """``func`` over ``items[start::step]`` in order, up to the first exception.

    Returns the results and ``None``, or the results so far and
    ``(index, exception)`` for the first cell that raised.
    """
    out = []
    for i in range(start, len(items), step):
        try:
            out.append(func(items[i]))
        except Exception as e:
            return out, (i, e)
    return out, None


def _map_shares(func, items) -> list:
    """``[func(x) for x in items]``, in one share per CPU this process may use.

    Share w is ``items[w::workers]``.  The parent runs share 0; each
    other share runs in an ``os.fork()``ed child, which pickles its
    results, or its first exception and that cell's index, to a pipe and
    leaves through ``os._exit``.  Results come back in the order of
    ``items``, and the exception raised is the first failing cell's, as
    a loop would raise it.  The parent reaps every child even when its
    own share raises.

    Forking is safe here: the cells run pure Python and element-wise
    numpy with no BLAS call, the children write nothing to stdout, and
    ``os._exit`` flushes no buffer a second time.
    """
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = max(1, min(len(items), len(os.sched_getaffinity(0)) if usable else 1))
    children, shares = [], {}
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(wfd, "wb") as f:
                        pickle.dump(_share(func, items, w, workers), f)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            children.append((w, pid, r))
        shares[0] = _share(func, items, 0, workers)
    finally:
        reports = []
        for w, pid, r in children:
            with os.fdopen(r, "rb") as f:
                data = f.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reports.append((w, data, status))
    for w, data, status in reports:
        shares[w] = pickle.loads(data) if status == 0 else ([], (w, RuntimeError(
            f"the process running cells {items[w::workers]} exited with status "
            f"{status} before reporting a result"
        )))
    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    out = [None] * len(items)
    for w, (done, _) in shares.items():
        out[w::workers] = done
    return out


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _bounded(value: int, kind: BoundKind) -> str:
    return str(value) if kind is BoundKind.EXACT else f"≤{value}"


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    pres = _load_presentation(args)
    budget = _budget(args)
    # with --dump-rules the base is completed here, once, for the
    # pipeline and the dump; else the pipeline completes it
    base = knuth_bendix(initial_rules(pres), budget) if args.dump_rules else None
    result = run_pipeline(pres, args.prime, budget, base=base)
    if base is not None:
        Path(args.dump_rules).write_text(
            dump_rules(base, pres.generators), encoding="utf-8"
        )
    if args.dump_matrix:
        mat = image_matrix(result.spanning_set, pres.arity, args.prime)
        lines = [f"# rows: {mat.shape[0]}  cols: {mat.shape[1]}  prime: {args.prime}"]
        lines.extend(" ".join(str(int(x)) for x in row) for row in mat)
        Path(args.dump_matrix).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(_render_compute(result, args.format, args.generators))
    return 0


def _render_compute(r: HopfResult, fmt: str, with_candidates: bool) -> str:
    record = to_json(r)
    if fmt == "json":
        return json.dumps(record, indent=2, ensure_ascii=False) + "\n"
    scalars = [
        (k, "" if v is None else v)
        for k, v in record.items()
        if not isinstance(v, (list, dict))
    ]
    if fmt == "csv":
        return _csv(zip(*scalars))
    if fmt == "markdown":
        rows = [[k, str(v)] for k, v in scalars]
        return "\n".join(_md_table(["field", "value"], rows)) + "\n"
    exact = r.h2_kind is BoundKind.EXACT
    h2 = f"h2 = {r.h2_value} (exact)" if exact else f"h2 ≤ {r.h2_value}"
    da = f"dim A = {r.dim_a} (exact)" if exact else f"dim A ≤ {r.dim_a}"
    lines = [
        f"h1 = {r.h1_dim}, {h2}",
        f"{da}, image rank = {r.rank_image}",
    ]
    if with_candidates:
        lines.append(f"candidates ({len(r.candidates)}):")
        for coeffs, word in r.candidates:
            rendered = render_word(word, r.generators)
            lines.append(f"  {rendered}  coeffs={','.join(map(str, coeffs))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    # an empty --corpus is a usage error, as an empty --primes is
    names = (
        list(corpus_names()) if args.corpus is None else _comma_list(args.corpus, "corpus")
    )
    primes = _parse_primes(args)
    budget = _budget(args)
    loaded = {name: corpus(name) for name in names}
    cells = [(name, p) for name in names for p in primes]
    done = _map_shares(
        lambda cell: run_pipeline(loaded[cell[0]], cell[1], budget), cells
    )
    sys.stdout.write(_render_table(names, primes, dict(zip(cells, done)), args.format))
    return 0


def _render_table(names, primes, results, fmt: str) -> str:
    rows = [
        [name, p, r.h1_dim, r.h2_value, r.h2_kind.value]
        for name in names
        for p in primes
        for r in [results[name, p]]
    ]
    if fmt == "json":
        keys = ["group", "prime", "h1_dim", "h2_value", "h2_kind"]
        records = [dict(zip(keys, row)) for row in rows]
        return json.dumps(records, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        return _csv([["group", "prime", "h1", "h2", "h2_kind"]] + rows)
    header = ["group"] + [f"p={p}" for p in primes]
    h1_rows = [
        [name] + [str(results[name, p].h1_dim) for p in primes] for name in names
    ]
    h2_rows = [
        [name]
        + [_bounded(results[name, p].h2_value, results[name, p].h2_kind) for p in primes]
        for name in names
    ]
    if fmt == "markdown":
        out = ["## h1", ""]
        out.extend(_md_table(header, h1_rows))
        out.extend(["", "## h2", ""])
        out.extend(_md_table(header, h2_rows))
        return "\n".join(out) + "\n"
    out = ["h1"]
    out.extend(_aligned(header, h1_rows))
    out.append("h2")
    out.extend(_aligned(header, h2_rows))
    return "\n".join(out) + "\n"


def _md_table(header, rows) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _aligned(header, rows) -> list[str]:
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    out = []
    for r in table:
        cells = [r[0].ljust(widths[0])] + [
            r[i].rjust(widths[i]) for i in range(1, len(r))
        ]
        out.append("  ".join(cells).rstrip())
    return out


# ---------------------------------------------------------------------------
# simplify


def cmd_simplify(args) -> int:
    pres = _load_presentation(args)
    if args.map:
        m = parse_substitution(Path(args.map).read_text("utf-8"))
        pres = apply_substitution(pres, m)
    out = simplify(pres)
    if args.format == "json":
        record = {
            "generators": list(out.generators),
            "relators": [render_word(r, out.generators) for r in out.relators],
        }
        sys.stdout.write(json.dumps(record, indent=2, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write(render_presentation(out))
    return 0


# ---------------------------------------------------------------------------
# oracle-check


def cmd_oracle_check(args) -> int:
    pres = _load_presentation(args)
    primes = _parse_primes(args)
    budget = _budget(args)
    reports = _map_shares(
        lambda p: oracle.check(pres, p, budget, cap=args.max_order), primes
    )
    if args.format == "json":
        sys.stdout.write(json.dumps(reports, indent=2, ensure_ascii=False) + "\n")
    elif args.format == "csv":
        keys = list(reports[0])
        sys.stdout.write(_csv([keys] + [[rep[k] for k in keys] for rep in reports]))
    else:
        lines = []
        for rep in reports:
            kind = "=" if rep["pipeline_kind"] == "exact" else "≤"
            lines.append(
                f"{rep['group'] or '?'} p={rep['prime']}: "
                f"pipeline h1={rep['pipeline_h1']} h2{kind}{rep['pipeline_h2']}  "
                f"oracle h1={rep['oracle_h1']} h2={rep['oracle_h2']}  "
                f"{rep['verdict']}"
            )
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(rep["verdict"] == "pass" for rep in reports) else 1

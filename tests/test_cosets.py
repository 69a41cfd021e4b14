"""Coset enumeration of finite groups and their p-covers."""

import ast
import dataclasses
import time
from pathlib import Path

import pytest

from hopfcalc import cosets
from hopfcalc.hopf import ORDER_CAP, BoundKind, build_p_cover, run_pipeline
from hopfcalc.presentation import Presentation, corpus, parse_presentation
from hopfcalc.rewrite import group_order, initial_rules, knuth_bendix

FINITE_CORPUS = ("SL2_F2", "SL2_F3", "SL2_F5", "SL2_ZI", "SL2_ZOMEGA")
Z6 = parse_presentation("gens: a\nrel: a^6\n", name="Z6")
Q8 = parse_presentation("gens: a b\nrel: a^4\nrel: a^2*b^-2\nrel: b^-1*a*b*a\n", name="Q8")
SMALL = [
    *(parse_presentation(f"gens: a\nrel: a^{n}\n", name=f"Z{n}") for n in (1, 2, 12)),
    Z6,
    parse_presentation("gens: a b\nrel: a^2\nrel: b^2\nrel: [a,b]\n", name="V4"),
    Q8,
    parse_presentation("gens: r s\nrel: r^4\nrel: s^2\nrel: (s*r)^2\n", name="D4"),
    parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: (a*b)^3\n", name="A4"),
]
BINARY_ICOSAHEDRAL = parse_presentation(
    "gens: a b\nrel: a^2*b^-3\nrel: a^2*(a*b)^-5\nrel: a^4\n", name="2I"
)


def enumerate_all(pres, max_definitions=2_000_000, cap=ORDER_CAP):
    return cosets.enumerate_cosets(pres.relators, pres.arity, max_definitions, cap)


def finite_presentations():
    """The finite bases tier-1 completes, and their covers at p = 2, 3."""
    bases = [corpus(name) for name in FINITE_CORPUS] + SMALL
    return bases + [build_p_cover(pres, p) for pres in bases for p in (2, 3)]


def test_every_column_is_a_permutation_that_its_inverse_undoes():
    for pres in finite_presentations():
        table = enumerate_all(pres)
        n = table.order
        assert len(table.columns) == 2 * pres.arity
        for x, column in enumerate(table.columns):
            assert sorted(column) == list(range(n)), (pres.name, x)
            assert [table.columns[x ^ 1][c] for c in column] == list(range(n))
        cosets.check_table(table, pres.relators)


def test_enumerated_order_equals_the_counted_order():
    for pres in finite_presentations():
        rws = knuth_bendix(initial_rules(pres))
        assert rws.confluent, pres.name
        assert enumerate_all(pres).order == group_order(rws, ORDER_CAP), pres.name


def test_the_trivial_group_on_no_generators_has_one_coset():
    table = cosets.enumerate_cosets((), 0, 10, ORDER_CAP)
    assert (table.order, table.columns, table.definitions) == (1, (), 0)
    cosets.check_table(table, ())
    res = run_pipeline(Presentation((), (), name="1"), 2)
    assert (res.budget_report["cover_order"], res.h2_value, res.h2_kind) == (
        1, 0, BoundKind.EXACT
    )


def test_the_identity_is_coset_zero_and_a_word_walks_to_its_element():
    table = enumerate_all(Q8)
    assert table.order == 8
    for w in Q8.relators:
        assert cosets.walk(table, 0, w) == 0
    a, b = (0,), (2,)
    # a^2 = b^2 is central of order 2, and ab = b a^-1
    assert cosets.walk(table, 0, a * 2) == cosets.walk(table, 0, b * 2) != 0
    assert cosets.walk(table, 0, a + b) == cosets.walk(table, 0, b + (1,))


@pytest.mark.parametrize(
    "pres",
    [
        parse_presentation("gens: a b\n", name="F2"),
        parse_presentation("gens: a b\nrel: [a,b]\n", name="Z2"),
        corpus("GL2_Z"),
        corpus("SL2Z7Z7_6GEN"),
    ],
    ids=lambda pres: pres.name,
)
def test_an_infinite_group_gives_up_within_a_small_budget(pres):
    start = time.process_time()
    assert enumerate_all(pres, max_definitions=20_000) is None
    assert time.process_time() - start < 1.0


def test_the_definitions_stop_at_their_limit():
    cover = build_p_cover(corpus("SL2_F3"), 3)
    table = enumerate_all(cover)
    assert table.order == 216
    assert enumerate_all(cover, max_definitions=table.definitions) == table
    assert enumerate_all(cover, max_definitions=table.definitions - 1) is None


def test_a_table_over_the_cap_gives_up():
    z30 = parse_presentation("gens: a\nrel: a^30\n", name="Z30")
    assert enumerate_all(z30, cap=29) is None
    assert enumerate_all(z30, cap=30).order == 30


def test_the_lookahead_keeps_the_table():
    # a cap equal to the order leaves HLT too little space: it runs
    # lookaheads, renumbers the cosets, and still completes
    cover = build_p_cover(BINARY_ICOSAHEDRAL, 3)
    roomy = enumerate_all(cover)
    tight = enumerate_all(cover, cap=roomy.order)
    assert tight.order == roomy.order == 1080
    assert tight.definitions < roomy.definitions
    cosets.check_table(tight, cover.relators)


def test_a_table_that_is_not_an_action_of_the_relators_is_refused():
    table = enumerate_all(Z6)
    cosets.check_table(table, Z6.relators)
    # a^3 moves every coset of Z6
    with pytest.raises(ArithmeticError, match="relator 0 moves"):
        cosets.check_table(table, ((0, 0, 0),))
    shift, back = table.columns
    with pytest.raises(ArithmeticError, match="does not undo"):
        cosets.check_table(dataclasses.replace(table, columns=(shift, shift)), ())
    clash = (shift[:-1] + (shift[0],), back)
    with pytest.raises(ArithmeticError, match="does not undo"):
        cosets.check_table(dataclasses.replace(table, columns=clash), ())
    out_of_range = (shift, back[:-1] + (6,))
    with pytest.raises(ArithmeticError, match="not a map"):
        cosets.check_table(dataclasses.replace(table, columns=out_of_range), ())
    with pytest.raises(ArithmeticError, match="not a map"):
        cosets.check_table(dataclasses.replace(table, order=7), ())


def test_cosets_imports_nothing_from_the_rewriting_engine():
    source = Path(cosets.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert imported
    for name in imported:
        parts = name.split(".")
        assert "rewrite" not in parts and "automaton" not in parts, name

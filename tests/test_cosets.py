"""Coset enumeration of finite groups and their p-covers."""

import ast
import dataclasses
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import cosets, oracle
from hopfcalc.hopf import ORDER_CAP, BoundKind, build_p_cover, run_pipeline
from hopfcalc.presentation import Presentation, corpus, parse_presentation
from hopfcalc.rewrite import Budget, group_order, initial_rules, knuth_bendix

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
A5 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: (a*b)^5\n", name="A5")


def enumerate_all(pres, max_definitions=2_000_000, cap=ORDER_CAP, subgroup=()):
    return cosets.enumerate_cosets(
        pres.relators, pres.arity, max_definitions, cap, subgroup
    )


def finite_presentations():
    """The finite bases tier-1 completes, and their covers at p = 2, 3."""
    bases = [corpus(name) for name in FINITE_CORPUS] + SMALL
    return bases + [build_p_cover(pres, p) for pres in bases for p in (2, 3)]


def test_every_column_is_a_permutation_that_its_inverse_undoes():
    # S3 over the subgroup <a> of order 2: three cosets, a fixing coset 0
    s3, over_a = corpus("SL2_F2"), ((0,),)
    for pres, subgroup in [(pres, ()) for pres in finite_presentations()] + [(s3, over_a)]:
        table = enumerate_all(pres, subgroup=subgroup)
        n = table.order
        assert len(table.columns) == 2 * pres.arity
        for x, column in enumerate(table.columns):
            assert sorted(column) == list(range(n)), (pres.name, x)
            assert [table.columns[x ^ 1][c] for c in column] == list(range(n))
        cosets.check_table(table, pres.relators)
        assert all(cosets.walk(table, 0, u) == 0 for u in subgroup)
    assert enumerate_all(s3, subgroup=over_a).order == 3


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


@pytest.mark.parametrize(
    "pres, p", [(BINARY_ICOSAHEDRAL, 3), (A5, 5)], ids=lambda x: getattr(x, "name", x)
)
def test_a_cover_over_a_p_prime_subgroup_fits_a_small_budget(pres, p):
    # p divides |G|, so these take the table route: over the trivial
    # subgroup the 3-cover of 2I (order 1080) and the 5-cover of A5
    # (order 1500) take 10,203 and 22,032 definitions; over a subgroup of
    # order prime to p (4 and 2) base and cover together take 2,787 and
    # 10,924, within 20,000, and the table route is exact
    res = run_pipeline(pres, p, Budget(max_steps=20_000))
    report = res.budget_report
    assert (res.h2_value, res.h2_kind) == (0, BoundKind.EXACT)
    assert report["cover_rules"] == 0 < report["cover_steps"] <= 20_000
    assert report["cover_steps"] < enumerate_all(build_p_cover(pres, p)).definitions
    assert report["cover_order"] == report["group_order"] * p ** len(res.spanning_set)


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
    # Z6 has one generator, so letter 2 has no column
    with pytest.raises(ArithmeticError, match="relator 1 has a letter outside"):
        cosets.check_table(table, (Z6.relators[0], (2,)))


@st.composite
def two_maps(draw):
    """n, and two maps P and Q of range(n); Q is sometimes P's inverse."""
    n = draw(st.integers(1, 6))
    point_map = st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    ).map(tuple)
    P, Q = draw(point_map), draw(point_map)
    if sorted(P) == list(range(n)) and draw(st.booleans()):
        Q = tuple(sorted(range(n), key=P.__getitem__))
    return n, P, Q


@given(two_maps())
def test_one_generator_test_decides_a_letter_pair(maps):
    # Q undoing P is tested, P undoing Q follows: on a finite set a left
    # inverse is two-sided
    n, P, Q = maps
    inverse = all(Q[P[c]] == c and P[Q[c]] == c for c in range(n))
    try:
        cosets.check_table(cosets.CosetTable(n, (P, Q), 0), ())
    except ArithmeticError as e:
        assert not inverse and "letter 1 does not undo letter 0" in str(e)
    else:
        assert inverse


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


def test_the_oracle_takes_the_table_but_not_the_enumerator_from_cosets():
    # the oracle builds its table from its own rewriting system, so it
    # stays an independent check of the enumerator
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            assert not names & {"cosets", "enumerate_cosets"}, node.module
            if (node.module or "").split(".")[-1] == "cosets":
                taken |= names
        elif isinstance(node, ast.Import):
            assert all("cosets" not in a.name.split(".") for a in node.names)
    assert taken == {"CosetTable", "check_table", "walk"}

"""Fox-calculus homology oracle for finite groups."""

import itertools

import numpy as np
import pytest

from hopfcalc import cosets, fplinalg, hopf, oracle, words
from hopfcalc.presentation import Presentation, corpus, parse_presentation
from hopfcalc.rewrite import (
    Budget,
    enumerate_elements,
    initial_rules,
    knuth_bendix,
    normal_form,
)


def table_for(pres, cap=oracle.DEFAULT_CAP):
    return oracle.multiplication_table(knuth_bendix(initial_rules(pres)), cap)


Z6 = parse_presentation("gens: a\nrel: a^6\n", name="Z6")
S3 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a*b*a*b\n", name="S3")
KLEIN = parse_presentation("gens: a b\nrel: a^2\nrel: b^2\nrel: [a,b]\n", name="V4")
Q8 = parse_presentation(
    "gens: a b\nrel: a^4\nrel: a^2*b^-2\nrel: b^-1*a*b*a\n", name="Q8"
)
Z6_TABLE = table_for(Z6)
S3_TABLE = table_for(S3)
KLEIN_TABLE = table_for(KLEIN)
Q8_TABLE = table_for(Q8)


def homology(pres, table, p):
    return oracle.bar_h1(table, p), oracle.bar_h2(table, pres.relators, p)


# groups of order at most 12 checked against the bar complex below
SMALL_GROUPS = [
    *(parse_presentation(f"gens: a\nrel: a^{n}\n", name=f"Z{n}") for n in range(1, 13)),
    KLEIN,
    Q8,
    *(
        parse_presentation(
            f"gens: r s\nrel: r^{k}\nrel: s^2\nrel: (s*r)^2\n", name=f"D{k}"
        )
        for k in (4, 5, 6)
    ),
    parse_presentation("gens: a b\nrel: a^2\nrel: b^6\nrel: [a,b]\n", name="Z2xZ6"),
    parse_presentation("gens: a b\nrel: a^3\nrel: b^4\nrel: [a,b]\n", name="Z3xZ4"),
    parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: (a*b)^3\n", name="A4"),
    corpus("SL2_F2"),
]


def bar_boundaries(pres):
    """d2 and d3 of the normalized bar complex of a small finite group.

    The brute-force reference for the oracle: products come straight
    from normal forms, chains are tuples of nonidentity elements, and a
    term whose tuple picks up the identity is degenerate and dropped.
    """
    rws = knuth_bendix(initial_rules(pres))
    elements = enumerate_elements(rws, 12)
    index = {w: i for i, w in enumerate(elements)}
    prod = [[index[normal_form(rws, u + v)] for v in elements] for u in elements]
    nonid = range(1, len(elements))
    pairs = {gh: i for i, gh in enumerate(itertools.product(nonid, repeat=2))}
    d2 = np.zeros((len(nonid), len(pairs)), dtype=np.int64)
    for (g, h), col in pairs.items():
        # d[g|h] = [h] - [gh] + [g]
        for cell, sign in ((h, 1), (prod[g][h], -1), (g, 1)):
            if cell:
                d2[cell - 1, col] += sign
    d3 = np.zeros((len(pairs), len(pairs) * len(nonid)), dtype=np.int64)
    for col, (g, h, k) in enumerate(itertools.product(nonid, repeat=3)):
        # d[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h]
        for cell, sign in (
            ((h, k), 1), ((prod[g][h], k), -1), ((g, prod[h][k]), 1), ((g, h), -1)
        ):
            if 0 not in cell:
                d3[pairs[cell], col] += sign
    assert not np.any(d2 @ d3)
    return d2, d3


def test_oracle_matches_the_bar_complex():
    for pres in SMALL_GROUPS:
        table = table_for(pres)
        d2, d3 = bar_boundaries(pres)
        m = table.order - 1
        # a redundant relator changes r and E but not the group, so h2
        # must also come out right when eps(ker D2) has to absorb it
        u = tuple(range(1, 2 * pres.arity, 2))
        rels = pres.relators
        extra = words.concat(words.invert(u), rels[0], u, words.invert(rels[-1]))
        padded = (*rels, extra)
        for p in (2, 3, 5, 7):
            rank2 = fplinalg.rank(d2, p)
            expected = (m - rank2, (m * m - rank2) - fplinalg.rank(d3, p))
            assert homology(pres, table, p) == expected, (pres.name, p)
            assert oracle.bar_h2(table, padded, p) == expected[1], (pres.name, p)


def test_table_structure():
    assert Z6_TABLE.order == 6
    tables = ((Z6, Z6_TABLE), (S3, S3_TABLE), (KLEIN, KLEIN_TABLE), (Q8, Q8_TABLE))
    for pres, t in tables:
        # every letter a permutation undone by its inverse, every relator trivial
        cosets.check_table(t, pres.relators)
        elements = enumerate_elements(knuth_bendix(initial_rules(pres)), t.order)
        # bar_h1 and bar_h2 read element 0 as the identity
        assert elements[0] == words.EMPTY
        assert [cosets.walk(t, 0, w) for w in elements] == list(range(t.order))


def test_enumerated_tables_give_the_oracle_values():
    # the coset enumerator and the rewriting engine are independent
    # producers of the same regular action
    for pres in SMALL_GROUPS:
        kb = table_for(pres)
        enumerated = cosets.enumerate_cosets(
            pres.relators, pres.arity, 20_000, oracle.DEFAULT_CAP
        )
        cosets.check_table(enumerated, pres.relators)
        assert enumerated.order == kb.order, pres.name
        for p in (2, 3, 5, 7):
            assert homology(pres, enumerated, p) == homology(pres, kb, p), (pres.name, p)


def test_h2_rejects_a_relator_the_table_does_not_satisfy():
    # a^4, and a letter of a second generator that Z6's table lacks
    for relator in ((0, 0, 0, 0), (2,)):
        with pytest.raises(ArithmeticError):
            oracle.bar_h2(Z6_TABLE, (relator,), 2)


def test_table_requires_confluence():
    pres = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a*b*a*b\n")
    rws = knuth_bendix(initial_rules(pres), Budget(max_steps=5))
    assert not rws.confluent
    with pytest.raises(ValueError):
        oracle.multiplication_table(rws, 24)


def test_table_overflow_for_infinite_groups():
    pres = parse_presentation("gens: a\n")
    rws = knuth_bendix(initial_rules(pres))
    with pytest.raises(oracle.Overflow):
        oracle.multiplication_table(rws, 50)


def test_cyclic_homology_anchors():
    # H_i(Z/n; F_p) is one-dimensional in every degree when p | n and
    # vanishes in positive degrees otherwise
    assert homology(Z6, Z6_TABLE, 2) == (1, 1)
    assert homology(Z6, Z6_TABLE, 3) == (1, 1)
    assert homology(Z6, Z6_TABLE, 5) == (0, 0)
    for p in (2, 3, 5, 7):
        pres = parse_presentation(f"gens: a\nrel: a^{p}\n")
        assert homology(pres, table_for(pres), p) == (1, 1)


def test_klein_four_anchor():
    assert homology(KLEIN, KLEIN_TABLE, 2) == (2, 3)
    assert homology(KLEIN, KLEIN_TABLE, 3)[1] == 0


def test_quaternion_anchor():
    assert homology(Q8, Q8_TABLE, 2) == (2, 2)
    assert homology(Q8, Q8_TABLE, 3)[1] == 0


def test_symmetric_group_anchor():
    assert homology(S3, S3_TABLE, 3) == (0, 0)
    assert homology(S3, S3_TABLE, 2) == (1, 1)


def test_order_500_abelian_anchor():
    # Kunneth: an abelian group of p-rank d has h1 = d and h2 = d + d(d-1)/2
    pres = parse_presentation(
        "gens: a b c\nrel: a^2\nrel: b^10\nrel: c^25\n"
        "rel: [a,b]\nrel: [a,c]\nrel: [b,c]\n",
        name="Z2xZ10xZ25",
    )
    table = table_for(pres)
    assert table.order == 500
    for p in (2, 5):
        assert homology(pres, table, p) == (2, 3), p


def test_check_agrees_on_corpus_groups():
    for name, p in (("SL2_F2", 2), ("SL2_F2", 3), ("SL2_F3", 3)):
        rep = oracle.check(corpus(name), p)
        assert rep["verdict"] == "pass"
        assert rep["group"] == name
        assert rep["prime"] == p
        assert rep["pipeline_kind"] == "exact"


BINARY_ICOSAHEDRAL = parse_presentation(
    "gens: a b\nrel: a^2*b^-3\nrel: a^2*(a*b)^-5\nrel: a^4\n", name="2I"
)
A5 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: (a*b)^5\n", name="A5")
S4 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: (a*b)^4\n", name="S4")


def test_check_passes_where_the_pipeline_bound_is_loose():
    # the pipeline reports h2 = 0 exactly at p = 5 for both, from the
    # cover table; before the table route it reported h2 <= 1 there
    for pres, p, dims in (
        (BINARY_ICOSAHEDRAL, 2, (0, 0)),
        (BINARY_ICOSAHEDRAL, 5, (0, 0)),
        (A5, 2, (0, 1)),
        (A5, 5, (0, 0)),
    ):
        rep = oracle.check(pres, p)
        assert rep["verdict"] == "pass", rep
        assert (rep["oracle_h1"], rep["oracle_h2"]) == dims, rep


def test_the_cover_table_makes_the_loose_cells_exact():
    # the completion route reported h2 <= 1 on each, the true value being 0
    for pres, p in (
        (BINARY_ICOSAHEDRAL, 3),
        (BINARY_ICOSAHEDRAL, 5),
        (BINARY_ICOSAHEDRAL, 7),
        (A5, 5),
        (A5, 7),
        (S4, 7),
    ):
        rep = oracle.check(pres, p)
        assert rep["verdict"] == "pass", rep
        assert (rep["pipeline_kind"], rep["pipeline_h2"], rep["oracle_h2"]) == (
            "exact", 0, 0
        ), rep


def test_check_completes_the_base_once(monkeypatch):
    # the oracle and the pipeline each complete the base, and share no
    # completion; SL2_F2's cover comes from its coset table, not from
    # a completion
    pres = corpus("SL2_F2")
    base_rules = initial_rules(pres).rules
    calls = []

    def counted(site, complete):
        def knuth_bendix(rws, budget):
            # told apart before completion, while the rules are the oriented relators
            kind = "base" if rws.rules == base_rules else "cover"
            done = complete(rws, budget)
            calls.append((site, kind, done))
            return done

        return knuth_bendix

    monkeypatch.setattr(oracle, "knuth_bendix", counted("oracle", oracle.knuth_bendix))
    monkeypatch.setattr(hopf, "knuth_bendix", counted("pipeline", hopf.knuth_bendix))
    assert oracle.check(pres, 2)["verdict"] == "pass"
    assert [call[:2] for call in calls] == [("oracle", "base"), ("pipeline", "base")]
    assert calls[0][2] is not calls[1][2]


def test_check_checks_the_oracle_table_once_before_reading_it(monkeypatch):
    # bar_h2 checks the table with the relators; multiplication_table does not
    pres = corpus("SL2_F2")
    build, check, h1 = oracle.multiplication_table, oracle.check_table, oracle.bar_h1
    tables, events = [], []

    def built(rws, cap):
        tables.append(build(rws, cap))
        return tables[-1]

    def checked(table, relators):
        events.append(("check", table, relators))
        check(table, relators)

    def read(table, p):
        events.append(("bar_h1", table, None))
        return h1(table, p)

    monkeypatch.setattr(oracle, "multiplication_table", built)
    monkeypatch.setattr(oracle, "check_table", checked)
    monkeypatch.setattr(oracle, "bar_h1", read)
    assert oracle.check(pres, 2)["verdict"] == "pass"
    assert len(tables) == 1
    on_table = [(kind, rels) for kind, t, rels in events if t is tables[0]]
    assert on_table == [("check", pres.relators), ("bar_h1", None)]


def no_pipeline(*args, **kwargs):
    raise AssertionError("the pipeline ran before the oracle could answer")


def test_check_unavailable_for_infinite_groups(monkeypatch):
    monkeypatch.setattr(oracle, "run_pipeline", no_pipeline)
    torus = parse_presentation("gens: a b\nrel: [a,b]\n", name="torus")
    with pytest.raises(oracle.OracleUnavailable):
        oracle.check(torus, 2)


def test_check_unavailable_when_the_base_does_not_complete(monkeypatch):
    monkeypatch.setattr(oracle, "run_pipeline", no_pipeline)
    with pytest.raises(oracle.OracleUnavailable, match="no confluent rewriting system"):
        oracle.check(corpus("SL2_F3"), 3, Budget(max_steps=10))


def test_check_passes_on_no_generators():
    # the trivial group's table has no columns, which bar_h1 must still read
    for p in (2, 3, 5, 7):
        rep = oracle.check(Presentation((), ()), p)
        assert rep["verdict"] == "pass", rep
        assert (rep["oracle_h1"], rep["oracle_h2"]) == (0, 0), rep


def test_check_unavailable_when_order_exceeds_cap():
    pres = parse_presentation("gens: a\nrel: a^30\n", name="Z30")
    with pytest.raises(oracle.OracleUnavailable):
        oracle.check(pres, 2, cap=24)
    rep = oracle.check(pres, 2, cap=30)
    assert rep["verdict"] == "pass"

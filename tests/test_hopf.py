"""Pipeline behavior on small presentations with known homology."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import fplinalg, hopf, oracle, words
from hopfcalc.hopf import (
    BoundKind,
    build_p_cover,
    exponent_matrix,
    h1_dimension,
    image_matrix,
    replay_certificates,
    run_pipeline,
    to_json,
)
from hopfcalc.presentation import Presentation, corpus, corpus_names, parse_presentation
from hopfcalc.rewrite import (
    DEFAULT_BUDGET,
    Budget,
    group_order,
    initial_rules,
    knuth_bendix,
    reduce_with_allowance,
)

from test_acceptance import ORACLE_GROUPS  # the criterion-6 groups

Z5 = parse_presentation("gens: a\nrel: a^5\n", name="Z5")
TORUS = parse_presentation("gens: a b\nrel: [a,b]\n", name="torus")
FREE2 = parse_presentation("gens: a b\n", name="F2")
COMM_SQUARED = parse_presentation("gens: a b\nrel: [a,b]^2\n", name="csq")


@pytest.mark.parametrize("bad", [1, 4, 6, -3, 2.0, True, "5", 4294967311])
def test_prime_validation(bad):
    with pytest.raises(ValueError):
        h1_dimension(Z5, bad)


def test_h1_known_values():
    assert h1_dimension(Z5, 5) == 1
    assert h1_dimension(Z5, 2) == 0
    assert h1_dimension(FREE2, 3) == 2
    assert h1_dimension(TORUS, 7) == 2
    three = parse_presentation("gens: a b c\nrel: a*b^3*c^-3\nrel: b^-2*c^2\nrel: a^3\n")
    assert h1_dimension(three, 2**31 - 1) == 1


def test_exponent_matrix_shape_and_mod():
    mat = exponent_matrix([(0, 0, 0), (1,)], 2, 3)
    assert mat.tolist() == [[0, 0], [2, 0]]
    assert exponent_matrix([], 3, 5).shape == (0, 3)


def test_image_matrix_validates_letters():
    with pytest.raises(ValueError):
        image_matrix([(4,)], 2, 5)
    assert image_matrix([(0, 2)], 2, 5).tolist() == [[1, 1]]


def test_build_p_cover_squares_a_cyclic_relator():
    cover = build_p_cover(parse_presentation("gens: a\nrel: a^2\n", name="Z2"), 2)
    # [a^2, a] reduces freely to nothing, leaving only the squared relator
    assert cover.relators == ((0, 0, 0, 0),)
    assert cover.name == "Z2.cover2"


def test_build_p_cover_of_the_torus():
    cover = build_p_cover(TORUS, 2)
    r = words.commutator((0,), (2,))
    assert len(cover.relators) == 3
    assert words.power(r, 2) in cover.relators


def test_dim_a_exact_for_finite_groups():
    def order_dim_a(pres, p):
        res = run_pipeline(pres, p)
        return res.budget_report["order_dim_a"], res.h2_kind

    assert order_dim_a(Z5, 5) == (1, BoundKind.EXACT)
    # a^5 generates a copy of F_2 inside the cover of order 10; the map
    # to the abelianization is injective there, so h2 vanishes while A
    # itself does not
    assert order_dim_a(Z5, 2) == (1, BoundKind.EXACT)
    assert order_dim_a(TORUS, 2)[0] is None
    assert order_dim_a(FREE2, 2)[0] is None


def test_pipeline_cyclic_group():
    res = run_pipeline(Z5, 5)
    assert res.h1_dim == 1
    assert (res.h2_value, res.h2_kind) == (1, BoundKind.EXACT)
    assert res.dim_a == 1
    assert res.rank_image == 0
    assert res.budget_report["group_order"] == 5
    assert res.budget_report["cover_order"] == 25
    assert res.candidates == (((1,), (0,) * 5),)


def test_pipeline_cyclic_group_at_the_wrong_prime():
    res = run_pipeline(Z5, 2)
    assert res.h1_dim == 0
    assert (res.h2_value, res.h2_kind) == (0, BoundKind.EXACT)


def test_pipeline_torus():
    res = run_pipeline(TORUS, 3)
    assert res.h1_dim == 2
    assert (res.h2_value, res.h2_kind) == (1, BoundKind.EXACT)
    assert res.candidates == (((1,), (1, 3, 0, 2)),)


def test_free_group_has_no_h2():
    res = run_pipeline(FREE2, 2)
    assert res.h1_dim == 2
    assert (res.h2_value, res.h2_kind) == (0, BoundKind.EXACT)
    assert res.spanning_set == ()


def test_proper_power_relator_is_not_promoted(monkeypatch):
    # relation module arguments need a relator that is not a proper
    # power; with no quotient bound [a,b]^2 must therefore stay an
    # upper bound, and the abelian quotient (Z/p)^2 makes it exact
    for p in (2, 3):
        res = run_pipeline(COMM_SQUARED, p)
        assert (res.h2_value, res.h2_kind) == (1, BoundKind.EXACT)
    monkeypatch.setattr(hopf, "lower_bound", lambda pres, p, budget: (0, 1))
    for p in (2, 3):
        res = run_pipeline(COMM_SQUARED, p)
        assert (res.h2_value, res.h2_kind) == (1, BoundKind.UPPER_BOUND)


def test_single_relator_with_a_nonzero_image_row_is_exact():
    res = run_pipeline(parse_presentation("gens: a b\nrel: a*b*a*b^-2\n"), 2)
    # row (2,-1) is nonzero mod 2: the image rank 1 meets the spanning size
    assert (res.h2_value, res.h2_kind) == (0, BoundKind.EXACT)


def give_up(*args):
    """An enumerator that gives up at once, so every cell takes the completion route."""
    return None


def test_order_count_above_the_spanning_size_is_refused(monkeypatch):
    # Z5 at p=5 keeps one spanning member; orders 5 and 125 claim dim A = 2
    monkeypatch.setattr(hopf, "enumerate_cosets", give_up)
    orders = iter((5, 125))
    monkeypatch.setattr(hopf, "group_order", lambda rws, cap: next(orders))
    with pytest.raises(ArithmeticError):
        run_pipeline(Z5, 5)


def test_order_count_below_the_one_relator_bound_is_refused(monkeypatch):
    # the torus relator is not a proper power, so dim A >= 1; equal
    # orders claim dim A = 0
    monkeypatch.setattr(hopf, "group_order", lambda rws, cap: 1)
    with pytest.raises(ArithmeticError):
        run_pipeline(TORUS, 3)


def test_search_that_drops_image_rank_is_refused(monkeypatch):
    # Z6 as a^2, b^3, [a,b]: 2 divides its order, so the cover is built;
    # b^3 has the nonzero image row (0, 1) mod 2, and dropping it loses rank
    z6 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: [a,b]\n")
    monkeypatch.setattr(hopf, "enumerate_cosets", give_up)
    monkeypatch.setattr(
        hopf,
        "_reduce_spanning",
        lambda spanning, rows, cover, p, budget: ([], [], {"steps": 0, "exhausted": False}),
    )
    with pytest.raises(ArithmeticError, match="changed the image rank"):
        run_pipeline(z6, 2)


def copies(table, k):
    """k disjoint copies of a coset table: an action of the same group, k times as large."""
    n = table.order
    columns = tuple(
        tuple(c + i * n for i in range(k) for c in column) for column in table.columns
    )
    return dataclasses.replace(table, order=k * n, columns=columns)


def copies_of(relators, k, monkeypatch):
    """Make the pipeline's enumeration of ``relators`` return k copies of its table."""
    enumerate_cosets = hopf.enumerate_cosets

    def enumerate_copies(rels, *args, **kwargs):
        table = enumerate_cosets(rels, *args, **kwargs)
        return copies(table, k) if tuple(rels) == tuple(relators) else table

    monkeypatch.setattr(hopf, "enumerate_cosets", enumerate_copies)


def test_table_order_above_the_relator_span_is_refused(monkeypatch):
    # five copies of Z5's 5-cover (order 25) pass the table check, but
    # order 125 over 5 claims dim A = 2 where a^5 spans one dimension
    copies_of(build_p_cover(Z5, 5).relators, 5, monkeypatch)
    with pytest.raises(ArithmeticError, match="do not span A"):
        run_pipeline(Z5, 5)


def test_base_table_of_another_order_than_the_count_is_refused(monkeypatch):
    # two copies of Z5's table pass the table check, but have 10 cosets
    # where Knuth-Bendix counted 5 elements: the table is not regular
    copies_of(Z5.relators, 2, monkeypatch)
    with pytest.raises(ArithmeticError, match="counted order differ"):
        run_pipeline(Z5, 5)


def test_table_span_of_the_wrong_size_is_refused(monkeypatch):
    # SL2_F2 at p=2 keeps a basis of dim A = 2, whose span has 4 elements
    table_basis = hopf._table_basis

    def miscounted(table, relators, p):
        kept, span = table_basis(table, relators, p)
        return kept, span + 1

    assert run_pipeline(corpus("SL2_F2"), 2).budget_report["order_dim_a"] == 2
    monkeypatch.setattr(hopf, "_table_basis", miscounted)
    with pytest.raises(ArithmeticError, match="do not span A"):
        run_pipeline(corpus("SL2_F2"), 2)


def test_kernel_that_fails_to_annihilate_is_refused(monkeypatch):
    left_kernel_basis = fplinalg.left_kernel_basis

    def shifted(mat, p):
        # as many rows as the true kernel, each moved off it by one
        # member with a nonzero image row
        kernel = left_kernel_basis(mat, p)
        kernel[:, np.flatnonzero(mat.any(axis=1))[0]] += 1
        return kernel

    monkeypatch.setattr(fplinalg, "left_kernel_basis", shifted)
    with pytest.raises(ArithmeticError, match="annihilate"):
        run_pipeline(corpus("SL2_F2"), 2)


def test_candidates_annihilate_the_image_matrix():
    res = run_pipeline(corpus("SL2_F2"), 2)
    mat = image_matrix(res.spanning_set, res.n_generators, res.prime)
    for coeffs, word in res.candidates:
        assert not np.any((np.array(coeffs) @ mat) % res.prime)
        assert all(e % res.prime == 0 for e in words.exponent_vector(word, res.n_generators))


def test_certificates_replay(monkeypatch):
    # SL2_F2 is finite: only with the enumerator giving up does it take
    # the completion route, which issues certificates
    monkeypatch.setattr(hopf, "enumerate_cosets", give_up)
    pres = corpus("SL2_F2")
    res = run_pipeline(pres, 2)
    assert res.budget_report["removals"] == len(res.certificates) == 1
    cover = knuth_bendix(initial_rules(build_p_cover(pres, 2)))
    cert = res.certificates[0]
    assert replay_certificates([cert], list(pres.relators), cover)
    forged = dataclasses.replace(cert, factors=((0, 1),) * len(cert.factors))
    assert not replay_certificates([forged], list(pres.relators), cover)
    # inverse(R0)·R0 is ε: a factor naming the removed member proves nothing
    r0 = pres.relators[0]
    assert not replay_certificates(
        [hopf.RemovalCertificate(0, r0, ((0, 1),), ())], list(pres.relators), cover
    )
    n = len(pres.relators)
    out_of_range = dataclasses.replace(cert, factors=((n, 1),))
    assert not replay_certificates([out_of_range], list(pres.relators), cover)
    removed_out_of_range = dataclasses.replace(cert, removed_index=n)
    assert not replay_certificates([removed_out_of_range], list(pres.relators), cover)
    # two copies of a^2: each removal by the other holds alone, but once
    # one is gone the other may not rest on it
    square = (0, 0)
    twice = Presentation(("a",), (square, square))
    cover = knuth_bendix(initial_rules(build_p_cover(twice, 2)))
    first = hopf.RemovalCertificate(0, square, ((1, 1),), ())
    second = hopf.RemovalCertificate(1, square, ((0, 1),), ())
    assert replay_certificates([first], list(twice.relators), cover)
    assert replay_certificates([second], list(twice.relators), cover)
    assert not replay_certificates([first, second], list(twice.relators), cover)


def test_replay_rejects_a_wrong_test_word_or_a_product_that_is_not_trivial():
    pres = corpus("GL2_Z")
    budget = Budget(max_steps=3000)
    (cert,) = run_pipeline(pres, 3, budget).certificates
    assert (cert.removed_index, cert.factors) == (0, ((1, 1), (2, 2)))
    spanning = list(pres.relators)
    cover = knuth_bendix(initial_rules(build_p_cover(pres, 3)), budget)
    assert replay_certificates([cert], spanning, cover)
    other_word = dataclasses.replace(cert, test_word=cert.test_word[:-1])
    assert not replay_certificates([other_word], spanning, cover)
    # the right test word for other live factors: only the normal form,
    # which is not the empty word, tells it apart
    factors = ((1, 2), (2, 2))
    test = words.concat(
        words.invert(spanning[0]), *(words.power(spanning[m], e) for m, e in factors)
    )
    wrong_product = dataclasses.replace(cert, factors=factors, test_word=test)
    assert not replay_certificates([wrong_product], spanning, cover)


def test_reduction_never_changes_h1_or_rank():
    for name in ("SL2_F2", "SL2_F3", "SL2_ZI"):
        pres = corpus(name)
        for p in (2, 3):
            res = run_pipeline(pres, p)
            assert res.rank_image == res.n_generators - res.h1_dim
            assert res.h2_value == len(res.spanning_set) - res.rank_image


def test_to_json_contract():
    res = run_pipeline(Z5, 5)
    data = to_json(res)
    assert list(data.keys()) == [
        "group",
        "prime",
        "n_generators",
        "h1_dim",
        "dim_A",
        "dim_A_kind",
        "rank_image",
        "h2_value",
        "h2_kind",
        "confluent_base",
        "confluent_cover",
        "spanning_set",
        "candidates",
        "budget",
    ]
    assert data["dim_A_kind"] == "exact"
    assert data["spanning_set"] == ["a^5"]
    assert data["candidates"] == [{"coeffs": [1], "word": "a^5"}]
    json.dumps(data)  # must be serializable as-is
    for key in (
        "base_rules",
        "base_steps",
        "base_limited",
        "cover_rules",
        "cover_steps",
        "cover_limited",
        "group_order",
        "cover_order",
        "order_dim_a",
        "spanning_initial",
        "initial_bound",
        "removals",
        "search_passes",
        "search_steps",
        "search_exhausted",
    ):
        assert key in data["budget"]


def test_pipeline_is_deterministic():
    a = to_json(run_pipeline(corpus("SL2_F3"), 3))
    b = to_json(run_pipeline(corpus("SL2_F3"), 3))
    assert a == b


def pinned_cells():
    """The 45 pinned cells, as (presentation, prime, budget).

    Every corpus entry at every table prime on a small budget, plus
    SL2_F2 at p=3 in full: in the spanning search over their covers,
    removals by the empty, single and pair products all occur.  The
    pipeline takes the coprime route on the finite cells whose order p
    does not divide, the cover table route on the other finite cells
    whose cover enumerates within the budget's definitions, and no
    route to a cover on the uncounted cells whose bounds already meet,
    by the image rank or by a finite quotient's bound over it.
    """
    cells = [
        (corpus(name), p, Budget(max_steps=3000))
        for name in corpus_names()
        for p in (2, 3, 5, 7)
    ]
    cells.append((corpus("SL2_F2"), 3, Budget()))
    return cells


def test_pipeline_records_are_pinned(monkeypatch):
    # a change to the search order, the cover system or table, the step
    # accounting or the exactness rule shows up here; the last cell is
    # SL2_F2 at p=3 in full again, on the completion route, whose
    # search removes a member by the empty product
    h = hashlib.sha256()

    def pin(pres, p, budget):
        res = run_pipeline(pres, p, budget)
        h.update(json.dumps(to_json(res), ensure_ascii=False).encode())
        h.update(repr(res.certificates).encode())

    for cell in pinned_cells():
        pin(*cell)
    monkeypatch.setattr(hopf, "enumerate_cosets", give_up)
    pin(corpus("SL2_F2"), 3, Budget())
    assert h.hexdigest() == (
        "ffdbaa25f27efab182494e1b582154bbb98b59c7e262ad602353f08852fadd89"
    )


# the budget keys that tell the two routes apart (see ``to_json``)
ROUTE_KEYS = (
    "cover_rules", "cover_steps", "cover_limited", "search_steps", "search_exhausted"
)
FINITE_CORPUS = ("SL2_F2", "SL2_F3", "SL2_F5", "SL2_ZI", "SL2_ZOMEGA")


def finite_cells():
    """The finite corpus and the criterion-6 groups at p = 2, 3, 5, 7, with |G| each."""
    groups = [corpus(name) for name in FINITE_CORPUS] + ORACLE_GROUPS
    out = []
    for pres in groups:
        order = group_order(knuth_bendix(initial_rules(pres)), hopf.ORDER_CAP)
        out += [(pres, p, order) for p in (2, 3, 5, 7)]
    return out


def test_both_routes_give_the_same_record(monkeypatch):
    # cells where p divides |G|: the table and the completion route
    cells = [(pres, p) for pres, p, order in finite_cells() if order % p == 0]

    def records():
        out = []
        for pres, p in cells:
            record = to_json(run_pipeline(pres, p))
            budget = record["budget"]
            out.append((record, {k: budget.pop(k) for k in ROUTE_KEYS}))
        return out

    by_table = records()
    monkeypatch.setattr(hopf, "enumerate_cosets", give_up)
    by_completion = records()
    for (pres, p), (table, table_keys), (completion, completion_keys) in zip(
        cells, by_table, by_completion
    ):
        cell = (pres.name, p)
        assert table_keys["cover_rules"] == 0 < completion_keys["cover_rules"], cell
        assert table == completion, cell
        assert table["h2_kind"] == "exact", cell


def test_the_coprime_route_keeps_the_table_basis():
    # where p does not divide |G|, A maps injectively to F_p^n, so the
    # pivots of the image rows are the relators the cover table keeps
    cells = [(pres, p, order) for pres, p, order in finite_cells() if order % p]
    assert cells
    for pres, p, order in cells:
        res = run_pipeline(pres, p)
        report = res.budget_report
        cell = (pres.name, p)
        assert report["cover_steps"] == report["cover_rules"] == 0, cell
        assert (res.h1_dim, res.h2_value, res.h2_kind) == (0, 0, BoundKind.EXACT), cell
        cover_pres = build_p_cover(pres, p)
        table, q_order, _ = hopf._cover_table(pres, cover_pres, order, p, DEFAULT_BUDGET)
        kept, span = hopf._table_basis(table, pres.relators, p)
        assert tuple(pres.relators[i] for i in kept) == res.spanning_set, cell
        assert table.order * q_order == report["cover_order"] == order * span, cell
        assert report["order_dim_a"] == len(kept) == pres.arity, cell


def refuse_covers(monkeypatch):
    """Make building or enumerating a cover, or completing a second system, raise.

    Enumerations under the quotient cap are the lower bound's quotients,
    and run.  Returns the list of completed systems, to be cleared
    before each run.
    """
    enumerate_cosets = hopf.enumerate_cosets

    def refuse(*args, **kwargs):
        raise AssertionError("the cell built or enumerated a cover")

    def quotients_only(relators, arity, max_definitions, cap, subgroup=()):
        if cap != hopf.QUOTIENT_CAP:
            refuse()
        return enumerate_cosets(relators, arity, max_definitions, cap, subgroup)

    completed = []

    def base_only(rules, budget):
        if completed:
            raise AssertionError("the cell completed a second system")
        completed.append(rules)
        return knuth_bendix(rules, budget)

    monkeypatch.setattr(hopf, "enumerate_cosets", quotients_only)
    monkeypatch.setattr(hopf, "build_p_cover", refuse)
    monkeypatch.setattr(hopf, "knuth_bendix", base_only)
    return completed


def test_coprime_primes_are_exact_without_a_cover(monkeypatch):
    # SL2_F2 is S3, of order 6, prime to 101 and 1009, so h2 = 0 with no
    # cover; its p-cover, of relators written out to the p-th power,
    # ends at the default budget with only h2 <= 1
    completed = refuse_covers(monkeypatch)
    for p in (101, 1009):
        completed.clear()
        start = time.process_time()
        res = run_pipeline(corpus("SL2_F2"), p)
        assert time.process_time() - start < 0.5
        report = res.budget_report
        assert (res.h1_dim, res.h2_value, res.h2_kind) == (0, 0, BoundKind.EXACT)
        assert report["cover_steps"] == report["search_steps"] == 0
        assert report["cover_order"] == 6 * p**2
        completed.clear()
        assert oracle.check(corpus("SL2_F2"), p)["verdict"] == "pass"


def test_met_bounds_are_exact_without_a_cover(monkeypatch):
    # with no counted order a cover can only feed the search, and where
    # the image rank, the one-relator bound or the quotient bound over
    # the image rank already is the relator count the search can remove
    # nothing; PSL2_Z's rows (2,0), (0,3) are independent at every p >= 5,
    # and at p = 2, 3 its quotient Z/p gives h2 >= 1 over the rank 1; its
    # p-cover completions ran to the default budget's 2 million steps,
    # or 1.6 million at p = 2, and the search removed none
    completed = refuse_covers(monkeypatch)
    one_relator = parse_presentation("gens: a b\nrel: a*b*a*b^-2\n", name="aba")
    torus_relator = (1, 3, 0, 2)
    cells = [
        (corpus("PSL2_Z"), 2, 1, 1, (((1, 0), (0, 0)),)),
        (corpus("PSL2_Z"), 3, 1, 1, (((0, 1), (2, 2, 2)),)),
        (corpus("PSL2_Z"), 5, 0, 0, ()),
        (corpus("PSL2_Z"), 7, 0, 0, ()),
        (corpus("PSL2_Z"), 101, 0, 0, ()),
        (TORUS, 3, 2, 1, (((1,), torus_relator),)),
        (one_relator, 2, 1, 0, ()),
        (FREE2, 2, 2, 0, ()),
    ]
    for pres, p, h1, h2, candidates in cells:
        completed.clear()
        res = run_pipeline(pres, p)
        cell = (pres.name, p)
        assert (res.h1_dim, res.h2_value, res.h2_kind) == (h1, h2, BoundKind.EXACT), cell
        assert res.spanning_set == pres.relators, cell
        assert res.candidates == candidates, cell
        assert res.certificates == () and not res.confluent_cover, cell
        report = res.budget_report
        assert [report[k] for k in ROUTE_KEYS] == [0, 0, False, 0, False], cell
        assert report["cover_order"] is report["order_dim_a"] is None, cell
    assert corpus("PSL2_Z").relators == ((0, 0), (2, 2, 2))
    assert TORUS.relators == (torus_relator,)


def test_met_bounds_leave_the_search_nothing_to_remove():
    # on each pinned cell that skipped its cover, the cover completed at
    # the cell's budget lets the search remove no member: a removal
    # would have put the spanning size below the bounds that met
    skipped = []
    for pres, p, budget in pinned_cells():
        report = run_pipeline(pres, p, budget).budget_report
        if report["group_order"] is not None or report["cover_steps"]:
            continue
        cover = knuth_bendix(initial_rules(build_p_cover(pres, p)), budget)
        rows = [tuple(r) for r in exponent_matrix(pres.relators, pres.arity, p).tolist()]
        live, certs, _ = hopf._reduce_spanning(pres.relators, rows, cover, p, budget)
        cell = (pres.name, p)
        assert (live, certs) == (list(range(len(pres.relators))), []), cell
        skipped.append(cell)
    assert skipped == [
        ("SL2_F3", 2), ("SL2_F3", 3), ("SL2_F3", 5), ("SL2_F3", 7),
        ("PSL2_Z", 2), ("PSL2_Z", 3), ("PSL2_Z", 5), ("PSL2_Z", 7),
    ]


# infinite groups and their h2 at p: by Hopf's formula and the universal
# coefficient theorem, dim H_2(G;Z)/p plus dim Tor(H_1(G;Z), F_p)
CLOSED_FORMS = [
    (TORUS, lambda p: 1),
    (parse_presentation("gens: a b c\nrel: [a,b]\nrel: [a,c]\nrel: [b,c]\n", name="Z3"),
     lambda p: 3),
    (parse_presentation("gens: a b\nrel: a*b*a*b^-1\n", name="Klein"), lambda p: int(p == 2)),
    (parse_presentation("gens: a b\nrel: b^-1*a*b*a^-2\n", name="BS12"), lambda p: 0),
    (parse_presentation("gens: a b\nrel: b^-1*a*b*a^-3\n", name="BS13"),
     lambda p: int(p == 2)),
    (parse_presentation("gens: a b\nrel: a^2*b^-3\n", name="trefoil"), lambda p: 0),
    (parse_presentation("gens: a b\nrel: [[a,b],a]\nrel: [[a,b],b]\n", name="Heisenberg"),
     lambda p: 2),
]


def test_the_quotient_bound_meets_the_closed_forms():
    # a finite quotient's bound is at most h2; on these groups a nilpotent
    # quotient under the cap already reaches it, so the bound is tight,
    # and the pipeline is exact there even at a small budget
    for pres, h2_at in CLOSED_FORMS:
        for p in (2, 3, 5, 7):
            cell = (pres.name, p)
            v, order = hopf.lower_bound(pres, p)
            assert v == h2_at(p), cell
            assert 1 <= order <= hopf.QUOTIENT_CAP, cell
            res = run_pipeline(pres, p, Budget(max_steps=3000))
            assert (res.h2_value, res.h2_kind) == (h2_at(p), BoundKind.EXACT), cell


def test_no_quotient_is_enumerated_where_h1_is_zero_or_the_order_is_counted(monkeypatch):
    # h1 = 0 at p: the flagship and the grid-bounded cells, here at a
    # small budget, which their h1 does not depend on; a counted order:
    # SL2_F2 at p = 2, where h1 = 1
    enumerate_cosets = hopf.enumerate_cosets

    def no_quotients(relators, arity, max_definitions, cap, subgroup=()):
        assert cap != hopf.QUOTIENT_CAP, "the cell enumerated a quotient"
        return enumerate_cosets(relators, arity, max_definitions, cap, subgroup)

    def no_bar(*args):
        raise AssertionError("the cell ran bar_h2")

    monkeypatch.setattr(hopf, "enumerate_cosets", no_quotients)
    monkeypatch.setattr(hopf, "bar_h2", no_bar)
    budget = Budget(max_steps=3000)
    cells = [(corpus("SL2Z7Z7_6GEN"), 7)]
    cells += [(corpus(name), p) for name in ("GL2_Z", "SL2_Z", "PSL2_Z") for p in (5, 7)]
    for pres, p in cells:
        assert run_pipeline(pres, p, budget).h1_dim == 0, (pres.name, p)
    res = run_pipeline(corpus("SL2_F2"), 2, budget)
    assert (res.h1_dim, res.budget_report["group_order"]) == (1, 6)


def test_quotient_bound_above_the_spanning_size_is_refused(monkeypatch):
    # [a,b]^2 has one relator, so dim A <= 1; a quotient claiming h2 >= 2
    # puts the lower bound above it
    monkeypatch.setattr(hopf, "lower_bound", lambda pres, p, budget: (2, 4))
    with pytest.raises(ArithmeticError, match="certified bounds on dim A cross"):
        run_pipeline(COMM_SQUARED, 2, Budget(max_steps=3000))


def test_a_coprime_order_with_nonzero_h1_is_refused(monkeypatch):
    # Z3 has h1 = 1 at p = 3; claimed to be of order 1, p would not
    # divide |G| and h1 would have to be 0
    z3 = parse_presentation("gens: a\nrel: a^3\n")
    monkeypatch.setattr(hopf, "group_order", lambda rws, cap: 1)
    with pytest.raises(ArithmeticError, match="h1 is not 0"):
        run_pipeline(z3, 3)


def test_zero_h2_is_exact():
    # dim A is at least the image rank, and h2 = 0 means m is that rank
    for pres, p, budget in pinned_cells():
        res = run_pipeline(pres, p, budget)
        if res.h2_value == 0:
            assert res.h2_kind is BoundKind.EXACT, (pres.name, p)


def reference_pass(spanning, rows, cover, p, live, certs, left):
    """One pass of the spanning search, each test word reduced alone, as a reference.

    Removes from ``live`` and appends to ``certs`` in place, and returns
    the steps left of ``left``, or None once a reduction needs more.
    """
    for ridx in list(live):
        others = [m for m in live if m != ridx]
        for factors in hopf._products(rows[ridx], others, rows, p):
            test = product_by_concat(spanning, ridx, factors)
            reduced = reduce_with_allowance(cover, test, left)
            if reduced is None:
                return None
            left -= reduced[1]
            if reduced[0] == words.EMPTY:
                live.remove(ridx)
                certs.append(
                    hopf.RemovalCertificate(ridx, spanning[ridx], factors, tuple(test))
                )
                break
    return left


def reference_search(spanning, rows, cover, p, budget, passes=1):
    """The spanning search in passes, up to ``passes`` or one that removes nothing.

    Returns the live indices, the certificates, the steps spent, whether
    the allowance ran dry, and the number of removals in each pass.
    """
    live = list(range(len(spanning)))
    certs = []
    starts = []
    left = budget.max_steps
    while (
        left is not None
        and len(starts) < passes
        and (not starts or len(certs) > starts[-1])
    ):
        starts.append(len(certs))
        left = reference_pass(spanning, rows, cover, p, live, certs, left)
    removed = [b - a for a, b in zip(starts, starts[1:] + [len(certs)])]
    exhausted = left is None
    steps = budget.max_steps - (0 if exhausted else left)
    return live, certs, steps, exhausted, removed


def test_one_pass_search_reaches_the_fixed_point():
    second_passes = cheaper = issued = 0
    for pres, p, budget in pinned_cells():
        cover = knuth_bendix(initial_rules(build_p_cover(pres, p)), budget)
        spanning = list(pres.relators)
        rows = [
            tuple(e % p for e in words.exponent_vector(r, pres.arity))
            for r in spanning
        ]
        live, certs, report = hopf._reduce_spanning(spanning, rows, cover, p, budget)
        ref_live, ref_certs, ref_steps, ref_exhausted, removed = reference_search(
            spanning, rows, cover, p, budget, passes=len(spanning) + 1
        )
        cell = (pres.name, p)
        one_pass = reference_search(spanning, rows, cover, p, budget)[:4]
        assert (live, certs, report["steps"], report["exhausted"]) == one_pass, cell
        assert (live, certs) == (ref_live, ref_certs), cell
        assert report["steps"] <= ref_steps, cell
        assert report["exhausted"] <= ref_exhausted, cell
        assert not any(removed[1:]), cell
        second_passes += len(removed) > 1
        cheaper += report["steps"] < ref_steps
        # the certificates replay in issue order, each citing only members
        # still live, so no removal rests on another: they form no cycle
        assert replay_certificates(certs, spanning, cover), cell
        issued += len(certs)
    # the cells whose search_passes fell from 2 to 1, and those of them
    # whose search_steps fell
    assert (second_passes, cheaper) == (10, 7)
    assert issued == 10


# freely reduced words over three generators (letters 0..5)
reduced_words = st.lists(st.integers(min_value=0, max_value=5), max_size=12).map(
    words.free_reduce
)
# a*b*a^-1 is freely but not cyclically reduced: its powers cancel at the seams
SPECIAL_MEMBERS = ((), (0, 2, 1), (0, 2, 2, 1), (0,))


def product_by_concat(spanning, ridx, factors):
    """The test word as one free reduction of the whole product."""
    powers = [words.power(spanning[m], e) for m, e in factors]
    return bytes(words.concat(words.invert(spanning[ridx]), *powers))


@given(st.data())
def test_memo_word_matches_one_free_reduction_of_the_product(data):
    spanning = list(SPECIAL_MEMBERS) + data.draw(st.lists(reduced_words, max_size=4))
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    exponent = st.integers(min_value=1, max_value=p).flatmap(
        lambda e: st.sampled_from((e, -e))
    )
    index = st.integers(min_value=0, max_value=len(spanning) - 1)
    ridx = data.draw(index)
    factors = data.draw(st.lists(st.tuples(index, exponent), max_size=3))

    def memo_word(factors):
        # the search's memo, the only builder of test words it reduces
        node = hopf._Prefix(bytes(words.invert(spanning[ridx])))
        for m, e in factors:
            piece = bytes(words.power(spanning[m], 1 if e > 0 else -1))
            for _ in range(abs(e)):
                node = node.extend(m, piece)
        return node.word

    assert memo_word(factors) == product_by_concat(spanning, ridx, factors)
    # the removed member itself: the product cancels to the empty word
    assert memo_word([(ridx, 1)]) == b""


@given(st.data())
def test_memoized_search_equals_reducing_each_candidate_alone(data):
    # a*b*a^-1 cancels at its seams into memoized prefixes, a small
    # completion budget leaves the cover non-confluent, and a small
    # allowance runs out inside a memoized prefix
    relators = data.draw(st.lists(reduced_words, min_size=1, max_size=3))
    spanning = list(SPECIAL_MEMBERS) + relators
    p = data.draw(st.sampled_from((2, 3, 5)))
    # a cover that kills every member removes them fast; one that kills
    # the drawn ones only leaves long searches
    killed = spanning if data.draw(st.booleans()) else relators
    pres = Presentation(("a", "b", "c"), tuple(killed))
    cover_steps = data.draw(st.integers(min_value=50, max_value=2000))
    cover = knuth_bendix(initial_rules(build_p_cover(pres, p)), Budget(max_steps=cover_steps))
    rows = [tuple(e % p for e in words.exponent_vector(r, 3)) for r in spanning]
    spent = reference_search(spanning, rows, cover, p, Budget(max_steps=10**6))[2]
    # every allowance up to the steps the whole search spends, thinned
    # out on the longer searches
    for allowance in range(1, spent + 2, 1 + spent // 60):
        budget = Budget(max_steps=allowance)
        live, certs, report = hopf._reduce_spanning(spanning, rows, cover, p, budget)
        assert (live, certs, report["steps"], report["exhausted"]) == reference_search(
            spanning, rows, cover, p, budget
        )[:4]


def test_flagship_search_reduces_each_candidate_once(monkeypatch):
    # one call through hopf's module global per candidate, each on a
    # freely reduced word; the counts are those of BENCH_12.json
    seen = []
    reduce = hopf.reduce_with_allowance

    def counting(rws, word, allowance, *snapshots):
        seen.append(bytes(word) == bytes(words.free_reduce(word)))
        return reduce(rws, word, allowance, *snapshots)

    monkeypatch.setattr(hopf, "reduce_with_allowance", counting)
    res = run_pipeline(corpus("SL2Z7Z7_6GEN"), 7, Budget(max_steps=30_000))
    assert len(seen) == 3251
    assert all(seen)
    assert res.budget_report["search_steps"] == 30_000

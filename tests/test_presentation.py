"""Presentation grammar, substitution maps, simplification, corpus access."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import words
from hopfcalc.presentation import (
    ParseError,
    Presentation,
    apply_substitution,
    corpus,
    corpus_names,
    corpus_substitution,
    parse_presentation,
    parse_substitution,
    parse_word,
    render_presentation,
    render_word,
    simplify,
)

GENS = ("a", "b", "c")


def test_parse_word_basics():
    assert parse_word("a", GENS) == (0,)
    assert parse_word("a^-1", GENS) == (1,)
    assert parse_word("a*b", GENS) == (0, 2)
    assert parse_word("a^3", GENS) == (0, 0, 0)
    assert parse_word("a^0", GENS) == ()
    assert parse_word("(a*b)^2", GENS) == (0, 2, 0, 2)
    assert parse_word("[a,b]", GENS) == (1, 3, 0, 2)
    assert parse_word("a*a^-1", GENS) == ()
    assert parse_word(" a * b ^ 2 ", GENS) == (0, 2, 2)


def test_parse_word_nested():
    expected = words.concat(words.invert(words.commutator((0,), (2,))), (4,))
    assert parse_word("[a,b]^-1*c", GENS) == expected


@pytest.mark.parametrize(
    "bad",
    ["", "d", "a^", "(a", "a b", "[a b]", "a**b", "^2", "a)"],
)
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError):
        parse_word(bad, GENS)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_word("a*^2", GENS)
    assert exc.value.line == 1
    assert exc.value.col == 3


def test_parse_presentation_round_trip():
    text = (
        "# demo presentation\n"
        "gens: a b\n"
        "rel: a^4\n"
        "rel: [a,b]  # commuting pair\n"
    )
    p = parse_presentation(text, name="demo")
    assert p.generators == ("a", "b")
    assert p.relators == ((0, 0, 0, 0), (1, 3, 0, 2))
    assert p.name == "demo"
    assert p.arity == 2
    again = parse_presentation(render_presentation(p))
    assert again.generators == p.generators
    assert again.relators == p.relators


@pytest.mark.parametrize(
    "text",
    [
        "",
        "rel: a",
        "gens:",
        "gens: a a",
        "gens: 1a",
        "gens: a\ngens: b",
        "gens: a\nrel:",
        "gens: a\nrel: b",
        "gens: a\nwhat: now",
    ],
)
def test_parse_presentation_rejects(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("gens: a s:", "bad generator name 's:'", 9),
        ("gens: a a", "duplicate generator name", 9),
        ("  gens: b  a b", "duplicate generator name", 14),
    ],
)
def test_gens_line_errors_point_at_the_name(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("targets: 1x y", "bad generator name '1x'", 10),
        ("targets: x x", "duplicate generator name", 12),
        ("  targets: y  x y", "duplicate generator name", 17),
        ("targets:", "targets: line lists no generators", 1),
    ],
)
def test_targets_line_errors_point_at_the_name(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_substitution(text + "\nmap: a -> y\n")
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("gens: a\ngens: b", "duplicate gens: line", 2, 1),
        ("rel: a", "rel: before gens:", 1, 1),
        ("gens: a\n  what: now", "expected 'gens:' or 'rel:' line", 2, 3),
        ("# nothing here\n", "missing gens: line", 1, 1),
        ("gens: a\n  rel:  # empty", "empty relator", 2, 7),
    ],
)
def test_presentation_line_errors(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("targets: x\ntargets: y", "duplicate targets: line", 2, 1),
        ("targets: x\nmap: 1a -> x", "bad source generator '1a'", 2, 1),
        ("targets: x\nwhat: now", "expected 'targets:' or 'map:' line", 2, 1),
        ("map: a -> x", "map: before targets:", 1, 1),
        ("", "missing targets: line", 1, 1),
        ("targets: x\n  map: a x", "map: line needs '->'", 2, 3),
        ("targets: x\nmap: a -> x\nmap: a -> x", "duplicate map for 'a'", 3, 1),
        ("targets: x\nmap: a -> x*zz", "unknown generator 'zz'", 2, 13),
    ],
)
def test_substitution_line_errors(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_substitution(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((0, 1),))
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))


def test_render_word_groups_runs():
    assert render_word((0, 0, 3, 3, 4), GENS) == "a^2*b^-2*c"
    assert render_word((), GENS) == "a^0"
    with pytest.raises(ValueError):
        render_word((), ())


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=25))
def test_render_parse_round_trip(w):
    r = words.free_reduce(w)
    assert parse_word(render_word(r, GENS), GENS) == r


MAP_TEXT = "targets: x y\nmap: a -> x*y\nmap: b -> y^-1\n"


def test_parse_substitution():
    m = parse_substitution(MAP_TEXT)
    assert m.source_generators == ("a", "b")
    assert m.target_generators == ("x", "y")
    assert m.images == ((0, 2), (3,))


def test_apply_substitution():
    p = parse_presentation("gens: a b\nrel: a*b\nrel: b^2\n", name="demo")
    q = apply_substitution(p, parse_substitution(MAP_TEXT))
    assert q.generators == ("x", "y")
    # a*b -> (x y)(y^-1) = x, b^2 -> y^-2
    assert q.relators == ((0,), (3, 3))
    assert q.name == "demo/sub"


def test_apply_substitution_requires_matching_sources():
    p = parse_presentation("gens: a c\nrel: a^2\n")
    with pytest.raises(ValueError):
        apply_substitution(p, parse_substitution(MAP_TEXT))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "map: a -> x",
        "targets: x\nmap: a x",
        "targets: x\nmap: a -> zz",
        "targets: x x\nmap: a -> x",
        "targets: x\nmap: a -> x\nmap: a -> x",
    ],
)
def test_parse_substitution_rejects(text):
    with pytest.raises(ParseError):
        parse_substitution(text)


def test_simplify_drops_trivial_and_duplicate_relators():
    p = parse_presentation(
        "gens: a b\n"
        "rel: b*a^2*b^-1\n"
        "rel: a^-2\n"
        "rel: a*a^-1\n"
        "rel: [a,b]\n"
    )
    s = simplify(p)
    assert s.relators == ((0, 0), (1, 3, 0, 2))
    assert s.generators == p.generators


def test_corpus_inventory():
    names = corpus_names()
    assert len(names) == 11
    for name in names:
        p = corpus(name)
        assert p.name == name
        assert p.arity >= 1
    assert corpus("SL2_F2").arity == 2
    assert corpus("SL2Z7Z7_14GEN").arity == 14
    six = corpus("SL2Z7Z7_6GEN")
    assert six.arity == 6
    assert len(six.relators) == 32


def test_corpus_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown corpus entry 'NOPE'"):
        corpus("NOPE")


def test_corpus_substitution_links_the_two_flagship_entries():
    m = corpus_substitution("SL2Z7Z7_14TO6")
    assert m.source_generators == corpus("SL2Z7Z7_14GEN").generators
    assert m.target_generators == corpus("SL2Z7Z7_6GEN").generators

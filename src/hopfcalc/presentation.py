"""Finite presentations: text format, substitution maps, simplification, corpus.

File format (UTF-8, ``#`` starts a comment anywhere on a line):

    gens: a b c
    rel: a^4
    rel: [a,b]*c^-2

word   := term (``*`` term)*
term   := atom (``^`` integer)?
atom   := ident | ``(`` word ``)`` | ``[`` word ``,`` word ``]``
ident  := letter followed by letters, digits or underscores

``[u,v]`` expands to u^-1 v^-1 u v. Substitution maps use the same word
grammar:

    targets: x y
    map: a -> x*y^-1
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from . import words
from .words import Word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_NAME_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not _IDENT_RE.fullmatch(g):
                raise ValueError(f"bad generator name {g!r}")
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        arity = 2 * len(self.generators)
        for r in self.relators:
            if tuple(words.free_reduce(r)) != tuple(r):
                raise ValueError("relator not freely reduced")
            if any(x < 0 or x >= arity for x in r):
                raise ValueError("relator letter out of range")

    @property
    def arity(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class SubstitutionMap:
    source_generators: tuple[str, ...]
    target_generators: tuple[str, ...]
    images: tuple[Word, ...]  # one word over the targets per source generator

    def __post_init__(self):
        if len(self.images) != len(self.source_generators):
            raise ValueError("every source generator needs exactly one image")


class _WordParser:
    """Recursive-descent parser for the word grammar on a single line."""

    def __init__(self, text: str, line_no: int, col_base: int, gen_index: dict[str, int]):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.col_base = col_base
        self.gen_index = gen_index

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.col_base + self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_word(self) -> Word:
        parts = [self.parse_term()]
        while self.peek() == "*":
            self.pos += 1
            parts.append(self.parse_term())
        return words.concat(*parts)

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                raise self.error("expected integer exponent after '^'")
            self.pos = m.end()
            return words.power(atom, int(m.group()))
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            w = self.parse_word()
            self.expect(")")
            return w
        if ch == "[":
            self.pos += 1
            u = self.parse_word()
            self.expect(",")
            v = self.parse_word()
            self.expect("]")
            return words.commutator(u, v)
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected generator, '(' or '['")
        name = m.group()
        if name not in self.gen_index:
            raise self.error(f"unknown generator {name!r}")
        self.pos = m.end()
        return (words.positive_letter(self.gen_index[name]),)

    def finish(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("trailing input after word")


def _logical_lines(text: str):
    """Yield (line_no, content) with comments stripped, blanks skipped."""
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()
        if content.strip():
            yield i, content


def parse_word(text: str, generators: tuple[str, ...] | list[str], line_no: int = 1, col_base: int = 0) -> Word:
    gen_index = {g: i for i, g in enumerate(generators)}
    p = _WordParser(text, line_no, col_base, gen_index)
    w = p.parse_word()
    p.finish()
    return w


def _sections(text: str, head: str, body: str):
    """Read one ``head`` line, which comes first, and then ``body`` lines.

    Yields the head line's distinct generator names, then ``(line_no,
    col, rest)`` for each body line, ``rest`` being the text after the
    key from 0-based column ``col``.
    """
    names: list[str] | None = None
    for line_no, content in _logical_lines(text):
        stripped = content.lstrip()
        indent = len(content) - len(stripped)
        if stripped.startswith(head):
            if names is not None:
                raise ParseError(f"duplicate {head} line", line_no, indent + 1)
            names = []
            for m in _NAME_RE.finditer(content, indent + len(head)):
                g = m.group()
                if not _IDENT_RE.fullmatch(g):
                    raise ParseError(f"bad generator name {g!r}", line_no, m.start() + 1)
                if g in names:
                    raise ParseError("duplicate generator name", line_no, m.start() + 1)
                names.append(g)
            if not names:
                raise ParseError(f"{head} line lists no generators", line_no, indent + 1)
            yield tuple(names)
        elif stripped.startswith(body):
            if names is None:
                raise ParseError(f"{body} before {head}", line_no, indent + 1)
            col = indent + len(body)
            yield line_no, col, content[col:]
        else:
            raise ParseError(f"expected {head!r} or {body!r} line", line_no, indent + 1)
    if names is None:
        raise ParseError(f"missing {head} line", 1, 1)


def parse_presentation(text: str, name: str | None = None) -> Presentation:
    lines = _sections(text, "gens:", "rel:")
    generators = next(lines)
    relators = []
    for line_no, col, rest in lines:
        if not rest.strip():
            raise ParseError("empty relator", line_no, col + 1)
        relators.append(parse_word(rest, generators, line_no, col))
    return Presentation(generators, tuple(relators), name=name)


def render_word(word: Word, generators: tuple[str, ...] | list[str]) -> str:
    """Inverse of parse_word up to power grouping; ε renders as gen^0."""
    if not word:
        if not generators:
            raise ValueError("cannot render the empty word with no generators")
        return f"{generators[0]}^0"
    pieces = []
    i = 0
    while i < len(word):
        letter = word[i]
        j = i
        while j < len(word) and word[j] == letter:
            j += 1
        count = j - i
        exp = -count if words.is_inverse(letter) else count
        name = generators[words.generator_of(letter)]
        pieces.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(pieces)


def render_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    lines.extend("rel: " + render_word(r, p.generators) for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_substitution(text: str) -> SubstitutionMap:
    lines = _sections(text, "targets:", "map:")
    targets = next(lines)
    images: dict[str, Word] = {}
    for line_no, col, rest in lines:
        at = col - len("map:") + 1  # errors point at the key
        if "->" not in rest:
            raise ParseError("map: line needs '->'", line_no, at)
        src, img = rest.split("->", 1)
        src = src.strip()
        if not _IDENT_RE.fullmatch(src):
            raise ParseError(f"bad source generator {src!r}", line_no, at)
        if src in images:
            raise ParseError(f"duplicate map for {src!r}", line_no, at)
        images[src] = parse_word(img, targets, line_no, col + len(rest) - len(img))
    return SubstitutionMap(tuple(images), targets, tuple(images.values()))


def apply_substitution(p: Presentation, m: SubstitutionMap) -> Presentation:
    if tuple(m.source_generators) != tuple(p.generators):
        raise ValueError(
            "substitution sources do not match presentation generators: "
            f"{list(m.source_generators)} vs {list(p.generators)}"
        )
    image_of = list(m.images)
    new_relators = []
    for r in p.relators:
        parts = []
        for letter in r:
            img = image_of[words.generator_of(letter)]
            parts.append(words.invert(img) if words.is_inverse(letter) else img)
        new_relators.append(words.concat(*parts))
    suffix = f"{p.name}/sub" if p.name else None
    return Presentation(tuple(m.target_generators), tuple(new_relators), name=suffix)


def simplify(p: Presentation) -> Presentation:
    """Cyclically reduce relators, drop ε, drop exact duplicates up to inversion."""
    kept: list[Word] = []
    seen: set[Word] = set()
    for r in p.relators:
        core, _ = words.cyclic_reduce(r)
        if not core:
            continue
        if core in seen or words.invert(core) in seen:
            continue
        seen.add(core)
        kept.append(core)
    return Presentation(p.generators, tuple(kept), name=p.name)


_CORPUS_NAMES = (
    "GL2_Z",
    "SL2_Z",
    "SL2_F2",
    "SL2_F3",
    "SL2_F5",
    "SL2_ZI",
    "SL2_ZOMEGA",
    "SL2_ZSQRTM5",
    "PSL2_Z",
    "SL2Z7Z7_14GEN",
    "SL2Z7Z7_6GEN",
)

_corpus_cache: dict[str, Presentation] = {}


def corpus_names() -> tuple[str, ...]:
    return _CORPUS_NAMES


def corpus(name: str) -> Presentation:
    if name not in _CORPUS_NAMES:
        raise ValueError(f"unknown corpus entry {name!r}; available: {', '.join(_CORPUS_NAMES)}")
    if name not in _corpus_cache:
        text = resources.files("hopfcalc.corpus").joinpath(f"{name}.pres").read_text("utf-8")
        _corpus_cache[name] = parse_presentation(text, name=name)
    return _corpus_cache[name]


def corpus_substitution(name: str) -> SubstitutionMap:
    text = resources.files("hopfcalc.corpus").joinpath(f"{name}.sub").read_text("utf-8")
    return parse_substitution(text)

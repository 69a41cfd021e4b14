"""Mod-p homology dimensions of finitely presented groups.

Given G = F/K with K the normal closure of the relators, the first
homology dimension is read off the relator exponent matrix over F_p.
The second is reached through Hopf's formula: the relators span a
central elementary abelian subgroup A = K/K^p[F,K] inside the cover
group F/K^p[F,K], the mod-p abelianization map sends each spanning
element to its exponent vector, and dim H_2(G;F_p) is the kernel
dimension of that map restricted to A.

What keeps the pipeline honest is the bound kind.  The spanning set is a
set of relators whose size m bounds dim A from above, so ``m minus image
rank`` bounds h2.  It comes by one of four routes.  When the group has
a known finite order |G| that p does not divide, |G| annihilates H_1 and
H_2 (Brown, *Cohomology of Groups*, III.10), so A maps isomorphically
onto F_p^n: dim A is n, and the relators whose image rows are
independent, taken from the last relator back, are the spanning set,
with no cover built at all.  When no order is counted, a cover could
only shrink the spanning set by search; so when the image rank, the
one-relator bound, or the image rank plus a finite quotient's bound on
h2, already equals the relator count r, the lower bound meets m = r,
every relator is in the spanning set, and again no cover is built.
When p divides |G| and the cover may fit under ``ORDER_CAP``, the cover
is enumerated as a coset table (``cosets``) over a subgroup H of order
prime to p that meets A trivially, so A acts freely on the |C|/|H|
cosets: |C| gives dim A, with
p^(dim A) = |C|/|G|, and the relators whose elements of A are
independent, taken from the last relator back, are the spanning set, so
m is dim A.  Otherwise, and whenever an enumeration gives up, the cover
is completed as a rewriting system and the spanning set starts as the
full relator list and only ever shrinks under replayable certificates.
The search that shrinks it makes one pass over the members in input
order: members only leave, so a second pass would retest each survivor
on a subset of its candidate products, whose normal forms in the
finished cover system do not change, and would remove nothing.  From
below, certified sources bound dim A: order counting gives dim A itself,
the group counted through its confluent system and the cover through its
coset table or its confluent system, or as |G|·p^n on the coprime route;
A maps onto the relators' image in F_p^n, so the image rank is one;
the one-relator criterion gives 1; and with no order counted and h1 > 0,
``lower_bound`` reads a bound v on h2 off the coset tables of finite
nilpotent quotients (``cosets.bar_h2``), which gives the image rank plus
v.  h2 is exact exactly when the largest lower bound is m, so h2 = 0
is always exact, and so is every result of the coprime route, the
table route and the route on which the bounds met before any cover.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fplinalg, words
from .automaton import Snapshot
from .cosets import CosetTable, bar_h2, check_table, enumerate_cosets, walk
from .presentation import Presentation, render_word, simplify
from .rewrite import (
    DEFAULT_BUDGET,
    Budget,
    RewriteSystem,
    group_order,
    initial_rules,
    knuth_bendix,
    normal_form,
    reduce_with_allowance,
)
from .words import Word

# Largest group and cover order the exactness certification will count to.
ORDER_CAP = 20000
# Largest quotient the lower bound builds its Fox matrices for.
QUOTIENT_CAP = 500


class BoundKind(enum.Enum):
    """Whether a reported dimension is the true value or only an upper bound."""

    EXACT = "exact"
    UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class RemovalCertificate:
    """Proof that one spanning element is redundant.

    The removed word equals the product of the recorded factors in the
    cover group, so its image lies in the span of the survivors.
    ``factors`` holds (index, exponent) pairs over the original spanning
    list, each naming a member live when the certificate was issued,
    never the removed one; ``test_word`` is inverse(removed word) times
    the factor product, freely reduced, whose cover normal form was the
    empty word when the certificate was issued.  ``replay_certificates``
    walks a search's certificates in issue order, rebuilds each test
    word from that definition and rechecks all of it, liveness included.
    """

    removed_index: int
    removed_word: Word
    factors: tuple[tuple[int, int], ...]
    test_word: Word


@dataclass(frozen=True)
class HopfResult:
    """Immutable record of one pipeline run on one presentation at one prime.

    ``h2_kind`` also qualifies ``dim_a``: the spanning size is certified
    as dim A exactly when h2 is exact.
    """

    group: str | None
    generators: tuple[str, ...]
    prime: int
    n_generators: int
    h1_dim: int
    dim_a: int
    rank_image: int
    h2_value: int
    h2_kind: BoundKind
    spanning_set: tuple[Word, ...]
    candidates: tuple[tuple[tuple[int, ...], Word], ...]
    certificates: tuple[RemovalCertificate, ...]
    confluent_base: bool
    confluent_cover: bool
    budget_report: dict


def exponent_matrix(relators: Sequence[Word], n: int, p: int) -> np.ndarray:
    """One row per word: its exponent vector reduced mod p."""
    rows = [words.exponent_vector(r, n) for r in relators]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n) % p


def h1_dimension(pres: Presentation, p: int) -> int:
    """dim H_1(G;F_p) = n minus the rank of the relator exponent matrix.

    Abelianizing kills every commutator, so each relator only constrains
    F_p^n through its exponent vector.
    """
    fplinalg.require_prime(p)
    n = pres.arity
    return n - fplinalg.rank(exponent_matrix(pres.relators, n, p), p)


def build_p_cover(pres: Presentation, p: int) -> Presentation:
    """Present F/K^p[F,K] over the same generators.

    The relators are the p-th powers r^p together with the commutators
    [r, s] of every relator r against every generator s.  In the
    presented cover group the original relators become central elements
    of order dividing p; their images span the elementary abelian
    subgroup A that the spanning-set reduction works inside.
    """
    fplinalg.require_prime(p)
    rel: list[Word] = [words.power(r, p) for r in pres.relators]
    for r in pres.relators:
        for g in range(pres.arity):
            rel.append(words.commutator(r, (words.positive_letter(g),)))
    name = f"{pres.name}.cover{p}" if pres.name else None
    return simplify(Presentation(pres.generators, tuple(rel), name=name))


def image_matrix(spanning_set: Sequence[Word], n: int, p: int) -> np.ndarray:
    """Mod-p abelianized image of each spanning word, one matrix row each."""
    fplinalg.require_prime(p)
    for w in spanning_set:
        if any(x < 0 or x >= 2 * n for x in w):
            raise ValueError("word letter out of range for the given arity")
    return exponent_matrix(spanning_set, n, p)


# ---------------------------------------------------------------------------
# exactness certification


def _order_dim_a(
    base_order: int | None, cover_order: int | None, p: int
) -> int | None:
    """Exact dim A by order counting, or None when that is out of reach.

    The group's order comes from its confluent system, the cover's from
    its coset table on the table route (the table's size times the order
    of the subgroup it was enumerated over) or from its confluent system
    on the completion route; when both stay under the cap, the
    ratio of the two orders is p^{dim A}.  A missing order returns None:
    unknown, not zero.
    """
    if base_order is None or cover_order is None:
        return None
    ratio, r = divmod(cover_order, base_order)
    if r:
        raise ArithmeticError("group order does not divide cover order")
    d = 0
    while ratio % p == 0:
        ratio //= p
        d += 1
    if ratio != 1:
        raise ArithmeticError(
            "cover order over group order is not a power of the prime"
        )
    return d


def _quotient_relators(n: int, p: int) -> list[tuple[Word, ...]]:
    """The extra relators of the nilpotent quotients ``lower_bound`` tries, in order.

    For q = p, then p^2: x_i^q with the commutators [x_i, x_j], then
    x_i^q with the commutators [[x_i, x_j], x_l], for the quotients of
    class 1 and 2 whose generators have orders dividing q.
    """
    xs = [(words.positive_letter(i),) for i in range(n)]
    pairs = [words.commutator(u, v) for i, u in enumerate(xs) for v in xs[i + 1 :]]
    triples = [words.commutator(c, x) for c in pairs for x in xs]
    out = []
    for q in (p, p * p):
        powers = [words.power(x, q) for x in xs]
        out += [tuple(powers + pairs), tuple(powers + triples)]
    return out


def lower_bound(
    pres: Presentation, p: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[int, int]:
    """A lower bound v on h2 from finite quotients, and the order of the quotient that gave it.

    Each quotient of ``_quotient_relators`` is enumerated over the
    trivial subgroup, under ``budget.max_steps`` definitions and
    ``QUOTIENT_CAP`` cosets, and ``bar_h2`` reads v off its table, which
    it first proves an action of G by ``check_table``: that is all the
    bound rests on, not the enumerator.  The largest v is kept, and the
    quotients stop once v reaches r minus the image rank, the most any
    G-set can give.  A quotient that gives up is passed over, and with
    none the trivial quotient gives v = 0.  Each quotient is a finite
    p-group, so when h1 is 0 it is trivial and none is enumerated.
    """
    n, relators = pres.arity, pres.relators
    h1 = h1_dimension(pres, p)
    ceiling = len(relators) - n + h1
    v, order = 0, 1
    if h1 == 0:
        return v, order
    for extra in _quotient_relators(n, p):
        if v == ceiling:
            break
        table = enumerate_cosets(relators + extra, n, budget.max_steps, QUOTIENT_CAP)
        if table is not None:
            w = bar_h2(table, relators, p)
            if w > v:
                v, order = w, table.order
    return v, order


# ---------------------------------------------------------------------------
# spanning-set reduction


def _scale_row(row: tuple[int, ...], e: int, p: int) -> tuple[int, ...]:
    return tuple((e * x) % p for x in row)


def _join(word: bytes, piece: bytes) -> bytes:
    """word times piece, freely reduced.

    Both are freely reduced, so they cancel only at the seam: the
    word's tail against the piece's head.
    """
    k = 0
    n = min(len(word), len(piece))
    while k < n and word[-1 - k] ^ 1 == piece[k]:
        k += 1
    return word[: len(word) - k] + piece[k:]


class _Prefix:
    """inverse(removed member) times some factor copies, a node of the search's memo.

    ``word`` is their free reduction, and ``snapshot`` the reducer's
    state once it has read ``word``, taken when a test word with that
    prefix is reduced.  ``children`` holds the nodes one copy longer,
    keyed by the copy's piece (a member, or a member's inverse), all of
    them copies of one ``member``: a copy of another member replaces
    them.
    """

    __slots__ = ("word", "snapshot", "member", "children")

    def __init__(self, word: bytes):
        self.word = word
        self.snapshot: Snapshot | None = None
        self.member: int | None = None
        self.children: dict[bytes, _Prefix] = {}

    def extend(self, member: int, piece: bytes) -> _Prefix:
        """The node one copy of ``piece``, member or its inverse, longer."""
        if self.member != member:
            self.member, self.children = member, {}
        child = self.children.get(piece)
        if child is None:
            child = self.children[piece] = _Prefix(_join(self.word, piece))
        return child


def _reduce_path(cover: RewriteSystem, path: list[_Prefix], allowance: int):
    """``reduce_with_allowance`` of the test word, the last node's, resumed from the memo.

    Going up the path, a node is taken when its word is a prefix of the
    test word no longer than the last one taken: a later copy can cancel
    into a node's word, and so can leave a longer word earlier on the
    path.  The reduction resumes from the first node taken that has a
    snapshot, and takes one for each node taken on the way up to it, in
    ascending order of length as ``PrefixAutomaton.reduce`` reads them.
    """
    test = path[-1].word
    resume = None
    todo = []
    b = len(test)
    for node in reversed(path):
        if len(node.word) <= b and test.startswith(node.word):
            b = len(node.word)
            if node.snapshot is not None:
                resume = (b, node.snapshot)
                break
            todo.append(node)
    marks = dict.fromkeys(len(node.word) for node in reversed(todo))
    reduced = reduce_with_allowance(cover, test, allowance, resume, marks)
    for node in todo:
        node.snapshot = marks[len(node.word)]
    return reduced


def _products(target, others, rows, p):
    """Factor lists over ``others`` whose product has image ``target``, in search order.

    First ``()`` when ``target`` is zero, then each single member with
    residues 0..p-1, then the pairs m1 < m2 with residues 1..p-1.  A
    residue r is lifted to the exponents r and r - p, residue 0 to p and
    -p.  The pair index is built only when the stream reaches the pairs.
    """
    if not any(target):
        yield ()
    for m in others:
        for res in range(p):
            if _scale_row(rows[m], res, p) == target:
                # exponent 0 mod p still contributes a p-th power word
                for e in (p, -p) if res == 0 else (res, res - p):
                    yield ((m, e),)
    by_scaled: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for m in others:
        for res in range(1, p):
            by_scaled.setdefault(_scale_row(rows[m], res, p), []).append((m, res))
    for m1 in others:
        for res1 in range(1, p):
            left = _scale_row(rows[m1], res1, p)
            need = tuple((t - x) % p for t, x in zip(target, left))
            for m2, res2 in by_scaled.get(need, ()):
                if m2 > m1:
                    for e1 in (res1, res1 - p):
                        for e2 in (res2, res2 - p):
                            yield ((m1, e1), (m2, e2))


def _reduce_spanning(
    spanning: Sequence[Word],
    rows: Sequence[tuple[int, ...]],
    cover: RewriteSystem,
    p: int,
    budget: Budget,
):
    """Remove provably redundant spanning elements, in one pass in input order.

    A member is dropped when it equals a product of at most two other
    live members (integer exponents up to p in absolute value) in the
    cover group.  ``_products`` streams the candidate products whose
    abelianized image matches, a cheap necessary condition; the first
    whose test word has cover normal form ε removes the member.  Every
    normal form's rewrites come off one step allowance, ``left``, and
    the search stops at the first reduction that would need more than
    is left, reporting the whole allowance spent.  Every removal is
    recorded as a replayable certificate.  Test words are built in bytes
    by ``_join``, from the members and their inverses converted once per
    search, and reach the reducer freely reduced, as it requires;
    ``replay_certificates`` rebuilds them through ``words`` instead.

    One pass is the fixed point.  Live members only leave, so a second
    pass would try each survivor against a subset of the members it was
    tried against, and ``_products`` would yield a subsequence of the
    same factor lists and test words.  The cover system is finished, so
    each of those words has the non-empty normal form it had in this
    pass, and a second pass would remove nothing.

    A shared prefix is reduced once.  The test words for a removed
    member R are inverse(R)·m1^e1·m2^e2, and ``_products`` repeats the
    prefixes inverse(R), inverse(R)·m1^c and inverse(R)·m1^e1·m2^c many
    times.  One memo per removed member, a tree of ``_Prefix`` nodes,
    has a node at the end of inverse(R) and after each factor copy,
    with the prefix's free reduction and, once reduced, the reducer's
    snapshot there (see ``PrefixAutomaton.reduce``): its output, states
    and rewrite count once it has read the prefix and nothing after it.
    ``_reduce_path`` resumes from the longest prefix with a snapshot,
    passing over a node that a later seam cancels into, and takes
    snapshots at the prefixes after it.  A snapshot depends on its
    prefix alone, so every normal form and every count, the allowance
    running dry included, are those of reducing each test word from
    scratch, and so are the removals, ``steps`` and ``exhausted``.  A
    node keeps the children of one member only, so the memo holds
    inverse(R), the copies of the current m1 and, under the current two
    lifts of its residue, those of the current m2.
    """
    members = [bytes(w) for w in spanning]
    inverses = [bytes(words.invert(w)) for w in spanning]
    live = list(range(len(spanning)))
    certs: list[RemovalCertificate] = []
    left = budget.max_steps
    for ridx in range(len(spanning)):
        others = [m for m in live if m != ridx]
        root = _Prefix(inverses[ridx])
        for factors in _products(rows[ridx], others, rows, p):
            path = [root]
            for m, e in factors:
                piece = members[m] if e >= 0 else inverses[m]
                for _ in range(abs(e)):
                    path.append(path[-1].extend(m, piece))
            reduced = _reduce_path(cover, path, left)
            if reduced is None:
                return live, certs, {"steps": budget.max_steps, "exhausted": True}
            nf, applied = reduced
            left -= applied
            if nf == words.EMPTY:
                live.remove(ridx)
                test = tuple(path[-1].word)
                certs.append(RemovalCertificate(ridx, spanning[ridx], factors, test))
                break
    return live, certs, {"steps": budget.max_steps - left, "exhausted": False}


def replay_certificates(
    certs: Sequence[RemovalCertificate], spanning: Sequence[Word], cover: RewriteSystem
) -> bool:
    """Recheck a search's removal certificates, in issue order, against the cover system.

    Each test word is rebuilt from its definition by ``words``, not by
    the search's byte joins, so replay shares only ``normal_form`` with
    the search.  Each certificate may cite only members of ``spanning``
    still live when it comes: never the removed member, which makes the
    product trivially its own, and never one removed by an earlier
    certificate, so that no two removals rest on each other.
    """
    live = set(range(len(spanning)))
    for cert in certs:
        ridx = cert.removed_index
        if ridx not in live or cert.removed_word != spanning[ridx]:
            return False
        live.remove(ridx)
        if any(m not in live for m, _ in cert.factors):
            return False
        test = words.concat(
            words.invert(spanning[ridx]),
            *(words.power(spanning[m], e) for m, e in cert.factors),
        )
        if test != cert.test_word or normal_form(cover, test) != words.EMPTY:
            return False
    return True


# ---------------------------------------------------------------------------
# assembling the result


def _table_basis(
    table: CosetTable, relators: Sequence[Word], p: int
) -> tuple[list[int], int]:
    """Relators whose elements of A form a basis, and the size of their span.

    A relator's element is the coset its word leads to from coset 0.
    Going from the last relator back, one is kept when its element lies
    outside the span of those kept so far, and the span grows by its
    multiples.  Returns the kept indices in input order.
    """
    span = {0}
    kept = []
    for i in reversed(range(len(relators))):
        w = relators[i]
        if walk(table, 0, w) in span:
            continue
        kept.append(i)
        layer = list(span)
        for _ in range(p - 1):
            layer = [walk(table, c, w) for c in layer]
            span.update(layer)
    return kept[::-1], len(span)


def _image_basis(rows: np.ndarray, p: int) -> list[int]:
    """Relators whose image rows are independent, taken from the last relator back.

    One elimination of the reversed rows as columns: a pivot column is
    one outside the span of the columns before it.  Returns the kept
    indices in input order; their number is the image rank.  When A
    maps injectively to F_p^n, these are the relators ``_table_basis``
    keeps.
    """
    r = len(rows)
    _, pivots = fplinalg.rref(rows[::-1].T, p)
    return sorted(r - 1 - j for j in pivots)


def _p_prime_subgroup(table: CosetTable, p: int) -> tuple[list[Word], int]:
    """Words u_i = x_i^(p^(s+1)) whose images generate a p′-subgroup Q of G, and |Q|.

    ``table`` is the group's right regular action, so coset 0 is the
    identity, the cycle of x_i's column through it has ord(x_i) cosets,
    and the orbit of coset 0 under a subgroup is that subgroup.  With
    ord(x_i) = p^s·m and p not dividing m, u_i has order m; each u_i
    with m > 1 is kept, in generator order, while the orbit of coset 0
    under the kept images stays of order prime to p.
    """
    columns = [np.asarray(col) for col in table.columns[::2]]
    kept: list[Word] = []
    perms: list[list[int]] = []
    q_order = 1
    for i, col in enumerate(columns):
        order, c = 1, int(col[0])
        while c:
            c, order = int(col[c]), order + 1
        k = p
        while order % p == 0:
            order //= p
            k *= p
        if order == 1:
            continue
        # the permutation col^k, by repeated squaring
        perm, square, e = np.arange(table.order), col, k
        while e:
            if e & 1:
                perm = square[perm]
            square, e = square[square], e >> 1
        trial = perms + [perm.tolist()]
        orbit, seen = [0], {0}
        for c in orbit:  # grows while it is read
            for image in trial:
                if image[c] not in seen:
                    seen.add(image[c])
                    orbit.append(image[c])
        if len(orbit) % p:
            kept.append(words.power((words.positive_letter(i),), k))
            perms, q_order = trial, len(orbit)
    return kept, q_order


def _cover_table(
    pres: Presentation,
    cover_pres: Presentation,
    base_order: int,
    p: int,
    budget: Budget,
) -> tuple[CosetTable, int, int] | None:
    """The cover's coset table over a p′-subgroup H, |H|, and the definitions it took.

    None when an enumeration gives up.  The base is enumerated first,
    over the trivial subgroup, and its table must pass ``check_table``
    and have the counted order |G|, which makes it the regular action.
    ``_p_prime_subgroup`` reads from it the words u_i, whose images in
    G generate a subgroup Q of order prime to p.  The cover C is then
    enumerated over H = ⟨u_i⟩, with the definitions the base left and
    the cap ``ORDER_CAP // |Q|``, so its table has |C|/|Q| cosets.

    Why it is sound.  Let ord_G(x_i) = p^s·m with p not dividing m.
    x_i^(p^s·m) is trivial in G, so in C it lies in A = K/K^p[F,K],
    which has exponent p; so u_i^m = 1 in C, and u_i's image in G has
    order m, so ord_C(u_i) = m.  The preimage of Q in C is an extension
    of Q by the central p-group A, with |Q| prime to p, so it splits as
    A × Q₀ (Schur–Zassenhaus), and Q₀ holds its elements of order prime
    to p.  So each u_i lies in Q₀; H maps onto Q, so H = Q₀, |H| = |Q|
    and H ∩ A = 1.  A central element a fixes a coset Hc only when
    a ∈ H, so A acts freely on the cosets, and a relator's element of A
    is still the coset its word leads to from coset 0.  From below,
    ``check_table`` on the cover relators and each u_i fixing coset 0
    certify |C| ≥ N·|H| ≥ N·|Q|, N the number of cosets; that the
    stabilizer of coset 0 is H, so |C| = N·|Q|, rests on the enumerator
    (coset enumeration over a subgroup: Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 5), as
    regularity did over the trivial subgroup.
    """
    n = pres.arity
    base = enumerate_cosets(pres.relators, n, budget.max_steps, ORDER_CAP)
    if base is None:
        return None
    check_table(base, pres.relators)
    if base.order != base_order:
        raise ArithmeticError("the base's coset table and its counted order differ")
    subgroup, q_order = _p_prime_subgroup(base, p)
    left = budget.max_steps - base.definitions
    table = enumerate_cosets(
        cover_pres.relators, n, left, ORDER_CAP // q_order, subgroup
    )
    if table is None:
        return None
    check_table(table, cover_pres.relators)
    if any(walk(table, 0, u) for u in subgroup):
        raise ArithmeticError("a subgroup word moves coset 0 of the cover table")
    return table, q_order, base.definitions + table.definitions


def run_pipeline(
    pres: Presentation,
    p: int,
    budget: Budget = DEFAULT_BUDGET,
) -> HopfResult:
    """Run the whole computation for one presentation at one prime.

    dim A lies in [lower, m], m the reduced spanning size, and h2 is
    exact iff lower == m.  lower is the order count when there is one,
    else the largest of the image rank, the one-relator criterion's 1
    and, when those stay below the relator count r, the image rank plus
    ``lower_bound``'s v, read off finite quotients (it enumerates none
    when h1 is 0).  A source above the order count, or lower above m,
    raises ``ArithmeticError``, so a quotient bound that crosses the
    final spanning size is refused.

    Four routes lead to the spanning set.  When the base has a known
    order |G| that p does not divide, H_1 and H_2 vanish, so dim A is n
    and the spanning set is the relators at the pivots of their image
    rows, taken from the last relator back (``_image_basis``): no
    cover is built, enumerated or completed, and an image rank below n
    raises ``ArithmeticError``.  When no order is counted and the
    largest lower source is already the relator count r, lower meets
    m = r before any cover:
    the spanning set is every relator, h2 = r minus the image rank is
    exact, and no cover is built, completed or searched; the quotient
    bound closes cells this way, as PSL2_Z at p = 2, 3.  Without an
    order count the cover's only use is the search, and a removal
    there would put m below lower, so skipping it changes no answer.
    When p divides |G| and
    |G|·p^(image rank) is within ``ORDER_CAP``, the base
    and then the cover are enumerated as coset tables, the cover over a
    subgroup H of order |Q| prime to p (``_cover_table``, which says
    why that is sound), the two sharing ``budget.max_steps`` coset
    definitions.  A cover table of N cosets that passes the checks
    gives the cover order N·|Q|, so dim A, and a basis of A among the
    relators (``_table_basis``), which is the spanning set: no cover
    completion, no search and no certificates.  A base table of another
    order than |G|, a subgroup word that moves coset 0, a basis of
    another size than dim A, or a span of another size than |C|/|G|,
    raises ``ArithmeticError``.  Every other input, and every
    enumeration that gives up, takes the completion route: the cover is
    completed and counted, and ``_reduce_spanning`` shrinks the
    relators under certificates.
    """
    fplinalg.require_prime(p)
    base = knuth_bendix(initial_rules(pres), budget)
    base_order = group_order(base, ORDER_CAP)

    n = pres.arity
    relators = list(pres.relators)
    rows = exponent_matrix(relators, n, p)
    pivots = _image_basis(rows, p)
    rank_all = len(pivots)
    # Certified lower bounds on dim A; order counting gives dim A itself.
    # A maps onto the row space of the exponent matrix, so dim A is at
    # least its rank.  One-relator criterion: a lone relator that is
    # not a proper power freely generates the relation module, so its
    # class in A is nonzero.
    nontrivial = [r for r in relators if r]
    one_relator = (
        len(nontrivial) == 1
        and words.proper_power_root(words.cyclic_reduce(nontrivial[0])[0])[1] == 1
    )
    sources = (rank_all, int(one_relator))
    if base_order is None and max(sources) < len(relators):
        # a finite quotient's bound on h2, over the image rank
        sources += (rank_all + lower_bound(pres, p, budget)[0],)
    coprime = base_order is not None and base_order % p != 0
    # with no order to count, a cover can only feed the search, and
    # when the bounds already meet at every relator it can remove none
    bounds_met = base_order is None and max(sources) == len(relators)
    cover_pres = enumerated = None
    if not (coprime or bounds_met):
        cover_pres = build_p_cover(pres, p)
        if base_order is not None and base_order * p**rank_all <= ORDER_CAP:
            enumerated = _cover_table(pres, cover_pres, base_order, p, budget)

    certs, search = (), {"steps": 0, "exhausted": False}
    cover_rules, cover_steps, cover_limited, confluent_cover = 0, 0, False, True
    if coprime:
        if rank_all != n:
            raise ArithmeticError("h1 is not 0 though p does not divide the group's order")
        live = pivots
        dim_a, cover_order = n, base_order * p**n
    elif bounds_met:
        live = list(range(len(relators)))
        dim_a = cover_order = None
        confluent_cover = False
    elif enumerated is not None:
        table, q_order, cover_steps = enumerated
        cover_order = table.order * q_order
        dim_a = _order_dim_a(base_order, cover_order, p)
        live, span = _table_basis(table, relators, p)
        if len(live) != dim_a or span != cover_order // base_order:
            raise ArithmeticError("the relators' elements in the cover table do not span A")
    else:
        cover = knuth_bendix(initial_rules(cover_pres), budget)
        cover_order = group_order(cover, ORDER_CAP)
        dim_a = _order_dim_a(base_order, cover_order, p)
        live, certs, search = _reduce_spanning(
            relators, [tuple(r) for r in rows.tolist()], cover, p, budget
        )
        cover_rules, cover_steps, cover_limited, confluent_cover = (
            len(cover.rules), cover.steps, cover.limited, cover.confluent
        )
    h1 = n - rank_all

    final = [relators[i] for i in live]
    mat = rows[live]
    m = len(final)
    kernel = fplinalg.left_kernel_basis(mat, p)
    rank = m - len(kernel)
    if rank != rank_all:
        raise ArithmeticError("spanning reduction changed the image rank")

    lower = max(sources) if dim_a is None else dim_a
    if not max(sources) <= lower <= m:
        raise ArithmeticError("certified bounds on dim A cross")
    kind = BoundKind.EXACT if lower == m else BoundKind.UPPER_BOUND

    candidates = []
    for c in kernel:
        # each product is reduced before m of them are summed: no int64 overflow
        if np.any((c[:, None] * mat % p).sum(axis=0) % p):
            raise ArithmeticError("kernel vectors fail to annihilate the image matrix")
        coeffs = tuple(int(x) for x in c)
        parts = [words.power(w, e) for w, e in zip(final, coeffs) if e]
        word = words.concat(*parts)
        if any(e % p for e in words.exponent_vector(word, n)):
            raise ArithmeticError("candidate word fails the abelianized kernel test")
        candidates.append((coeffs, word))

    report = {
        "base_rules": len(base.rules),
        "base_steps": base.steps,
        "base_limited": base.limited,
        "cover_rules": cover_rules,
        "cover_steps": cover_steps,
        "cover_limited": cover_limited,
        "group_order": base_order,
        "cover_order": cover_order,
        "order_dim_a": dim_a,
        "spanning_initial": len(relators),
        "initial_bound": len(relators) - rank_all,
        "removals": len(relators) - m,
        "search_passes": 1,
        "search_steps": search["steps"],
        "search_exhausted": search["exhausted"],
    }
    return HopfResult(
        group=pres.name,
        generators=pres.generators,
        prime=p,
        n_generators=n,
        h1_dim=h1,
        dim_a=m,
        rank_image=rank,
        h2_value=len(kernel),
        h2_kind=kind,
        spanning_set=tuple(final),
        candidates=tuple(candidates),
        certificates=tuple(certs),
        confluent_base=base.confluent,
        confluent_cover=confluent_cover,
        budget_report=report,
    )


def to_json(result: HopfResult) -> dict:
    """Serializable record; key set and order are part of the output contract.

    The budget block has the same keys, and each value the same type, on
    every route.  On every route but completion ``cover_rules`` and
    ``search_steps`` are 0 and ``cover_limited`` and ``search_exhausted``
    are false.  On the coprime and the table route ``confluent_cover``
    is true, since the cover is known completely.  On the coprime route
    ``cover_steps`` is 0, as no cover is enumerated, ``cover_order`` is
    |G|·p^n and ``order_dim_a`` is n.  On the table route
    ``cover_steps`` counts the coset definitions of the base's and the
    cover's enumerations together, and ``cover_order`` is the cover
    table's size times the order of the subgroup it was enumerated over.
    Where the bounds met before any cover, ``cover_steps`` is 0,
    ``confluent_cover`` is false, as no cover exists, and
    ``cover_order`` and ``order_dim_a`` are null, as no order is counted.
    On all four, ``removals`` is the relators left out of the spanning
    set, so ``h2 == initial_bound - removals``.
    """
    gens = result.generators
    return {
        "group": result.group,
        "prime": result.prime,
        "n_generators": result.n_generators,
        "h1_dim": result.h1_dim,
        "dim_A": result.dim_a,
        "dim_A_kind": result.h2_kind.value,
        "rank_image": result.rank_image,
        "h2_value": result.h2_value,
        "h2_kind": result.h2_kind.value,
        "confluent_base": result.confluent_base,
        "confluent_cover": result.confluent_cover,
        "spanning_set": [render_word(w, gens) for w in result.spanning_set],
        "candidates": [
            {"coeffs": list(c), "word": render_word(w, gens)}
            for c, w in result.candidates
        ],
        "budget": dict(result.budget_report),
    }

"""Univalence of maps in a finite presheaf topos.

The nerve of a map p: E -> B is the internal category whose objects are B
and whose morphisms over (a, b) are fiberwise maps E_a -> E_b, built as a
dependent product.  p is univalent when that internal category is
complete: every internal isomorphism of fibers is an identity.  The
verdict reads the category object alone: its object of equivalences is
the sub-presheaf of isomorphisms of C1, and the sizes of its nerve are
counted; the nerve itself, as a simplicial object, is not built.
"""

from __future__ import annotations

from collections import Counter
from operator import getitem

from .elements import Atom, FinFunction, FinSet, getter, pick
from .fincat import check_bound
from .topos import (
    DependentProduct,
    InternalCheckError,
    NatTrans,
    Presheaf,
    Topos,
    classify_mono,
    comma_presheaf,
    dependent_product,
    enumerate_nat_trans,
    finset_topos,
    is_iso,
    is_mono,
    ps_product,
    ps_pullback,
    slice_exponential,
    subobject_classifier,
    yoneda,
)
from . import segal
from .segal import (
    CategoryObject,
    CategoryObjectError,
    composable_pairs,
    isomorphisms,
    nerve_level_sizes,
)

# No call here needs it: perfbench/test_perfbench.py checks that its
# tracer patches this module's binding of hoequiv.
hoequiv = segal.hoequiv


class NerveOfMap:
    """The fiberwise-map object M of a map and the category object on it;
    ``segal.nerve_truncation(cat)`` builds its nerve up to level 3."""

    __slots__ = ("M", "cat")

    def __init__(self, M: DependentProduct, cat: CategoryObject):
        self.M = M  # fiberwise-map object over B x B
        self.cat = cat


def nerve_of_map(p: NatTrans) -> NerveOfMap:
    """The internal category of fiberwise maps of p.  Its unit is the
    family of identities: M over (b, b) holds id_b, and the unit laws that
    CategoryObject checks give e(b) = m(e(b), id_b) = id_b, so no other
    section passes them."""
    E, B = p.dom, p.cod
    T = E.topos
    # M = (p x id)_* (E x E -> E x B) as a slice over B x B
    ee = ps_product([E, E])
    eb = ps_product([E, B])
    bb = ps_product([B, B])
    proj = eb.mediate(ee.apex, [ee.legs[0], ee.legs[1].then(p)])
    p_times_id = bb.mediate(eb.apex, [eb.legs[0].then(p), eb.legs[1]])
    M = dependent_product(p_times_id, proj)
    s = M.proj.then(bb.legs[0])
    t = M.proj.then(bb.legs[1])
    identity = NatTrans.identity
    e = _identity_section(
        M, eb.legs[0], ee.mediate(E, [identity(E)] * 2), bb.mediate(B, [identity(B)] * 2)
    )
    cone = composable_pairs(T, B, M.total, s, t, 2)
    try:
        m, rep = _fiberwise_composition(M, eb.legs[0], ee.legs[1], bb, cone)
        cat = CategoryObject(T, B, M.total, s, t, e, cone, m, rep)
    except CategoryObjectError as exc:
        raise InternalCheckError(
            "fiberwise maps do not form a category object: " + exc.problems[0]
        ) from exc
    return NerveOfMap(M, cat)


def _identity_section(M: DependentProduct, first: NatTrans, graph: NatTrans, diagonal: NatTrans) -> NatTrans:
    """The unit B -> M: over (b, b), given by ``diagonal`` B -> B x B,
    the family sending each key (u, (e0, b')) to graph(e0), for ``first``
    the projection (e0, b') -> e0 and ``graph`` the diagonal E -> E x E,
    that is to (e0, e0)."""
    return M.transpose(diagonal, lambda d, k, a: graph.component[d].idx[first.component[d].idx[a]])


def _fiberwise_composition(M: DependentProduct, first: NatTrans, second: NatTrans, bb, cone):
    """(m, {c: rho}): m on composable pairs of fiberwise maps, by position.

    M's fan of (b, b') at c has the keys (u: d -> c, (e0, B(u)(b'))) with
    e0 in E(d) over B(u)(b), ``first`` reading e0 off the pair: as pairs
    (u, e0) they and their order depend on the source b only.  M stores a
    family as the positions of its values (e0, e1) in E x E; here it
    becomes rho, the tuple that sends the place of each key (u, e0) among
    the keys of b to the place among the keys of b' of (u, e1), ``second``
    reading e1 off the value.  One table per key turns a value position
    into that place.  The composite of a pair is then a gather of rho's,
    by one getter per family, looked up by its endpoints (b, b'') and its
    rho; rho is the category object's ``rep``.  A value with no key, or
    one rho for two families, raises ``CategoryObjectError``."""
    e0 = {d: f.idx for d, f in first.component.items()}
    component, rep = {}, {}
    for c in M.base.topos.index.objects:
        src, tgt = bb.legs[0].component[c].idx, bb.legs[1].component[c].idx
        # b -> the place of each key (u, e0) of b, read off any (b, b')
        where = {}
        for q, b in enumerate(src):
            if b not in where:
                where[b] = {(u, e0[d][a]): i for i, (u, d, a) in enumerate(M.fans[(c, q)])}
        # q -> the table of each key of the fan of (b, b'), shared by (u, b')
        tables, shared = [], {}
        for q, b2 in enumerate(tgt):
            per_key = []
            for u, d, _ in M.fans[(c, q)]:
                table = shared.get((u, b2))
                if table is None:
                    into = where[b2]
                    e1 = second.component[d].idx
                    table = shared[(u, b2)] = tuple([into.get((u, y)) for y in e1])
                per_key.append(table)
            tables.append(per_key)
        lookup = {}  # (b, b'', rho) -> position
        owners, rho = M.proj.component[c].idx, []
        for k, (q, values) in enumerate(zip(owners, M.sections[c])):
            r = tuple(list(map(getitem, tables[q], values)))
            rho.append(r)
            if None in r:
                raise CategoryObjectError([f"a value of family {k} at {c!r} has no key"])
            key = (src[q], tgt[q], r)
            if lookup.setdefault(key, k) != k:
                raise CategoryObjectError([f"families {lookup[key]} and {k} at {c!r} share rho"])
        f1s, f2s = cone.legs[0].component[c].idx, cone.legs[2].component[c].idx
        gets = [getter(r) for r in rho]
        composed = [g(r) for g, r in zip(pick(gets, f1s), pick(rho, f2s))]
        ends = zip(pick(src, pick(owners, f1s)), pick(tgt, pick(owners, f2s)), composed)
        out = tuple(list(map(lookup.get, ends)))
        if None in out:
            raise InternalCheckError("composite family is not a product element")
        component[c] = FinFunction.from_idx(cone.apex.at[c], M.total.at[c], out)
        rep[c] = tuple(rho)
    return NatTrans(cone.apex, M.total, component), rep


# ---------------------------------------------------------------------------
# univalence


class UnivalenceReport:
    __slots__ = (
        "name", "univalent", "mono", "carrier_sizes", "level_sizes", "oracle",
        "oracle_agrees",
    )

    def __init__(
        self,
        name: str,
        univalent: bool,
        mono: bool,
        carrier_sizes: dict,
        level_sizes: dict,
        oracle: bool | None,
        oracle_agrees: bool | None,
    ):
        self.name = name
        self.univalent = univalent
        self.mono = mono
        self.carrier_sizes = carrier_sizes  # index object repr -> carrier cardinality
        self.level_sizes = level_sizes  # n -> total cardinality of nerve level n
        self.oracle = oracle  # fiber oracle verdict, when the topos is FinSet
        self.oracle_agrees = oracle_agrees


def is_univalent(p: NatTrans, name: str = "p") -> UnivalenceReport:
    """Whether the nerve of the fiberwise-map category of p is complete:
    the unit e: B -> Iso(C1) into its isomorphisms is iso, so every
    internal isomorphism of fibers is an identity.  Over finite sets the
    fiber oracle decides too, and the report says whether they agree."""
    nerve = nerve_of_map(p)
    eq = isomorphisms(nerve.cat)
    univalent = is_iso(eq.s0_lift)
    oracle = None
    agrees = None
    if is_finset_topos(p.dom.topos):
        oracle = fiber_oracle_univalent(p)
        agrees = oracle == univalent
    return UnivalenceReport(
        name=name,
        univalent=univalent,
        mono=is_mono(p),
        carrier_sizes={repr(c): len(s) for c, s in eq.carrier.at.items()},
        level_sizes=nerve_level_sizes(nerve.cat),
        oracle=oracle,
        oracle_agrees=agrees,
    )


def is_finset_topos(T: Topos) -> bool:
    """Whether T is presheaves on the point, that is finite sets."""
    return len(T.index.objects) == 1 and len(T.index.morphisms) == 1


def fiber_oracle_univalent(p: NatTrans) -> bool:
    """Reference implementation for maps of finite sets: every fiber has at
    most one element and no two fibers have the same cardinality."""
    if not is_finset_topos(p.dom.topos):
        raise ValueError("fiber oracle only applies over the one-point index")
    star = p.dom.topos.index.objects.elements[0]
    func = p.component[star]
    sizes = []
    for b in p.cod.at[star]:
        sizes.append(sum(1 for a in func.dom if func(a) == b))
    return all(n <= 1 for n in sizes) and len(set(sizes)) == len(sizes)


def fiber_iso_counts(p: NatTrans) -> dict:
    """For each stage c and points b, b2 of B(c): the number of isomorphisms
    over y(c) between the fibers b*E and b2*E, keyed by (c, b, b2).

    The fiber b*E is the comma presheaf of pairs (u: d -> c, a) with
    p(a) = B(u)(b), lying over y(c) by (u, a) -> u.  Only enumeration of
    natural transformations is used: no dependent product, nerve or Z(3)."""
    T = p.dom.topos
    counts = {}
    for c in T.index.objects:
        yc = yoneda(T, c)
        fibers = {}
        for b in p.cod.at[c]:
            L, _ = comma_presheaf(p, c, b)
            to_c = {
                d: FinFunction(L.at[d], yc.at[d], {k: k[0] for k in L.at[d]})
                for d in T.index.objects
            }
            fibers[b] = (L, NatTrans(L, yc, to_c))
        for b, (L, to_c) in fibers.items():
            for b2, (L2, to_c2) in fibers.items():
                counts[(c, b, b2)] = sum(
                    1
                    for f in enumerate_nat_trans(L, L2, over=(to_c, to_c2))
                    if is_iso(f)
                )
    return counts


def presheaf_oracle_univalent(p: NatTrans) -> bool:
    """Reference implementation for any finite presheaf topos: p is
    univalent when, at every stage c, the fibers over points b, b2 of B(c)
    have exactly one isomorphism over y(c) if b = b2 and none otherwise."""
    counts = fiber_iso_counts(p)
    return all(n == (1 if b == b2 else 0) for (_, b, b2), n in counts.items())


# ---------------------------------------------------------------------------
# enumeration of univalent maps in finite sets


def _finset_map(signature: tuple, T: Topos | None = None) -> NatTrans:
    """Canonical map of finite sets with the given tuple of fiber sizes, in
    T (finite sets under the default bound when omitted)."""
    T = finset_topos() if T is None else T
    star = T.index.objects.elements[0]
    bs = [Atom(f"b{i}") for i in range(len(signature))]
    es = []
    table = {}
    for i, size in enumerate(signature):
        for j in range(size):
            a = Atom(f"e{i}_{j}")
            es.append(a)
            table[a] = bs[i]
    dom = Presheaf(T, {star: FinSet(es)}, {T.index.id_of(star): FinFunction.identity(FinSet(es))})
    cod = Presheaf(T, {star: FinSet(bs)}, {T.index.id_of(star): FinFunction.identity(FinSet(bs))})
    return NatTrans(dom, cod, {star: FinFunction(FinSet(es), FinSet(bs), table)})


def arrows_isomorphic(p: NatTrans, q: NatTrans) -> bool:
    """Whether there is a commuting pair of isomorphisms between two maps."""
    for f_B in enumerate_nat_trans(p.cod, q.cod):
        if not is_iso(f_B):
            continue
        for f_E in enumerate_nat_trans(p.dom, q.dom, over=(p.then(f_B), q)):
            if is_iso(f_E):
                return True
    return False


def fiber_signatures(max_e: int, max_b: int) -> list[tuple]:
    """The fiber signatures of the maps of finite sets with |E| <= max_e
    and |B| <= max_b: the non-decreasing tuples of at most max_b fiber
    sizes that sum to at most max_e, in sorted order: that of a depth-first
    walk listing each tuple before its extensions, smaller sizes first."""
    out = []
    stack = [()]
    while stack:
        sig = stack.pop()
        out.append(sig)
        if len(sig) < max_b:
            start = sig[-1] if sig else 0
            stack.extend(sig + (size,) for size in range(max_e - sum(sig), start - 1, -1))
    return out


def fiber_signature_count(max_e: int, max_b: int) -> int:
    """len(fiber_signatures(max_e, max_b)), without listing them: a
    non-decreasing tuple of k sizes summing to n is a partition of n into
    at most k parts, counted as one into parts of size at most k."""
    ways = [1] + [0] * max_e  # ways[n]: partitions of n into parts <= k
    total = 1  # k = 0: the empty tuple
    for k in range(1, max_b + 1):
        for n in range(k, max_e + 1):
            ways[n] += ways[n - k]
        total += sum(ways)
    return total


def composable_pair_count(signature: tuple) -> int:
    """|X2| of the nerve of the map of finite sets with fiber sizes k, the
    sweep's largest limit, unbuilt: with M(i, j) = k_j ** k_i maps from
    fiber i to fiber j it is sum_j (sum_i M(i, j)) * (sum_l M(j, l)).
    Equal sizes are counted once, with their multiplicity."""
    sizes = Counter(signature).items()
    return sum(n * sum(m * j**i for i, m in sizes) * sum(m * l**j for l, m in sizes) for j, n in sizes)


def enumerate_univalent(T: Topos, max_E: int, max_B: int) -> list[tuple[tuple, NatTrans]]:
    """All univalent maps of finite sets with |E| <= max_E and |B| <= max_B,
    one per isomorphism class of arrows, as (fiber signature, map) pairs in
    deterministic order.  Two maps of finite sets are isomorphic arrows iff
    their sorted fiber sizes are equal, so one map per sorted signature is
    one per class.  Every bound error comes before any map is built: the
    signatures are counted, then the composable pairs of each, in order.

    Then the maps are built in T and decided by length, in signature order
    within a length, so an error is that of the first signature in that
    order that raises.  A signature is decided only when every signature
    with one fiber deleted was found univalent; otherwise its map is not
    univalent and is not built.  Deleting fiber i pulls p back along the
    mono B - {b_i} -> B, and a pullback of a univalent map along a mono is
    univalent (Gepner & Kock, arXiv 1208.1749): its classifying map is a
    mono followed by a mono.  By induction one-fiber deletions suffice,
    and each is itself a signature of the sweep."""
    if not is_finset_topos(T):
        raise ValueError("enumeration is only implemented over the one-point index")
    check_bound(fiber_signature_count(max_E, max_B), T.bound, "fiber_signatures")
    signatures = fiber_signatures(max_E, max_B)
    for sig in signatures:
        check_bound(composable_pair_count(sig), T.bound, "composable_pairs")
    found = {}
    for sig in sorted(signatures, key=len):
        if all(sig[:i] + sig[i + 1:] in found for i in range(len(sig))):
            p = _finset_map(sig, T)
            if is_univalent(p, name=str(sig)).univalent:
                found[sig] = p
    return [(sig, found[sig]) for sig in signatures if sig in found]


# ---------------------------------------------------------------------------
# pullback squares between maps


class PullbackSquareMorphism:
    __slots__ = ("p2", "p1", "f_E", "f_B")

    def __init__(self, p2: NatTrans, p1: NatTrans, f_E: NatTrans, f_B: NatTrans):
        self.p2 = p2
        self.p1 = p1
        self.f_E = f_E
        self.f_B = f_B


def is_pullback_square(sq: PullbackSquareMorphism) -> bool:
    if sq.p2.then(sq.f_B) != sq.f_E.then(sq.p1):
        return False
    cone = ps_pullback(sq.p1, sq.f_B)
    comparison = cone.mediate(sq.p2.dom, [sq.f_E, sq.p2])
    return is_iso(comparison)


def pullback_square_homs(p2: NatTrans, p1: NatTrans) -> list[PullbackSquareMorphism]:
    """All morphisms from p2 to p1 in the category of maps and pullback
    squares, by exhaustive enumeration."""
    out = []
    for f_B in enumerate_nat_trans(p2.cod, p1.cod):
        for f_E in enumerate_nat_trans(p2.dom, p1.dom, over=(p2.then(f_B), p1)):
            sq = PullbackSquareMorphism(p2, p1, f_E, f_B)
            if is_pullback_square(sq):
                out.append(sq)
    return out


class BiconditionalVerdict:
    __slots__ = ("left", "right")

    def __init__(self, left: bool, right: bool):
        self.left = left
        self.right = right

    @property
    def agrees(self) -> bool:
        return self.left == self.right


def check_uni_iff_mono(sq: PullbackSquareMorphism) -> BiconditionalVerdict:
    """For a pullback square over a univalent target map: the source map is
    univalent exactly when the base component is mono."""
    if not is_univalent(sq.p1).univalent:
        raise ValueError("target map of the square must be univalent")
    return BiconditionalVerdict(
        left=is_univalent(sq.p2).univalent,
        right=is_mono(sq.f_B),
    )


class UniversalMonoVerdict:
    __slots__ = ("univalent", "internal_poset")

    def __init__(self, univalent: bool, internal_poset: bool):
        self.univalent = univalent
        self.internal_poset = internal_poset

    @property
    def holds(self) -> bool:
        return self.univalent and self.internal_poset


def check_universal_mono_univalent(T: Topos) -> UniversalMonoVerdict:
    """The point of the subobject classifier is univalent, and its nerve is
    an internal poset."""
    omega, true_arrow = subobject_classifier(T)
    report = is_univalent(true_arrow, name="true")
    nerve = nerve_of_map(true_arrow)
    bb = ps_product([omega, omega])
    st = bb.mediate(nerve.M.total, [nerve.cat.s, nerve.cat.t])
    return UniversalMonoVerdict(report.univalent, is_mono(st))


def check_mono_classification(v: NatTrans) -> BiconditionalVerdict:
    """A mono is univalent exactly when its characteristic map is mono."""
    chi = classify_mono(v)
    return BiconditionalVerdict(
        left=is_univalent(v).univalent,
        right=is_mono(chi),
    )


def check_alternative_construction(p: NatTrans) -> bool:
    """The fiberwise-map object agrees with the slice-exponential
    construction: same pointwise sizes and some slice isomorphism between
    them over B x B."""
    E, B = p.dom, p.cod
    bb = ps_product([B, B])
    eb = ps_product([E, B])
    be = ps_product([B, E])
    g = bb.mediate(eb.apex, [eb.legs[0].then(p), eb.legs[1]])
    f = bb.mediate(be.apex, [be.legs[0], be.legs[1].then(p)])
    alt = slice_exponential(g, f)
    M = nerve_of_map(p).M
    for c in bb.apex.topos.index.objects:
        if len(alt.total.at[c]) != len(M.total.at[c]):
            return False
    for cand in enumerate_nat_trans(alt.total, M.total, over=(alt.proj, M.proj)):
        if is_iso(cand):
            return True
    return False

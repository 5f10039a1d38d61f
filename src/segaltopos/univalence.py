"""Univalence of maps in a finite presheaf topos.

The nerve of a map p: E -> B is the internal category whose objects are B
and whose morphisms over (a, b) are fiberwise maps E_a -> E_b, built as a
dependent product.  p is univalent when that internal category is
complete: every internal isomorphism of fibers is an identity.
"""

from __future__ import annotations

from .elements import Atom, FinFunction, FinSet, Tup, pick
from .topos import (
    DependentProduct,
    InternalCheckError,
    NatTrans,
    Presheaf,
    SliceMap,
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
from .segal import (
    CategoryObject,
    CategoryObjectError,
    TruncatedSimplicialObject,
    composable_pairs,
    hoequiv,
    is_complete,
    nerve_truncation,
    segal_check,
)


class NerveOfMap:
    __slots__ = ("M", "cat", "trunc")

    def __init__(
        self,
        M: SliceMap,
        cat: CategoryObject,
        trunc: TruncatedSimplicialObject,
    ):
        self.M = M  # fiberwise-map object over B x B
        self.cat = cat
        self.trunc = trunc


def nerve_of_map(p: NatTrans) -> NerveOfMap:
    """The internal category of fiberwise maps of p, with its nerve up to
    level 3.  Its unit is the family of identities: M over (b, b) holds
    id_b, and the unit laws that CategoryObject checks give
    e(b) = m(e(b), id_b) = id_b, so no other section passes them."""
    E, B = p.dom, p.cod
    T = E.topos
    # M = (p x id)_* (E x E -> E x B) as a slice over B x B
    ee = ps_product([E, E])
    eb = ps_product([E, B])
    bb = ps_product([B, B])
    proj = eb.mediate(ee.apex, [ee.legs[0], ee.legs[1].then(p)])
    p_times_id = bb.mediate(eb.apex, [eb.legs[0].then(p), eb.legs[1]])
    M = dependent_product(p_times_id, SliceMap(ee.apex, eb.apex, proj))
    s = M.proj.then(bb.legs[0])
    t = M.proj.then(bb.legs[1])
    e = _identity_section(p, M)
    cone = composable_pairs(T, B, M.total, s, t, 2)
    m = _fiberwise_composition(p, M, cone)
    try:
        cat = CategoryObject(T, B, M.total, s, t, e, cone, m)
    except CategoryObjectError as exc:
        raise InternalCheckError(
            "fiberwise maps do not form a category object: " + exc.problems[0]
        ) from exc
    trunc = nerve_truncation(cat)
    if not segal_check(trunc).holds:
        raise InternalCheckError("nerve of the map is not Segal")
    return NerveOfMap(M, cat, trunc)


def _identity_section(p: NatTrans, M: DependentProduct) -> NatTrans:
    """The unit B -> M: over (b, b), the family sending every fiber element
    to itself, that is each key (u, (e0, b')) to (e0, e0)."""
    E, B = p.dom, p.cod
    idx = E.topos.index
    component = {}
    for c in idx.objects:
        table = {b: M.section(c, Tup((b, b)), lambda k: Tup((k[1][0], k[1][0]))) for b in B.at[c]}
        component[c] = FinFunction(B.at[c], M.total.at[c], table)
    return NatTrans(B, M.total, component)


def _fiberwise_composition(p: NatTrans, M: DependentProduct, cone) -> NatTrans:
    """m on composable pairs of fiberwise maps, by position.

    The keys of a family over (b, b') at c are the pairs (u: d -> c, e0)
    with e0 in E(d) over B(u)(b), each with B(u)(b'): as pairs (u, e0) they
    and their order depend on the source b only.  A family is stored as the
    tuple that sends the position of each key (u, e0) among the keys of b
    to the position among the keys of b' of (u, e1), e1 being its value
    there.  The composite of a pair is then a gather, looked up by its
    endpoints and that tuple."""
    component = {}
    for c in p.dom.topos.index.objects:
        # b -> the position of each key (u, e0) of b, read off any (b, b')
        where = {
            b2[0]: {(k[0], k[1][0]): i for i, k in enumerate(M.keys(c, b2))}
            for b2 in M.base.at[c]
        }
        families = M.total.at[c]
        stored = []  # position in families -> (source, target, tuple)
        for f, b2 in M.proj.component[c].table.items():
            into = where[b2[1]]
            values = tuple([into[(k[0], M.value(f, k)[1])] for k in M.keys(c, b2)])
            stored.append((b2[0], b2[1], values))
        position = dict(zip(stored, range(len(stored))))
        out = []
        for i, j in zip(cone.legs[0].component[c].idx, cone.legs[2].component[c].idx):
            b, _, first = stored[i]
            _, b_out, second = stored[j]
            k = position.get((b, b_out, pick(second, first)))
            if k is None:
                raise InternalCheckError("composite family is not a product element")
            out.append(k)
        component[c] = FinFunction.from_idx(cone.apex.at[c], families, tuple(out))
    return NatTrans(cone.apex, M.total, component)


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


def is_univalent(p: NatTrans, name: str = "p", run_oracle: bool = True) -> UnivalenceReport:
    nerve = nerve_of_map(p)
    eq = hoequiv(nerve.trunc)
    univalent = is_complete(nerve.trunc, eq)
    oracle = None
    agrees = None
    if run_oracle and is_finset_topos(p.dom.topos):
        oracle = fiber_oracle_univalent(p)
        agrees = oracle == univalent
    return UnivalenceReport(
        name=name,
        univalent=univalent,
        mono=is_mono(p),
        carrier_sizes={repr(c): len(s) for c, s in eq.carrier.at.items()},
        level_sizes={n: nerve.trunc.level[n].total_size() for n in range(4)},
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


def _finset_map(signature: tuple) -> NatTrans:
    """Canonical map of finite sets with the given tuple of fiber sizes."""
    T = finset_topos()
    star = Atom("*")
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


def enumerate_univalent(T: Topos, max_E: int, max_B: int) -> list[tuple[tuple, NatTrans]]:
    """All univalent maps of finite sets with |E| <= max_E and |B| <= max_B,
    one per isomorphism class of arrows, as (fiber signature, map) pairs in
    deterministic order.  Two maps of finite sets are isomorphic arrows iff
    their sorted fiber sizes are equal, so one map per sorted signature is
    one per class."""
    if not is_finset_topos(T):
        raise ValueError("enumeration is only implemented over the one-point index")
    signatures = set()

    def build(prefix, remaining_b, remaining_e):
        signatures.add(tuple(sorted(prefix)))
        if remaining_b == 0:
            return
        start = prefix[-1] if prefix else 0
        for size in range(start, remaining_e + 1):
            build(prefix + [size], remaining_b - 1, remaining_e - size)

    build([], max_B, max_E)
    out = []
    for sig in sorted(signatures):
        p = _finset_map(sig)
        if is_univalent(p, name=str(sig)).univalent:
            out.append((sig, p))
    return out


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
    if not is_univalent(sq.p1, run_oracle=False).univalent:
        raise ValueError("target map of the square must be univalent")
    return BiconditionalVerdict(
        left=is_univalent(sq.p2, run_oracle=False).univalent,
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
    report = is_univalent(true_arrow, name="true", run_oracle=True)
    nerve = nerve_of_map(true_arrow)
    bb = ps_product([omega, omega])
    st = bb.mediate(nerve.M.total, [nerve.cat.s, nerve.cat.t])
    return UniversalMonoVerdict(report.univalent, is_mono(st))


def check_mono_classification(v: NatTrans) -> BiconditionalVerdict:
    """A mono is univalent exactly when its characteristic map is mono."""
    chi = classify_mono(v)
    return BiconditionalVerdict(
        left=is_univalent(v, run_oracle=False).univalent,
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
    g = SliceMap(eb.apex, bb.apex, bb.mediate(eb.apex, [eb.legs[0].then(p), eb.legs[1]]))
    f = SliceMap(be.apex, bb.apex, bb.mediate(be.apex, [be.legs[0], be.legs[1].then(p)]))
    alt = slice_exponential(g, f)
    M = nerve_of_map(p).M
    for c in bb.apex.topos.index.objects:
        if len(alt.total.at[c]) != len(M.total.at[c]):
            return False
    for cand in enumerate_nat_trans(alt.total, M.total, over=(alt.proj, M.proj)):
        if is_iso(cand):
            return True
    return False

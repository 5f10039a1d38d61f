"""Finite presheaf toposes: objects, morphisms, limits, exponentials,
subobject classifier, and dependent products.

Presheaves are contravariant: a morphism u: c -> d of the index category
restricts along X(u): X(d) -> X(c).
"""

from __future__ import annotations

from .elements import Element, Fam, FinFunction, FinSet, STAR, Tup, pick
from .fincat import (
    DEFAULT_BOUND,
    FiniteCategory,
    FrozenRecord,
    check_bound,
    fin_limit,
    terminal_category,
    validate_category,
)


class InternalCheckError(RuntimeError):
    """A verification that should hold by construction failed."""


class Topos(FrozenRecord):
    """Presheaves on a valid index category; ``bound`` caps the size of
    every intermediate set built in it."""

    __slots__ = ("index", "bound")

    def __init__(self, index: FiniteCategory, bound: int = DEFAULT_BOUND):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "bound", bound)
        problems = validate_category(index)
        if problems:
            raise ValueError("invalid index category: " + "; ".join(problems))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index, self.bound) == (other.index, other.bound)

    def __hash__(self):
        return hash((self.index, self.bound))


def finset_topos(bound: int = DEFAULT_BOUND) -> Topos:
    return Topos(terminal_category(), bound)


class Presheaf:
    __slots__ = ("topos", "at", "restrict")

    def __init__(self, topos: Topos, at: dict, restrict: dict):
        self.topos = topos
        self.at = at
        self.restrict = restrict

    def validate(self) -> list[str]:
        idx = self.topos.index
        report = []
        for c in idx.objects:
            if c not in self.at:
                report.append(f"no set at {c!r}")
        for c in self.at:
            if c not in idx.objects:
                report.append(f"set at {c!r}, which is not an index object")
        for u in idx.morphisms:
            if u not in self.restrict:
                report.append(f"no restriction along {u!r}")
        if report:
            return report
        for u in idx.morphisms:
            f = self.restrict[u]
            if f.dom != self.at[idx.tgt(u)] or f.cod != self.at[idx.src(u)]:
                report.append(f"restriction along {u!r} has wrong endpoints")
        if report:
            return report
        for c in idx.objects:
            if self.restrict[idx.id_of(c)] != FinFunction.identity(self.at[c]):
                report.append(f"restriction along id of {c!r} is not the identity")
        for (w, u), wu in idx.comp.items():
            if self.restrict[u].compose(self.restrict[w]) != self.restrict[wu]:
                report.append(f"contravariance fails on ({w!r},{u!r})")
        return report

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.at == other.at
            and self.restrict == other.restrict
        )

    def __repr__(self):
        # Sizes only: the sets may be large limits whose labels are unbuilt.
        return f"Presheaf(sizes {({c: len(s) for c, s in self.at.items()})!r})"

    def total_size(self) -> int:
        return sum(len(s) for s in self.at.values())

    def elements(self):
        for c in self.topos.index.objects:
            for x in self.at[c]:
                yield c, x


class NatTrans:
    __slots__ = ("dom", "cod", "component")

    def __init__(self, dom: Presheaf, cod: Presheaf, component: dict):
        self.dom = dom
        self.cod = cod
        self.component = component

    def validate(self) -> list[str]:
        idx = self.dom.topos.index
        report = []
        for c in idx.objects:
            f = self.component.get(c)
            if f is None:
                report.append(f"no component at {c!r}")
            elif f.dom != self.dom.at[c] or f.cod != self.cod.at[c]:
                report.append(f"component at {c!r} has wrong endpoints")
        if report:
            return report
        for u in idx.morphisms:
            c, d = idx.src(u), idx.tgt(u)
            before, after = self.dom.restrict[u], self.cod.restrict[u]
            if (
                c == d
                and _is_identity_of(before, self.dom.at[c])
                and _is_identity_of(after, self.cod.at[c])
            ):
                # Both sides are the component at c itself.
                continue
            lhs = self.component[c].compose(before)
            rhs = after.compose(self.component[d])
            if lhs != rhs:
                report.append(f"naturality fails along {u!r}")
        return report

    def __eq__(self, other):
        return (
            isinstance(other, NatTrans)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.component == other.component
        )

    def __repr__(self):
        return f"NatTrans({self.dom!r} -> {self.cod!r})"

    def then(self, other: "NatTrans") -> "NatTrans":
        """other after self."""
        if other.dom != self.cod:
            raise ValueError("composition type mismatch")
        return NatTrans(
            self.dom,
            other.cod,
            {c: other.component[c].compose(f) for c, f in self.component.items()},
        )

    @staticmethod
    def identity(X: Presheaf) -> "NatTrans":
        return NatTrans(X, X, {c: FinFunction.identity(s) for c, s in X.at.items()})


def _is_identity_of(f: FinFunction, s: FinSet) -> bool:
    """Whether f is the identity of s by reference: an endomap of s whose
    positions are the ones s shares with its identity."""
    return f.dom is s and f.cod is s and f.idx is s.positions


def nat_inverse(f: NatTrans) -> NatTrans:
    if not is_iso(f):
        raise ValueError("not an isomorphism")
    return NatTrans(f.cod, f.dom, {c: g.inverse() for c, g in f.component.items()})


def constant_presheaf(T: Topos, s: FinSet) -> Presheaf:
    idf = FinFunction.identity(s)
    return Presheaf(
        T,
        {c: s for c in T.index.objects},
        {u: idf for u in T.index.morphisms},
    )


def terminal(T: Topos) -> Presheaf:
    return constant_presheaf(T, FinSet([STAR]))


def initial(T: Topos) -> Presheaf:
    return constant_presheaf(T, FinSet(()))


def unique_to_terminal(X: Presheaf) -> NatTrans:
    one = terminal(X.topos)
    return NatTrans(
        X,
        one,
        {c: FinFunction.constant(X.at[c], one.at[c], STAR) for c in X.at},
    )


def yoneda(T: Topos, c: Element) -> Presheaf:
    idx = T.index
    at = {d: FinSet(u for u in idx.morphisms if idx.src(u) == d and idx.tgt(u) == c) for d in idx.objects}
    restrict = {}
    for v in idx.morphisms:
        e, d = idx.src(v), idx.tgt(v)
        restrict[v] = FinFunction(at[d], at[e], {u: idx.comp[(u, v)] for u in at[d]})
    return Presheaf(T, at, restrict)


# ---------------------------------------------------------------------------
# pointwise limits


class PsLimitCone:
    __slots__ = ("apex", "legs", "pointwise")

    def __init__(self, apex: Presheaf, legs: tuple, pointwise: dict):
        self.apex = apex
        self.legs = legs  # legs[i]: the projection onto slot i
        self.pointwise = pointwise  # index object -> its LimitCone

    def mediate(self, K: Presheaf, maps: list[NatTrans]) -> NatTrans:
        """As ``LimitCone.mediate``, at every index object."""
        component = {
            c: self.pointwise[c].mediate(K.at[c], [f.component[c] for f in maps])
            for c in K.topos.index.objects
        }
        return NatTrans(K, self.apex, component)


def ps_limit(T: Topos, sets: list[Presheaf], links: list) -> PsLimitCone:
    """Pointwise limit of a chain of presheaves; ``links`` are as in
    ``fin_limit``, with natural transformations as the maps."""
    idx = T.index
    pointwise = {}
    for c in idx.objects:
        links_c = [
            None if link is None else (link[0], link[1].component[c]) for link in links
        ]
        pointwise[c] = fin_limit([X.at[c] for X in sets], links_c, T.bound)
    at = {c: cone.apex for c, cone in pointwise.items()}
    restrict = {}
    for w in idx.morphisms:
        c, dd = idx.src(w), idx.tgt(w)
        restrictions = [X.restrict[w] for X in sets]
        maps = [f.idx for f in restrictions]
        if c == dd and all(f.idx == f.dom.positions for f in restrictions):
            # Every vertex restricts along w as the identity, so the limit
            # does too; its positions are the ones maps into it share.
            restrict[w] = FinFunction.from_idx(at[c], at[c], at[c].positions)
            continue
        # Restrict the limit at dd column by column and rank the result
        # among the tuples at c.
        columns = [pick(f, at[dd].column(j)) for j, f in enumerate(maps)]
        if at[c].first_outside(columns) is not None:
            raise InternalCheckError("induced restriction leaves the limit")
        restrict[w] = FinFunction.from_idx(at[dd], at[c], at[c].rank(columns, len(at[dd])))
    apex = Presheaf(T, at, restrict)
    legs = tuple(
        NatTrans(apex, X, {c: pointwise[c].legs[i] for c in idx.objects})
        for i, X in enumerate(sets)
    )
    return PsLimitCone(apex, legs, pointwise)


def ps_product(Xs: list[Presheaf]) -> PsLimitCone:
    return ps_limit(Xs[0].topos, Xs, [None] * (len(Xs) - 1))


def ps_pullback(f: NatTrans, g: NatTrans) -> PsLimitCone:
    """Pullback of the cospan f: X -> Z <- Y :g; legs 0 (X) and 2 (Y)."""
    if f.cod != g.cod:
        raise ValueError("cospan codomain mismatch")
    return ps_limit(f.dom.topos, [f.dom, f.cod, g.dom], [("fix", f), ("preimage", g)])


# ---------------------------------------------------------------------------
# mono / epi / iso


def is_mono(f: NatTrans) -> bool:
    return all(g.is_injective() for g in f.component.values())


def is_epi(f: NatTrans) -> bool:
    return all(g.is_surjective() for g in f.component.values())


def is_iso(f: NatTrans) -> bool:
    return all(g.is_bijective() for g in f.component.values())


def is_minus1_truncated(X: Presheaf) -> bool:
    """True iff the unique map to the terminal is mono.  The tests compare
    this with the diagonal X -> X x X being iso."""
    return is_mono(unique_to_terminal(X))


# ---------------------------------------------------------------------------
# natural transformation enumeration


def enumerate_nat_trans(X: Presheaf, Y: Presheaf, over=None, limit=None):
    """Yield all natural transformations X -> Y in a deterministic order.

    over=(g, h) restricts to transformations t with h∘t = g, for
    g: X -> Z and h: Y -> Z.
    """
    T = X.topos
    idx = T.index
    mors_into = {c: [u for u in idx.morphisms if idx.tgt(u) == c] for c in idx.objects}
    slots = [(c, x) for c in idx.objects for x in X.at[c]]
    if over is not None:
        g, h = over

    assign = {}

    def admissible(c, x, y):
        if over is None:
            return True
        return h.component[c](y) == g.component[c](x)

    def propagate(c, x, y, added):
        stack = [(c, x, y)]
        while stack:
            c, x, y = stack.pop()
            k = (c, x)
            if k in assign:
                if assign[k] != y:
                    return False
                continue
            if not admissible(c, x, y):
                return False
            assign[k] = y
            added.append(k)
            for u in mors_into[c]:
                d = idx.src(u)
                stack.append((d, X.restrict[u](x), Y.restrict[u](y)))
        return True

    count = 0

    def search(i):
        nonlocal count
        while i < len(slots) and slots[i] in assign:
            i += 1
        if i == len(slots):
            comp = {
                c: FinFunction(
                    X.at[c], Y.at[c], {x: assign[(c, x)] for x in X.at[c]}
                )
                for c in idx.objects
            }
            count += 1
            if limit is not None:
                check_bound(count, limit, "enumerate_nat_trans")
            yield NatTrans(X, Y, comp)
            return
        c, x = slots[i]
        for y in Y.at[c]:
            added = []
            if propagate(c, x, y, added):
                yield from search(i + 1)
            for k in added:
                del assign[k]

    yield from search(0)


def hom_count(X: Presheaf, Y: Presheaf, over=None) -> int:
    return sum(1 for _ in enumerate_nat_trans(X, Y, over))


def global_elements(X: Presheaf) -> list[NatTrans]:
    return list(enumerate_nat_trans(terminal(X.topos), X))


# ---------------------------------------------------------------------------
# subobject classifier


def _sieves_at(T: Topos, c: Element) -> list[frozenset]:
    idx = T.index
    into = idx.morphisms_into(c)
    check_bound(2 ** len(into), T.bound, "sieves")
    sieves = []
    for bits in range(2 ** len(into)):
        s = frozenset(u for i, u in enumerate(into) if bits >> i & 1)
        closed = all(
            idx.comp[(u, v)] in s
            for u in s
            for v in idx.morphisms
            if idx.tgt(v) == idx.src(u)
        )
        if closed:
            sieves.append(s)
    return sieves


def _sieve_element(s) -> Element:
    return Tup(sorted(s))


def subobject_classifier(T: Topos):
    """The presheaf of sieves with the maximal-sieve point."""
    idx = T.index
    sieve_sets = {c: _sieves_at(T, c) for c in idx.objects}
    at = {c: FinSet(_sieve_element(s) for s in sieve_sets[c]) for c in idx.objects}
    restrict = {}
    for w in idx.morphisms:
        c1, c2 = idx.src(w), idx.tgt(w)
        table = {}
        for s in sieve_sets[c2]:
            pulled = frozenset(
                u
                for u in idx.morphisms_into(c1)
                if idx.comp[(w, u)] in s
            )
            table[_sieve_element(s)] = _sieve_element(pulled)
        restrict[w] = FinFunction(at[c2], at[c1], table)
    omega = Presheaf(T, at, restrict)
    one = terminal(T)
    true_component = {
        c: FinFunction.constant(
            one.at[c], at[c], _sieve_element(frozenset(idx.morphisms_into(c)))
        )
        for c in idx.objects
    }
    true_arrow = NatTrans(one, omega, true_component)
    if omega.validate() or true_arrow.validate():
        raise InternalCheckError("subobject classifier construction invalid")
    return omega, true_arrow


def classify_mono(m: NatTrans) -> NatTrans:
    """Characteristic map of a mono, verified by pulling the universal mono
    back along it."""
    if not is_mono(m):
        raise ValueError("classify_mono requires a mono")
    T = m.dom.topos
    idx = T.index
    X = m.cod
    omega, true_arrow = subobject_classifier(T)
    images = {c: m.component[c].image() for c in idx.objects}
    component = {}
    for c in idx.objects:
        table = {}
        for x in X.at[c]:
            s = frozenset(
                u
                for u in idx.morphisms_into(c)
                if X.restrict[u](x) in images[idx.src(u)]
            )
            table[x] = _sieve_element(s)
        component[c] = FinFunction(X.at[c], omega.at[c], table)
    chi = NatTrans(X, omega, component)
    if chi.validate():
        raise InternalCheckError("characteristic map is not natural")
    pb = ps_pullback(chi, true_arrow)
    comparison = pb.mediate(m.dom, [m, unique_to_terminal(m.dom)])
    if not is_iso(comparison):
        raise InternalCheckError("classified subobject does not reproduce the mono")
    return chi


# ---------------------------------------------------------------------------
# slices, pullback functor, dependent products


class SliceMap:
    __slots__ = ("total", "base", "proj")

    def __init__(self, total: Presheaf, base: Presheaf, proj: NatTrans):
        self.total = total
        self.base = base
        self.proj = proj


def pullback_functor(f: NatTrans, x: SliceMap) -> SliceMap:
    """Base change of x along f: A -> B."""
    if x.base != f.cod:
        raise ValueError("slice is not over the codomain of f")
    cone = ps_pullback(x.proj, f)
    return SliceMap(cone.apex, f.dom, cone.legs[2])


def comma_presheaf(f: NatTrans, c: Element, b: Element) -> tuple[Presheaf, NatTrans]:
    """The fan of generalized elements of f's codomain at (c, b): elements
    at d are pairs (u: d -> c, a in A(d)) with f(a) = B(u)(b); comes with the
    projection to A = f.dom."""
    T = f.dom.topos
    idx = T.index
    A, B = f.dom, f.cod
    at = {}
    for d in idx.objects:
        elems = []
        for u in idx.morphisms:
            if idx.src(u) != d or idx.tgt(u) != c:
                continue
            bu = B.restrict[u](b)
            for a in A.at[d]:
                if f.component[d](a) == bu:
                    elems.append(Tup((u, a)))
        at[d] = FinSet(elems)
    restrict = {}
    for v in idx.morphisms:
        e, d = idx.src(v), idx.tgt(v)
        table = {
            k: Tup((idx.comp[(k[0], v)], A.restrict[v](k[1]))) for k in at[d]
        }
        restrict[v] = FinFunction(at[d], at[e], table)
    L = Presheaf(T, at, restrict)
    pr = NatTrans(
        L, A, {d: FinFunction(at[d], A.at[d], {k: k[1] for k in at[d]}) for d in idx.objects}
    )
    return L, pr


class DependentProduct(SliceMap):
    """Pi_f x, a slice over f.cod.  Its element over b at c is a section of x
    over the fan of b at c (``comma_presheaf``), labelled Tup((b, Fam)): the
    family sends each key (u: d -> c, a) of the fan to a point of x.total(d)
    over a.  Only this class and ``dependent_product`` build or read these
    labels."""

    __slots__ = ("fans",)

    def __init__(self, total: Presheaf, base: Presheaf, proj: NatTrans, fans: dict):
        super().__init__(total, base, proj)
        self.fans = fans  # (c, b) -> the keys of the fan of b at c, in entry order

    def keys(self, c: Element, b: Element) -> tuple:
        return self.fans[(c, b)]

    def section(self, c: Element, b: Element, value) -> Element:
        """The element over b at c whose family sends each key k to
        value(k); it must be a natural section."""
        e = Tup((b, Fam((k, value(k)) for k in self.fans[(c, b)])))
        if e not in self.total.at[c]:
            raise InternalCheckError(f"section over {b!r} at {c!r} is not in the dependent product")
        return e

    @staticmethod
    def value(e: Element, key: Element) -> Element:
        """The entry of the element e at one key of its fan."""
        return e[1].get(key)


def dependent_product(f: NatTrans, x: SliceMap) -> DependentProduct:
    """Right adjoint to base change along f, computed by enumerating natural
    section families over the fan of generalized elements."""
    if x.base != f.dom:
        raise ValueError("slice is not over the domain of f")
    T = f.dom.topos
    idx = T.index
    B = f.cod
    at, fans = {}, {}
    for c in idx.objects:
        elems = []
        for b in B.at[c]:
            L, pr = comma_presheaf(f, c, b)
            fans[(c, b)] = FinSet(k for d in idx.objects for k in L.at[d]).elements
            for t in enumerate_nat_trans(L, x.total, over=(pr, x.proj), limit=T.bound):
                fam = Fam((k, t.component[d](k)) for d in idx.objects for k in L.at[d])
                elems.append(Tup((b, fam)))
        check_bound(len(elems), T.bound, "dependent_product")
        at[c] = FinSet(elems)
    total = Presheaf(T, at, {})
    proj = NatTrans(
        total,
        B,
        {c: FinFunction(at[c], B.at[c], {e: e[0] for e in at[c]}) for c in idx.objects},
    )
    pi = DependentProduct(total, B, proj, fans)
    # A section restricts along w: c1 -> c2 by precomposing its keys with w.
    for w in idx.morphisms:
        c1, c2 = idx.src(w), idx.tgt(w)
        table = {
            e: pi.section(
                c1,
                B.restrict[w](e[0]),
                lambda k: pi.value(e, Tup((idx.comp[(w, k[0])], k[1]))),
            )
            for e in at[c2]
        }
        total.restrict[w] = FinFunction(at[c2], at[c1], table)
    return pi


def dependent_product_map(pix: DependentProduct, piy: DependentProduct, h: NatTrans) -> NatTrans:
    """Functorial action of a dependent product on a slice morphism h;
    pix and piy are the products, along one map, of its domain and
    codomain slices."""
    idx = h.dom.topos.index
    component = {}
    for c in idx.objects:
        table = {
            e: piy.section(c, b, lambda k: h.component[idx.src(k[0])](pix.value(e, k)))
            for e, b in pix.proj.component[c].table.items()
        }
        component[c] = FinFunction(pix.total.at[c], piy.total.at[c], table)
    return NatTrans(pix.total, piy.total, component)


def slice_exponential(g: SliceMap, f: SliceMap) -> DependentProduct:
    """Internal hom in the slice over the common base: Pi_g of g* f."""
    if g.base != f.base:
        raise ValueError("slices are not over the same base")
    return dependent_product(g.proj, pullback_functor(g.proj, f))


# ---------------------------------------------------------------------------
# exponentials


class ExponentialObject:
    __slots__ = ("obj", "pi", "ev_product", "ev")

    def __init__(self, obj: Presheaf, pi: DependentProduct, ev_product: PsLimitCone, ev: NatTrans):
        self.obj = obj  # G^F
        self.pi = pi  # G^F as a slice over the terminal; pi.total == obj
        self.ev_product = ev_product  # product of G^F and F
        self.ev = ev  # ev_product.apex -> G


def exponential(T: Topos, F: Presheaf, G: Presheaf) -> ExponentialObject:
    """Internal hom G^F: the dependent product of F x G -> F along F -> 1.
    At c it sends each key (u: d -> c, x in F(d)) to a point (x, g) of
    F x G; evaluation reads g at (id_c, x)."""
    idx = T.index
    FG = ps_product([F, G])
    pi = dependent_product(unique_to_terminal(F), SliceMap(FG.apex, F, FG.legs[0]))
    prod = ps_product([pi.total, F])
    ev_component = {}
    for c in idx.objects:
        idc, to_G = idx.id_of(c), FG.legs[1].component[c]
        table = {e: to_G(pi.value(e[0], Tup((idc, e[1])))) for e in prod.apex.at[c]}
        ev_component[c] = FinFunction(prod.apex.at[c], G.at[c], table)
    ev = NatTrans(prod.apex, G, ev_component)
    if ev.validate():
        raise InternalCheckError("evaluation map is not natural")
    return ExponentialObject(pi.total, pi, prod, ev)


def exp_transpose(expo: ExponentialObject, A: Presheaf, h: NatTrans) -> NatTrans:
    """Transpose A x F -> G to A -> G^F; h.dom must be ps_product([A, F]).apex.
    The transpose of a sends the key (u, x) to (x, h(A(u)(a), x))."""
    idx = A.topos.index
    pi = expo.pi
    component = {}
    for c in idx.objects:
        table = {
            a: pi.section(
                c,
                STAR,
                lambda k: Tup((k[1], h.component[idx.src(k[0])](Tup((A.restrict[k[0]](a), k[1]))))),
            )
            for a in A.at[c]
        }
        component[c] = FinFunction(A.at[c], pi.total.at[c], table)
    return NatTrans(A, pi.total, component)

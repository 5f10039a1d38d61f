"""Finite presheaf toposes: objects, morphisms, limits, exponentials,
subobject classifier, and dependent products.

Presheaves are contravariant: a morphism u: c -> d of the index category
restricts along X(u): X(d) -> X(c).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from itertools import islice, product

from .elements import Element, Fam, FinFunction, FinSet, LazyFinSet, STAR, Tup, fibers, pick
from .fincat import (
    DEFAULT_BOUND,
    FiniteCategory,
    FrozenRecord,
    check_bound,
    fin_limit,
    join_problems,
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
            raise ValueError("invalid index category: " + join_problems(problems))


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
            before, after = self.dom.restrict.get(u), self.cod.restrict.get(u)
            if before is None or after is None:
                side = "domain" if before is None else "codomain"
                report.append(f"no restriction along {u!r} in the {side}")
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
    legs = tuple([
        NatTrans(apex, X, {c: pointwise[c].legs[i] for c in idx.objects})
        for i, X in enumerate(sets)
    ])
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


def enumerate_nat_trans(X: Presheaf, Y: Presheaf, over=None):
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

    def search(i):
        while i < len(slots) and slots[i] in assign:
            i += 1
        if i == len(slots):
            comp = {
                c: FinFunction(
                    X.at[c], Y.at[c], {x: assign[(c, x)] for x in X.at[c]}
                )
                for c in idx.objects
            }
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


def pullback_functor(f: NatTrans, x: NatTrans) -> NatTrans:
    """Base change along f: A -> B of an object over B, given by its
    projection x; returns the projection of the pullback onto A."""
    if x.cod != f.cod:
        raise ValueError("slice is not over the codomain of f")
    return ps_pullback(x, f).legs[2]


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


class DependentProduct:
    """Pi_f x, an object over B = f.cod given by its projection ``proj``,
    its sections stored by position; x is the projection onto f.dom of
    the object that f is applied to.

    The fan of a point b of B(c) is the tuple of its keys (u, d, a): a
    morphism u: d -> c and the position a in f.dom(d) of a point over
    B(u)(b), in the order of the labels Tup((u, a)).  A section over b is
    the tuple of its values, key by key: the position in x.dom(d) of a
    point over a, natural in the keys.  ``sections[c]`` lists the
    sections over each b in turn, each run in lexicographic order, which
    is the order of their labels Tup((b, Fam)), the family sending each
    key Tup((u, a)) to its value.  The labels are built only when
    something reads ``total.at[c].elements``.  Points b are positions in
    B(c) throughout: ``fans`` is keyed by (c, b).  Maps into and out of
    Pi_f x go through the adjunction f* -| Pi_f: ``transpose`` and
    ``value``."""

    __slots__ = ("proj", "x", "fans", "sections", "_found", "_at_identity")

    def __init__(self, proj: NatTrans, x: NatTrans, fans: dict, sections: dict):
        self.proj = proj
        self.x = x
        self.fans = fans
        self.sections = sections  # c -> the values of each section, in order
        self._found = {}  # (c, b) -> the position of each section over b, by its values
        self._at_identity = {}  # (c, b) -> the place of each key (id_c, a) in the fan of b

    @property
    def total(self) -> Presheaf:
        return self.proj.dom

    @property
    def base(self) -> Presheaf:
        return self.proj.cod

    def locate(self, c: Element, b: int, values: tuple) -> int:
        """The position of the section over b at c with these values; a
        family that is not a natural section raises InternalCheckError."""
        found = self._found.get((c, b))
        if found is None:
            owners = self.proj.component[c].idx
            lo, hi = bisect_left(owners, b), bisect_right(owners, b)
            found = self._found[(c, b)] = dict(zip(self.sections[c][lo:hi], range(lo, hi)))
        k = found.get(values)
        if k is None:
            raise InternalCheckError(
                f"a family over point {b} at {c!r} is not a section of the dependent product"
            )
        return k

    def transpose(self, over: NatTrans, value) -> NatTrans:
        """The map K -> Pi_f x that lies over ``over``: K -> B, the
        transpose of a map f*K -> x.  The section it gives k in K(c)
        takes the position value(d, K(u)(k), a) in x.dom(d) at each key
        (u: d -> c, a)."""
        K = over.dom
        restrict = {u: g.idx for u, g in K.restrict.items()}
        component = {}
        for c, owners in over.component.items():
            out = []
            for k, b in enumerate(owners.idx):
                values = tuple([value(d, restrict[u][k], a) for u, d, a in self.fans[(c, b)]])
                out.append(self.locate(c, b, values))
            component[c] = FinFunction.from_idx(K.at[c], self.total.at[c], tuple(out))
        return NatTrans(K, self.total, component)

    def value(self, c: Element, s: int, a: int) -> int:
        """The counit f* Pi_f x -> x: the position in x.dom(c) of the value
        of section s at its key (id_c, a)."""
        b = self.proj.component[c].idx[s]
        place = self._at_identity.get((c, b))
        if place is None:
            idc = self.total.topos.index.id_of(c)
            fan = self.fans[(c, b)]
            place = self._at_identity[(c, b)] = {y: i for i, (u, _, y) in enumerate(fan) if u == idc}
        return self.sections[c][s][place[a]]


def _natural_sections(candidates: list, links: list):
    """Yield the natural sections of one fan as tuples of values, in
    lexicographic order.  ``candidates[i]`` lists the values key i may
    take, ascending; ``links[i]`` lists pairs (j, table): key j is key i
    restricted along a morphism, so it takes table[value of key i].  With
    no links the sections are the product of the candidates."""
    if not any(links):
        return product(*candidates)
    return _extend(candidates, links, [None] * len(candidates), 0)


def _extend(candidates: list, links: list, value: list, i: int):
    """The natural sections that agree with ``value`` on the keys it
    assigns, which include every key before i: the first free key from i
    on takes each of its candidates in turn, and the keys linked to it
    take their values from it."""
    while i < len(value) and value[i] is not None:
        i += 1
    if i == len(value):
        yield tuple(value)
        return
    for y in candidates[i]:
        value[i], assigned = y, [i]
        for j, table in links[i]:
            z = table[y]
            if value[j] is None:
                value[j] = z
                assigned.append(j)
            elif value[j] != z:
                break
        else:
            yield from _extend(candidates, links, value, i + 1)
        for j in assigned:
            value[j] = None


def _section_labels(A: Presheaf, X: Presheaf, bases: FinSet, fans: list, owners, sections) -> list:
    """The labels Tup((b, Fam)) of the sections of one stage of a
    dependent product, in order; ``fans[b]`` is the fan of b."""
    keys = [[Tup((u, A.at[d].elements[a])) for u, d, a in fan] for fan in fans]
    return [
        Tup((
            bases.elements[b],
            Fam(zip(keys[b], [X.at[d].elements[y] for (_, d, _), y in zip(fans[b], values)])),
        ))
        for b, values in zip(owners, sections)
    ]


def dependent_product(f: NatTrans, x: NatTrans) -> DependentProduct:
    """Right adjoint to base change along f: A -> B, applied to the object
    X over A with projection x.  For each point b of B(c) it lists the
    fan of b (see DependentProduct), the candidate values of each key
    (u, d, a), which are the points of X(d) over a, and the naturality
    links between keys: the key restricted along v: e -> d is
    (u v, A(v)(a)), and it takes X(v) of the value.  The natural sections
    come out of ``_natural_sections`` in the order of their labels, so
    nothing is sorted, and the running count at c is checked against the
    bound as they are listed."""
    if x.cod != f.dom:
        raise ValueError("slice is not over the domain of f")
    T = f.dom.topos
    idx = T.index
    A, B, X = f.dom, f.cod, x.dom
    over_b = {d: fibers(f.component[d].idx, len(B.at[d])) for d in idx.objects}
    over_a = {d: fibers(x.component[d].idx, len(A.at[d])) for d in idx.objects}
    into = {c: [] for c in idx.objects}  # c -> (u, d) for each u: d -> c, in label order
    for u in idx.morphisms:
        into[idx.tgt(u)].append((u, idx.src(u)))
    links_into = {
        d: [(v, A.restrict[v].idx, X.restrict[v].idx) for v, _ in into[d] if not idx.is_identity(v)]
        for d in idx.objects
    }
    at, proj, fans, sections = {}, {}, {}, {}
    places = {}  # (c, b) -> the place of each key (u, a) in the fan of b
    for c in idx.objects:
        stage_fans, found, owners = [], [], []
        for b in range(len(B.at[c])):
            fan = tuple([(u, d, a) for u, d in into[c] for a in over_b[d][B.restrict[u].idx[b]]])
            fans[(c, b)] = fan
            stage_fans.append(fan)
            place = places[(c, b)] = {(u, a): i for i, (u, _, a) in enumerate(fan)}
            candidates, links = [], []
            for i, (u, d, a) in enumerate(fan):
                here, linked = over_a[d][a], []
                for v, A_v, X_v in links_into[d]:
                    j = place[(idx.comp[(u, v)], A_v[a])]
                    if j == i:
                        here = [y for y in here if X_v[y] == y]
                    else:
                        linked.append((j, X_v))
                candidates.append(here)
                links.append(linked)
            listed = list(islice(_natural_sections(candidates, links), T.bound - len(found) + 1))
            found += listed
            owners += [b] * len(listed)
            check_bound(len(found), T.bound, "dependent_product")
        owners, sections[c] = tuple(owners), tuple(found)
        at[c] = LazyFinSet(
            len(found), partial(_section_labels, A, X, B.at[c], stage_fans, owners, sections[c])
        )
        proj[c] = FinFunction.from_idx(at[c], B.at[c], owners)
    total = Presheaf(T, at, {})
    pi = DependentProduct(NatTrans(total, B, proj), x, fans, sections)
    # A section restricts along w: c1 -> c2 by precomposing its keys with w.
    for w in idx.morphisms:
        c1, c2 = idx.src(w), idx.tgt(w)
        if idx.is_identity(w):
            total.restrict[w] = FinFunction.identity(at[c2])
            continue
        gathers, out = {}, []
        for b, values in zip(proj[c2].idx, sections[c2]):
            b1 = B.restrict[w].idx[b]
            gather = gathers.get(b)
            if gather is None:
                place = places[(c2, b)]
                gather = gathers[b] = tuple(
                    [place[(idx.comp[(w, u)], a)] for u, _, a in fans[(c1, b1)]]
                )
            out.append(pi.locate(c1, b1, pick(values, gather)))
        total.restrict[w] = FinFunction.from_idx(at[c2], at[c1], tuple(out))
    return pi


def dependent_product_map(pix: DependentProduct, piy: DependentProduct, h: NatTrans) -> NatTrans:
    """Functorial action of Pi_f on a map h: X -> Y over f.dom, for pix =
    Pi_f X and piy = Pi_f Y: the transpose of h after the counit."""
    if pix.fans != piy.fans:
        raise ValueError("the dependent products are not along one map")
    return piy.transpose(pix.proj, lambda d, k, a: h.component[d].idx[pix.value(d, k, a)])


def slice_exponential(g: NatTrans, f: NatTrans) -> DependentProduct:
    """Internal hom in the slice over the common base of the projections
    g and f: Pi_g of g* f."""
    if g.cod != f.cod:
        raise ValueError("slices are not over the same base")
    return dependent_product(g, pullback_functor(g, f))


# ---------------------------------------------------------------------------
# exponentials


class ExponentialObject:
    __slots__ = ("pi", "ev_product", "ev")

    def __init__(self, pi: DependentProduct, ev_product: PsLimitCone, ev: NatTrans):
        self.pi = pi  # G^F as an object over the terminal
        self.ev_product = ev_product  # product of G^F and F
        self.ev = ev  # ev_product.apex -> G

    @property
    def obj(self) -> Presheaf:
        return self.pi.total  # G^F


def exponential(T: Topos, F: Presheaf, G: Presheaf) -> ExponentialObject:
    """Internal hom G^F: the dependent product of F x G -> F along F -> 1.
    At c it sends each key (u: d -> c, x in F(d)) to a point (x, g) of
    F x G; evaluation is the counit, which reads (x, g) at (id_c, x),
    followed by the projection to G."""
    FG = ps_product([F, G])
    pi = dependent_product(unique_to_terminal(F), FG.legs[0])
    prod = ps_product([pi.total, F])
    counit = {}
    for c in T.index.objects:
        read = map(partial(pi.value, c), prod.legs[0].component[c].idx, prod.legs[1].component[c].idx)
        counit[c] = FinFunction.from_idx(prod.apex.at[c], FG.apex.at[c], tuple(read))
    ev = NatTrans(prod.apex, FG.apex, counit).then(FG.legs[1])
    if ev.validate():
        raise InternalCheckError("evaluation map is not natural")
    return ExponentialObject(pi, prod, ev)


def exp_transpose(expo: ExponentialObject, A: Presheaf, h: NatTrans) -> NatTrans:
    """Transpose A x F -> G to A -> G^F; h.dom must be ps_product([A, F]).apex.
    The transpose of a sends the key (u, x) to (x, h(A(u)(a), x))."""
    F, FG = expo.pi.x.cod, expo.pi.x.dom

    def value(d, k, xp):
        x = F.at[d].elements[xp]
        return FG.at[d].index[Tup((x, h.component[d](Tup((A.at[d].elements[k], x)))))]

    return expo.pi.transpose(unique_to_terminal(A), value)

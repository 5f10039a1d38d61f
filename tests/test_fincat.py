import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from segaltopos.elements import Atom, FinFunction, FinSet, Tup, atoms
from segaltopos.fincat import (
    FiniteCategory,
    ResourceBoundError,
    arrow_category,
    discrete_category,
    fin_limit,
    group_category,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
)
from segaltopos.corpus import (
    c2_topos,
    corpus_categories,
    random_coproduct_presheaf,
    random_map_to,
    sierpinski_topos,
)
from segaltopos.topos import ps_limit, terminal, yoneda


def c2() -> FiniteCategory:
    return group_category(["e", "g"], "e", lambda a, b: "e" if a == b else "g")


class TestValidateCategory:
    def test_terminal_valid(self):
        assert validate_category(terminal_category()) == []

    def test_c2_valid(self):
        assert validate_category(c2()) == []

    def test_mutated_c2_table_is_still_a_valid_monoid(self):
        # replacing g*g = e with g*g = g turns the two-element group into
        # the idempotent monoid, which passes every axiom
        C = c2()
        comp = dict(C.comp)
        comp[(Atom("g"), Atom("g"))] = Atom("g")
        mutated = FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, C.identity, comp)
        assert validate_category(mutated) == []

    def test_broken_associativity_reported(self):
        names = ["e", "r", "rr"]
        C = group_category(
            names, "e", lambda a, b: names[(names.index(a) + names.index(b)) % 3]
        )
        comp = dict(C.comp)
        comp[(Atom("r"), Atom("r"))] = Atom("e")
        broken = FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, C.identity, comp)
        report = validate_category(broken)
        assert any("associativity" in line for line in report)

    def test_corpus_all_valid(self):
        for name, C in corpus_categories().items():
            assert validate_category(C) == [], name

    def test_missing_composite_reported(self):
        C = c2()
        comp = dict(C.comp)
        del comp[(Atom("g"), Atom("g"))]
        broken = FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, C.identity, comp)
        assert any("undefined" in line for line in validate_category(broken))


class TestFinProduct:
    """Products are chains whose slots are all free."""

    def test_empty_product_is_terminal(self):
        cone = fin_limit([], [])
        assert list(cone.apex) == [Tup(())]
        assert cone.legs == ()

    def test_two_by_one(self):
        cone = fin_limit([atoms("a", "b"), atoms("c")], [None])
        assert list(cone.apex) == [Tup([Atom("a"), Atom("c")]), Tup([Atom("b"), Atom("c")])]

    def test_projections_total(self):
        sets = [atoms("0", "1"), atoms("0", "1")]
        cone = fin_limit(sets, [None])
        assert len(cone.apex) == 4
        for i in range(2):
            for e in cone.apex:
                assert cone.legs[i](e) == e[i]

    def test_bound(self):
        with pytest.raises(ResourceBoundError) as exc:
            fin_limit([atoms("a", "b")] * 3, [None, None], bound=7)
        assert (exc.value.stage, exc.value.size, exc.value.bound) == ("fin_limit", 8, 7)


def _zigzag(edges, vertices, maps):
    """The chain edges[0] -> vertices[0] <- edges[1] -> ... of a wide
    pullback; maps lists its arrows in order."""
    sets, links = [edges[0]], []
    for i, v in enumerate(vertices):
        sets += [v, edges[i + 1]]
        links += [("fix", maps[2 * i]), ("preimage", maps[2 * i + 1])]
    return sets, links


class TestFinLimit:
    def test_pullback_over_singleton_is_product(self):
        A, B, X = atoms("a", "b"), atoms("c"), atoms("x")
        to_x = [FinFunction.constant(A, X, Atom("x")), FinFunction.constant(B, X, Atom("x"))]
        cone = fin_limit(*_zigzag([A, B], [X], to_x))
        assert len(cone.apex) == 2

    def test_triple_product_via_wide_pullback(self):
        # wide pullback over a singleton vertex set is a plain product
        T1, T0 = atoms("e", "g"), atoms("*")
        to_pt = FinFunction.constant(T1, T0, Atom("*"))
        cone = fin_limit(*_zigzag([T1] * 3, [T0] * 2, [to_pt] * 4))
        assert len(cone.apex) == 8

    def test_six_edge_wide_pullback(self):
        # 11 slots, one leg each, and the rows stay in slot order
        E, V = _numbered(2), _numbered(2)
        maps = [
            FinFunction(E, V, {Atom("0"): Atom(str(k % 2)), Atom("1"): Atom(str(k // 2 % 2))})
            for k in range(10)
        ]
        sets, links = _zigzag([E] * 6, [V] * 5, maps)
        cone = fin_limit(sets, links)
        assert len(cone.legs) == 11
        apex, legs = reference_limit(sets, links)
        assert len(apex) > 0
        assert cone.apex == apex
        assert cone.legs == legs

    def test_single_object_limit_wraps_input(self):
        s = atoms("a", "b")
        cone = fin_limit([s], [])
        assert [e[0] for e in cone.apex] == list(s)

    def test_rejects_map_with_wrong_endpoints(self):
        A, X = atoms("a", "b"), atoms("x")
        f = FinFunction.constant(A, X, Atom("x"))
        # f: A -> X fixes a slot X after A, and draws a slot A after X
        assert len(fin_limit([A, X], [("fix", f)]).apex) == 2
        assert len(fin_limit([X, A], [("preimage", f)]).apex) == 2
        for sets, link in [([X, A], ("fix", f)), ([A, X], ("preimage", f)), ([A, A], ("fix", f))]:
            with pytest.raises(ValueError, match="wrong endpoints"):
                fin_limit(sets, [link])
        with pytest.raises(ValueError, match="one link per slot"):
            fin_limit([A, X], [])

    def test_unique_mediating_map(self):
        # every competing cone factors uniquely through the limit
        A, B, X = atoms("a", "b"), atoms("c", "d"), atoms("x", "y")
        f = FinFunction(A, X, {Atom("a"): Atom("x"), Atom("b"): Atom("y")})
        g = FinFunction(B, X, {Atom("c"): Atom("x"), Atom("d"): Atom("x")})
        cone = fin_limit(*_zigzag([A, B], [X], [f, g]))
        K = atoms("k")
        # the cone gives the legs onto A and B; the leg onto X is f after the one onto A
        legs = [
            FinFunction.constant(K, A, Atom("a")),
            FinFunction.constant(K, X, Atom("x")),
            FinFunction.constant(K, B, Atom("c")),
        ]
        med = cone.mediate(K, [legs[0], legs[2]])
        for i, leg in enumerate(legs):
            assert cone.legs[i].compose(med) == leg
        # uniqueness: no other map into the apex commutes with all legs
        others = [
            v
            for v in cone.apex
            if all(v[i] == legs[i](Atom("k")) for i in range(3))
        ]
        assert len(others) == 1

    def test_mediate_takes_one_map_per_unfixed_slot(self):
        A, B, X = atoms("a", "b"), atoms("c", "d"), atoms("x")
        to_x = [FinFunction.constant(A, X, Atom("x")), FinFunction.constant(B, X, Atom("x"))]
        cone = fin_limit(*_zigzag([A, B], [X], to_x))
        K = atoms("k")
        a = FinFunction.constant(K, A, Atom("a"))
        x = FinFunction.constant(K, X, Atom("x"))
        c = FinFunction.constant(K, B, Atom("c"))
        assert cone.mediate(K, [a, c])(Atom("k")) == Tup([Atom("a"), Atom("x"), Atom("c")])
        for maps in ([a], [a, x, c]):
            with pytest.raises(ValueError, match=rf"^a cone into this limit takes 2 maps, not {len(maps)}$"):
                cone.mediate(K, maps)

    def test_incompatible_cone_names_its_first_bad_element(self):
        # A ->f X <-g B ->h Y <-k C; the cone gives the legs onto A, B and C.
        # k1 breaks the link through Y and k2 the one through X; k1 is named
        A, X, B, Y, C = (atoms(*pair) for pair in ("ab", "xy", "cd", "uv", "pq"))
        f = FinFunction(A, X, {Atom("a"): Atom("x"), Atom("b"): Atom("y")})
        g = FinFunction(B, X, {Atom("c"): Atom("x"), Atom("d"): Atom("y")})
        h = FinFunction(B, Y, {Atom("c"): Atom("u"), Atom("d"): Atom("v")})
        k = FinFunction(C, Y, {Atom("p"): Atom("u"), Atom("q"): Atom("v")})
        cone = fin_limit(*_zigzag([A, B, C], [X, Y], [f, g, h, k]))
        K = atoms("k0", "k1", "k2")
        rows = [("a", "c", "p"), ("a", "c", "q"), ("b", "c", "p")]
        maps = [
            FinFunction(K, s, {key: Atom(r[i]) for key, r in zip(K, rows)})
            for i, s in enumerate([A, B, C])
        ]
        with pytest.raises(ValueError, match=r"^cone is not compatible at Atom\('k1'\)$"):
            cone.mediate(K, maps)


class TestBuilders:
    def test_poset_category(self):
        C = poset_category(["0", "1"], lambda a, b: a <= b)
        assert len(C.morphisms) == 3
        assert validate_category(C) == []

    def test_arrow_category_is_chain(self):
        C = arrow_category()
        assert len(C.objects) == 2 and len(C.morphisms) == 3

    def test_discrete(self):
        C = discrete_category(["a", "b", "c"])
        assert len(C.morphisms) == 3
        assert all(C.is_identity(m) for m in C.morphisms)

    def test_monoid(self):
        C = monoid_category(["1", "p"], "1", lambda a, b: "1" if a == b == "1" else "p")
        assert validate_category(C) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_cyclic_group_tables_validate(n, data):
    names = [f"g{i}" for i in range(n)]
    C = group_category(
        names, "g0", lambda a, b: names[(names.index(a) + names.index(b)) % n]
    )
    assert validate_category(C) == []


# ---------------------------------------------------------------------------
# fin_limit against a brute-force reference


def reference_limit(sets: list, links: list):
    """The product of the slot sets filtered by every link, with its
    projections."""
    arrows = []
    for j, link in enumerate(links, start=1):
        if link is not None:
            kind, f = link
            arrows.append((j - 1, j, f) if kind == "fix" else (j, j - 1, f))
    apex = FinSet(
        Tup(t)
        for t in itertools.product(*(s.elements for s in sets))
        if all(f(t[i]) == t[j] for i, j, f in arrows)
    )
    legs = tuple(FinFunction(apex, s, {e: e[i] for e in apex}) for i, s in enumerate(sets))
    return apex, legs


def _numbered(n: int) -> FinSet:
    return FinSet(Atom(str(k)) for k in range(n))


def _random_function(draw, dom: FinSet, cod: FinSet) -> FinFunction:
    return FinFunction(dom, cod, {x: draw(st.sampled_from(cod.elements)) for x in dom})


@st.composite
def zigzag_chains(draw):
    n = draw(st.integers(1, 3))
    edges = [_numbered(draw(st.integers(0, 3))) for _ in range(n)]
    vertices = [_numbered(draw(st.integers(1, 3))) for _ in range(n - 1)]
    maps = []
    for k, v in enumerate(vertices):
        maps += [_random_function(draw, edges[k], v), _random_function(draw, edges[k + 1], v)]
    return _zigzag(edges, vertices, maps)


@st.composite
def product_chains(draw):
    sets = [_numbered(n) for n in draw(st.lists(st.integers(0, 3), max_size=3))]
    return sets, [None] * len(sets[1:])


@settings(max_examples=80, deadline=None)
@given(st.one_of(zigzag_chains(), product_chains()), st.data())
def test_fin_limit_matches_reference(chain, data):
    sets, links = chain
    cone = fin_limit(sets, links)
    apex, legs = reference_limit(sets, links)
    free = _unfixed_slots(sets, links)
    # the size is counted, before anything lists the tuples
    assert len(cone.apex) == len(apex)
    # mediating reference tuples, given by their entries at the unfixed
    # slots, ranks them at their reference positions, and every leg of
    # the mediated map, onto a fixed slot too, reads their entries there
    rows = data.draw(st.lists(st.sampled_from(apex.elements), max_size=6)) if len(apex) else []
    dom = _numbered(len(rows))
    med = cone.mediate(dom, _cone_through(sets, free, dom, rows))
    assert med.idx == tuple(apex.index[r] for r in rows)
    for leg, want in zip(cone.legs, _cone_through(sets, range(len(sets)), dom, rows)):
        assert leg.compose(med) == want
    # a cone whose entries at the unfixed slots match no tuple of the
    # limit is refused at that element
    inside = {tuple(r[i] for i in free) for r in apex}
    outside = [
        t
        for t in itertools.product(*(s.elements for s in sets))
        if tuple(t[i] for i in free) not in inside
    ]
    if outside:
        at = data.draw(st.integers(0, len(rows)))
        bad_rows = [*rows[:at], data.draw(st.sampled_from(outside)), *rows[at:]]
        bad_dom = _numbered(len(bad_rows))
        with pytest.raises(ValueError, match=rf"^cone is not compatible at {re.escape(repr(bad_dom.elements[at]))}$"):
            cone.mediate(bad_dom, _cone_through(sets, free, bad_dom, bad_rows))
    own_legs = [cone.legs[i] for i in free]
    assert cone.mediate(cone.apex, own_legs) == FinFunction.identity(cone.apex)
    labels = cone.apex.elements
    assert labels == FinSet(labels).elements
    assert cone.apex == apex
    assert cone.legs == legs


def _offset_table(apex, j):
    """The rank offsets of every entry of slot j, by one pass over the
    slot: at a preimage slot, a running sum of counts per fiber."""
    ways = apex.counts[j]
    link = apex.links[j - 1] if j else None
    if link is None:
        return tuple(itertools.accumulate(ways, initial=0))[:-1]
    if link[0] == "fix":
        return None
    run = [0] * len(apex.factors[j - 1])
    table = []
    for x, y in enumerate(link[1]):
        table.append(run[y])
        run[y] += ways[x]
    return tuple(table)


@settings(max_examples=80, deadline=None)
@given(st.one_of(zigzag_chains(), product_chains()), st.data())
def test_offsets_on_demand_match_the_full_table(chain, data):
    apex = fin_limit(*chain).apex
    for j, factor in enumerate(apex.factors):
        full = _offset_table(apex, j)
        # the second ask reads the table the first one built
        for _ in range(2):
            entries = data.draw(st.lists(st.integers(0, len(factor) - 1), max_size=5)) if len(factor) else []
            want = None if full is None else tuple(full[x] for x in entries)
            assert apex.offsets(j, entries) == want


def _counts_by_loop(apex) -> list:
    """The completion counts of every slot, worked out backwards with one
    Python loop per slot."""
    factors, links = apex.factors, apex.links
    if not factors:
        return []
    ways = [1] * len(factors[-1])
    counts = [ways]
    for j in range(len(factors) - 1, 0, -1):
        link = links[j - 1]
        if link is None:
            ways = [sum(ways)] * len(factors[j - 1])
        elif link[0] == "fix":
            ways = [ways[y] for y in link[1]]
        else:
            before = [0] * len(factors[j - 1])
            for x, y in enumerate(link[1]):
                before[y] += ways[x]
            ways = before
        counts.insert(0, ways)
    return counts


@settings(max_examples=80, deadline=None)
@given(st.one_of(zigzag_chains(), product_chains()))
def test_counts_match_the_loop(chain):
    apex = fin_limit(*chain).apex
    assert [list(ways) for ways in apex.counts] == _counts_by_loop(apex)


@settings(max_examples=80, deadline=None)
@given(st.one_of(zigzag_chains(), product_chains()), st.data())
def test_own_projections_mediate_by_the_identity(chain, data):
    sets, links = chain
    cone = fin_limit(sets, links)
    apex = cone.apex
    free = _unfixed_slots(sets, links)
    full = apex.rank([apex.column(j) for j in range(len(sets))], len(apex))
    # the limit's own legs, and the legs of a limit built again from the
    # same factors and links, mediate by the identity of positions
    twin = fin_limit(sets, links)
    assert twin.apex is not apex and twin.apex == apex
    for dom, legs in ((apex, cone.legs), (twin.apex, twin.legs)):
        med = cone.mediate(dom, [legs[j] for j in free])
        assert med.idx == full
        assert med.dom is dom and med.cod is apex
    # one entry of one leg changed: the full path ranks the new tuples or
    # names the element whose tuple left the limit
    if len(apex) and free:
        i = data.draw(st.sampled_from(free))
        if len(sets[i]) > 1:
            k = data.draw(st.integers(0, len(apex) - 1))
            col = list(apex.column(i))
            col[k] = data.draw(st.sampled_from([x for x in range(len(sets[i])) if x != col[k]]))
            unfixed = {j: apex.column(j) for j in free}
            unfixed[i] = tuple(col)
            columns = []
            for j, link in enumerate([None, *links]):
                fixed = link is not None and link[0] == "fix"
                columns.append(tuple(link[1].idx[x] for x in columns[-1]) if fixed else unfixed[j])
            maps = [FinFunction.from_idx(apex, sets[j], unfixed[j]) for j in free]
            bad = apex.first_outside(columns)
            if bad is None:
                want = apex.rank(columns, len(apex))
                assert cone.mediate(apex, maps).idx == want != apex.positions
            else:
                name = re.escape(repr(apex.elements[bad]))
                with pytest.raises(ValueError, match=rf"^cone is not compatible at {name}$"):
                    cone.mediate(apex, maps)


def _unfixed_slots(sets, links) -> list:
    """The slots of a chain that no link fixes."""
    fixed = {j for j, link in enumerate(links, start=1) if link is not None and link[0] == "fix"}
    return [j for j in range(len(sets)) if j not in fixed]


def _cone_through(sets, slots, dom, rows) -> list:
    """The maps from dom onto the given slots whose k-th element goes to
    the entries there of the k-th of rows."""
    return [FinFunction(dom, sets[i], {k: r[i] for k, r in zip(dom, rows)}) for i in slots]


def _restriction_by_labels(sets, apex, w):
    """The limit's restriction along w as a label lookup: restrict each
    tuple slot by slot and find the result among the tuples at the source
    of w."""
    idx = apex.topos.index
    c, d = idx.src(w), idx.tgt(w)
    target = apex.at[c]
    return tuple(
        target.index[Tup(X.restrict[w](x) for X, x in zip(sets, e.items))]
        for e in apex.at[d]
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
def test_ps_limit_restrictions_match_label_lookup(topos, seed):
    T, rng = topos(), random.Random(seed)
    B = random_coproduct_presheaf(T, rng, 2)[0]
    if B.total_size() == 0:
        B = terminal(T)
    f, g = random_map_to(T, rng, B, 2), random_map_to(T, rng, B, 2)
    chains = [
        ([f.dom, B, g.dom], [("fix", f), ("preimage", g)]),
        ([f.dom, g.dom], [None]),
        ([g.dom, B, f.dom, B, g.dom], [("fix", g), ("preimage", f), ("fix", f), ("preimage", g)]),
    ]
    for sets, links in chains:
        apex = ps_limit(T, sets, links).apex
        assert apex.validate() == []
        for w in T.index.morphisms:
            assert apex.restrict[w].idx == _restriction_by_labels(sets, apex, w)


def test_apex_is_freed_without_the_cycle_collector():
    # the apex refers to nothing that refers back to it, so it goes as
    # soon as its cone does, with the cycle collector off
    A, X = atoms("a", "b", "c"), atoms("x", "y")
    f = FinFunction(A, X, {Atom("a"): Atom("x"), Atom("b"): Atom("y"), Atom("c"): Atom("x")})
    enabled = gc.isenabled()
    gc.disable()
    try:
        cone = fin_limit(*_zigzag([A, A], [X], [f, f]))
        apex = weakref.ref(cone.apex)
        # list the columns, labels and rank table before letting go
        assert cone.mediate(cone.apex, [cone.legs[0], cone.legs[2]]) == FinFunction.identity(cone.apex)
        columns = [cone.apex.column(j) for j in range(3)]
        assert cone.apex.rank(columns, 5) == cone.apex.positions
        assert len(cone.apex.index) == 5
        del cone
        assert apex() is None
        limit = ps_limit(c2_topos(), [yoneda(c2_topos(), Atom("*"))] * 2, [None])
        at = weakref.ref(limit.apex.at[Atom("*")])
        del limit
        assert at() is None
    finally:
        if enabled:
            gc.enable()

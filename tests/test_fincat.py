import itertools

import pytest
from hypothesis import given, settings, strategies as st

from segaltopos.elements import Atom, FinFunction, FinSet, Tup, atoms
from segaltopos.fincat import (
    Diagram,
    FiniteCategory,
    ResourceBoundError,
    arrow_category,
    discrete_category,
    fin_limit,
    fin_product,
    group_category,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_diagram,
    zigzag_shape,
)
from segaltopos.corpus import corpus_categories


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
    def test_empty_product_is_terminal(self):
        apex, projections = fin_product([])
        assert list(apex) == [Tup(())]
        assert projections == []

    def test_two_by_one(self):
        apex, _ = fin_product([atoms("a", "b"), atoms("c")])
        assert list(apex) == [Tup([Atom("a"), Atom("c")]), Tup([Atom("b"), Atom("c")])]

    def test_projections_total(self):
        sets = [atoms("0", "1"), atoms("0", "1")]
        apex, projections = fin_product(sets)
        assert len(apex) == 4
        for i, proj in enumerate(projections):
            for e in apex:
                assert proj(e) == e[i]

    def test_bound(self):
        with pytest.raises(ResourceBoundError) as exc:
            fin_product([atoms("a", "b")] * 3, bound=7)
        assert (exc.value.stage, exc.value.size, exc.value.bound) == ("fin_product", 8, 7)


def _cospan_diagram(fsets, fns):
    shape = zigzag_shape(2)
    obj = {Atom(f"o{i}"): s for i, s in enumerate(fsets)}
    mor = {Atom("a0"): fns[0], Atom("a1"): fns[1]}
    for o in shape.objects:
        mor[shape.id_of(o)] = FinFunction.identity(obj[o])
    return Diagram(shape, obj, mor)


class TestFinLimit:
    def test_pullback_over_singleton_is_product(self):
        A, B, X = atoms("a", "b"), atoms("c"), atoms("x")
        d = _cospan_diagram(
            [A, X, B],
            [FinFunction.constant(A, X, Atom("x")), FinFunction.constant(B, X, Atom("x"))],
        )
        cone = fin_limit(d)
        assert len(cone.apex) == 2

    def test_equalizer_of_swap_empty(self):
        # fixed points of the swap, computed as a limit over a loop shape
        s = atoms("0", "1")
        shape = terminal_category()
        o = Atom("*")
        swap = FinFunction(s, s, {Atom("0"): Atom("1"), Atom("1"): Atom("0")})
        mors = FinSet(list(shape.morphisms) + [Atom("w")])
        src = FinFunction(mors, shape.objects, {m: o for m in mors})
        comp = {}
        idm = shape.id_of(o)
        for g in mors:
            for f in mors:
                if f == idm:
                    comp[(g, f)] = g
                elif g == idm:
                    comp[(g, f)] = f
                else:
                    comp[(g, f)] = idm  # swap is an involution
        loop = FiniteCategory(shape.objects, mors, src, src, shape.identity, comp)
        d = Diagram(loop, {o: s}, {idm: FinFunction.identity(s), Atom("w"): swap})
        assert len(fin_limit(d).apex) == 0

    def test_triple_product_via_wide_pullback(self):
        # wide pullback over a singleton vertex set is a plain product
        T1, T0 = atoms("e", "g"), atoms("*")
        to_pt = FinFunction.constant(T1, T0, Atom("*"))
        shape = zigzag_shape(3)
        obj, mor = {}, {}
        for i in range(5):
            obj[Atom(f"o{i}")] = T1 if i % 2 == 0 else T0
        for i in range(4):
            mor[Atom(f"a{i}")] = to_pt
        for o in shape.objects:
            mor[shape.id_of(o)] = FinFunction.identity(obj[o])
        cone = fin_limit(Diagram(shape, obj, mor))
        assert len(cone.apex) == 8

    def test_single_object_limit_wraps_input(self):
        s = atoms("a", "b")
        shape = terminal_category()
        o = Atom("*")
        d = Diagram(shape, {o: s}, {shape.id_of(o): FinFunction.identity(s)})
        cone = fin_limit(d)
        assert [e[0] for e in cone.apex] == list(s)

    def test_rejects_non_functorial(self):
        s = atoms("a", "b")
        shape = terminal_category()
        o = Atom("*")
        swap = FinFunction(s, s, {Atom("a"): Atom("b"), Atom("b"): Atom("a")})
        d = Diagram(shape, {o: s}, {shape.id_of(o): swap})
        with pytest.raises(ValueError):
            fin_limit(d)

    def test_unique_mediating_map(self):
        # every competing cone factors uniquely through the limit
        A, B, X = atoms("a", "b"), atoms("c", "d"), atoms("x", "y")
        f = FinFunction(A, X, {Atom("a"): Atom("x"), Atom("b"): Atom("y")})
        g = FinFunction(B, X, {Atom("c"): Atom("x"), Atom("d"): Atom("x")})
        d = _cospan_diagram([A, X, B], [f, g])
        cone = fin_limit(d)
        K = atoms("k")
        legs = {
            Atom("o0"): FinFunction.constant(K, A, Atom("a")),
            Atom("o1"): FinFunction.constant(K, X, Atom("x")),
            Atom("o2"): FinFunction.constant(K, B, Atom("c")),
        }
        med = cone.mediate(K, legs)
        for o, leg in legs.items():
            assert cone.legs[o].compose(med) == leg
        # uniqueness: no other map into the apex commutes with all legs
        others = [
            v
            for v in cone.apex
            if all(v[i] == legs[o](Atom("k")) for i, o in enumerate([Atom("o0"), Atom("o1"), Atom("o2")]))
        ]
        assert len(others) == 1


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

    def test_zigzag_shapes(self):
        for n in range(1, 5):
            shape = zigzag_shape(n)
            assert validate_category(shape) == []
            assert len(shape.objects) == 2 * n - 1


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


def reference_limit(d: Diagram):
    """The product of the slot sets filtered by every morphism of the shape,
    with its projections."""
    order = d.shape.objects.elements
    pos = {o: i for i, o in enumerate(order)}
    arrows = [(pos[d.shape.src(u)], pos[d.shape.tgt(u)], d.mor[u]) for u in d.shape.morphisms]
    apex = FinSet(
        Tup(t)
        for t in itertools.product(*(d.obj[o].elements for o in order))
        if all(f(t[i]) == t[j] for i, j, f in arrows)
    )
    legs = {o: FinFunction(apex, d.obj[o], {e: e[i] for e in apex}) for i, o in enumerate(order)}
    return apex, legs


def _numbered(n: int) -> FinSet:
    return FinSet(Atom(str(k)) for k in range(n))


def _random_function(draw, dom: FinSet, cod: FinSet) -> FinFunction:
    return FinFunction(dom, cod, {x: draw(st.sampled_from(cod.elements)) for x in dom})


def _diagram(shape, obj, arrows):
    mor = dict(arrows)
    for o in shape.objects:
        mor[shape.id_of(o)] = FinFunction.identity(obj[o])
    return Diagram(shape, obj, mor)


@st.composite
def zigzag_diagrams(draw):
    n = draw(st.integers(1, 3))
    shape = zigzag_shape(n)
    obj = {
        Atom(f"o{i}"): _numbered(draw(st.integers(0 if i % 2 == 0 else 1, 3)))
        for i in range(2 * n - 1)
    }
    arrows = {}
    for k in range(n - 1):
        vertex = obj[Atom(f"o{2 * k + 1}")]
        arrows[Atom(f"a{2 * k}")] = _random_function(draw, obj[Atom(f"o{2 * k}")], vertex)
        arrows[Atom(f"a{2 * k + 1}")] = _random_function(draw, obj[Atom(f"o{2 * k + 2}")], vertex)
    return _diagram(shape, obj, arrows)


@st.composite
def chain_diagrams(draw):
    """x ≤ y ≤ z with the names shuffled, so the slot order mixes arrows
    into and out of a slot and a slot with two constraints."""
    x, y, z = draw(st.permutations(["a", "b", "c"]))
    rank = {x: 0, y: 1, z: 2}
    shape = poset_category(["a", "b", "c"], lambda p, q: rank[p] <= rank[q])
    sets = {v: _numbered(draw(st.integers(1, 3))) for v in (x, y, z)}
    f = _random_function(draw, sets[x], sets[y])
    g = _random_function(draw, sets[y], sets[z])
    obj = {Atom(v): s for v, s in sets.items()}
    arrows = {
        Tup((Atom(x), Atom(y))): f,
        Tup((Atom(y), Atom(z))): g,
        Tup((Atom(x), Atom(z))): g.compose(f),
    }
    return _diagram(shape, obj, arrows)


@st.composite
def monoid_diagrams(draw):
    """A set with an idempotent or an involution: one object, one
    non-identity loop."""
    s = _numbered(draw(st.integers(0, 4)))
    xs = list(s)
    if draw(st.booleans()):
        shape = monoid_category(["1", "p"], "1", lambda a, b: "1" if a == b == "1" else "p")
        fixed = set(draw(st.lists(st.sampled_from(xs), min_size=1, unique=True))) if xs else set()
        table = {x: x if x in fixed else draw(st.sampled_from(sorted(fixed))) for x in xs}
    else:
        shape = c2()
        table = {}
        rest = draw(st.permutations(xs))
        while rest:
            a, *rest = rest
            b = rest.pop(0) if rest and draw(st.booleans()) else a
            table[a], table[b] = b, a
    loop = shape.morphisms.elements[-1]
    return _diagram(shape, {Atom("*"): s}, {loop: FinFunction(s, s, table)})


@settings(max_examples=80, deadline=None)
@given(st.one_of(zigzag_diagrams(), chain_diagrams(), monoid_diagrams()))
def test_fin_limit_matches_reference(d):
    cone = fin_limit(d)
    # before anything asks for the apex labels
    assert cone.mediate(cone.apex, cone.legs) == FinFunction.identity(cone.apex)
    labels = cone.apex.elements
    assert labels == FinSet(labels).elements
    apex, legs = reference_limit(d)
    assert cone.apex == apex
    assert cone.legs == legs

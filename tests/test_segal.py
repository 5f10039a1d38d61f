import random
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, reject, settings, strategies as st

from segaltopos import segal
from segaltopos.elements import Atom, FinFunction, FinSet, STAR, Tup
from segaltopos.fincat import FiniteCategory, ResourceBoundError, cayley_representation, validate_category
from segaltopos.corpus import (
    c2_topos,
    c3_group,
    category_problems_by_triples,
    coproduct,
    corpus_categories,
    finset_presheaf,
    is_gaunt,
    iso_hom_set,
    iso_set,
    random_coproduct_presheaf,
    random_map_to,
    sierpinski_topos,
)
from segaltopos.segal import (
    CategoryObject,
    CategoryObjectError,
    SegalMap,
    TruncatedSimplicialObject,
    category_object_from_finite_category,
    compose,
    composable_pairs,
    composition_data,
    constant_singleton_simplicial,
    hoequiv,
    hoequiv_object,
    identity_morphism,
    is_complete,
    is_essentially_surjective,
    is_final_object,
    is_fully_faithful,
    is_hoequiv_morphism,
    is_segal,
    isomorphisms,
    mapping_object,
    nerve_level_sizes,
    nerve_truncation,
    segal_check,
    segal_map_from_nerves,
    to_category_object,
    total_degeneracy,
    validate_category_object,
    z3,
)
from segaltopos.topos import (
    NatTrans,
    Presheaf,
    Topos,
    finset_topos,
    is_iso,
    is_mono,
    ps_product,
    terminal,
)
from segaltopos.cli import main
from segaltopos.univalence import _finset_map, is_univalent, nerve_of_map

STAR_OBJ = Atom("*")


def nerve(name):
    C = corpus_categories()[name]
    cat = category_object_from_finite_category(C)
    return C, cat, nerve_truncation(cat)


def map_nerve(p):
    """The fiberwise-map category of p and its nerve up to level 3."""
    cat = nerve_of_map(p).cat
    return cat, nerve_truncation(cat)


def point(cat, o):
    one = terminal(cat.topos)
    return NatTrans(
        one,
        cat.C0,
        {STAR_OBJ: FinFunction(one.at[STAR_OBJ], cat.C0.at[STAR_OBJ], {STAR: o})},
    )


class TestNerveTruncation:
    def test_terminal_category(self):
        _, _, X = nerve("terminal")
        assert [X.level[n].total_size() for n in range(4)] == [1, 1, 1, 1]

    def test_c2_levels_are_powers(self):
        _, _, X = nerve("c2")
        assert [X.level[n].total_size() for n in range(4)] == [1, 2, 4, 8]

    def test_chain2_level_one(self):
        _, _, X = nerve("chain2")
        assert X.level[1].total_size() == 3

    def test_simplicial_identities_validated(self):
        for name in corpus_categories():
            _, _, X = nerve(name)
            assert X.validate() == [], name

    def test_invalid_category_object_rejected(self):
        C = corpus_categories()["c2"]
        cat = category_object_from_finite_category(C)
        # swap two values of the composition table to break the unit laws
        table = dict(cat.m.component[STAR_OBJ].table)
        keys = sorted(table)
        table[keys[0]], table[keys[1]] = table[keys[1]], table[keys[0]]
        bad_m = NatTrans(
            cat.composable.apex,
            cat.C1,
            {
                STAR_OBJ: FinFunction(
                    cat.composable.apex.at[STAR_OBJ], cat.C1.at[STAR_OBJ], table
                )
            },
        )
        with pytest.raises(CategoryObjectError) as exc:
            CategoryObject(
                cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, bad_m
            )
        assert exc.value.problems != []
        # a keyword call, as a copy with one field changed makes, is checked too
        with pytest.raises(CategoryObjectError):
            CategoryObject(
                cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, m=bad_m
            )

    def test_level3_needs_the_chain_of_composable_pairs(self):
        # over the one object of c2 the product C1 x C0 x C1 has the same
        # tuples as the composable pairs, so it makes a valid category
        # object; but a map into it takes all three slots, not the two
        # arrows the faces out of level 3 are given by
        cat = category_object_from_finite_category(corpus_categories()["c2"])
        product = ps_product([cat.C1, cat.C0, cat.C1])
        pairs, arrows = product.apex.at[STAR_OBJ], cat.C1.at[STAR_OBJ]
        composite = FinFunction.from_idx(pairs, arrows, cat.m.component[STAR_OBJ].idx)
        m = NatTrans(product.apex, cat.C1, {STAR_OBJ: composite})
        other = CategoryObject(cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, product, m)
        with pytest.raises(ValueError, match="^a cone into this limit takes 3 maps, not 2$"):
            nerve_truncation(other)

    def test_records_are_frozen(self):
        _, cat, X = nerve("c2")
        with pytest.raises(FrozenInstanceError):
            cat.m = cat.e
        with pytest.raises(FrozenInstanceError):
            X.face = {}

    def test_associativity_loop_is_bounded(self):
        # c2 has 2 x 2 x 2 composable triples at the one stage, as many as
        # X3, but the laws read none of them, so no bound is checked on
        # them; bounds act where limits are built, as on the 2 x 2
        # composable pairs
        cat = category_object_from_finite_category(corpus_categories()["c2"])
        fields = (cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, cat.m)
        assert validate_category_object(CategoryObject(finset_topos(7), *fields)) == []
        assert composable_pairs(finset_topos(4), cat.C0, cat.C1, cat.s, cat.t, 2).apex.total_size() == 4
        with pytest.raises(ResourceBoundError) as exc:
            composable_pairs(finset_topos(3), cat.C0, cat.C1, cat.s, cat.t, 2)
        assert (exc.value.stage, exc.value.size) == ("fin_limit", 4)


def _associativity_by_triples(topos, C0, C1, s, t, e, composable, m) -> list[tuple]:
    """Reference for the associativity law on the fields of a category
    object: the triples (f1, f2, f3) on which it fails, one comparison per
    composable triple, looked up in a table keyed by pairs of arrows."""
    failing = []
    for c in topos.index.objects:
        arrows = C1.at[c].elements
        src, tgt = s.component[c].idx, t.component[c].idx
        pairs = zip(composable.legs[0].component[c].idx, composable.legs[2].component[c].idx)
        comp = dict(zip(pairs, m.component[c].idx))
        for (f1, f2), g in comp.items():
            for f3 in range(len(arrows)):
                if src[f3] == tgt[f2] and comp[(g, f3)] != comp[(f1, comp[(f2, f3)])]:
                    failing.append((arrows[f1], arrows[f2], arrows[f3]))
    return failing


def _composition_problem(c, f1, f2) -> str:
    return f"composition fails at {c!r} on ({f1!r},{f2!r}): its rep is not rep f2 after rep f1"


def _with_composites(cat, table: dict) -> tuple:
    """The fields of cat, over the one-object index, with m given by table."""
    (c,) = cat.topos.index.objects
    pairs = cat.composable.apex.at[c]
    m = NatTrans(cat.composable.apex, cat.C1, {c: FinFunction(pairs, cat.C1.at[c], table)})
    return (cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, m)


def _problems(*fields) -> list[str]:
    """The problems of a category object with these fields, [] when none."""
    try:
        CategoryObject(*fields)
    except CategoryObjectError as exc:
        return exc.problems
    return []


def _pair_problems(cat, failing) -> list[str]:
    """What the check through a rep reports for these failing triples
    (h, f1, f2): one problem per composable pair (f1, f2) among them, since
    rep m(f1, f2) and rep f2 after rep f1 differ at the place of h."""
    (c,) = cat.topos.index.objects
    named = {(f1, f2) for _, f1, f2 in failing}
    pairs = ((p[0], p[2]) for p in cat.composable.apex.at[c])
    return [_composition_problem(c, f1, f2) for f1, f2 in pairs if (f1, f2) in named]


@pytest.mark.parametrize("name", ["c3", "s3", (2,), (1, 2), "c2"])
def test_corrupted_composite_fails_associativity_only(name):
    # every change of one composite of two non-identities to another arrow
    # with the same endpoints keeps the unit laws, so only associativity
    # can fail.  Checked through a given rep (the fiberwise-map object's
    # own, the Cayley rep of a corpus category), every change is rejected,
    # associative or not, on the one pair it changed.  Checked without one,
    # through the Cayley rep of the changed m, a change is rejected exactly
    # when the triple-by-triple reference finds a failing triple.
    if isinstance(name, tuple):
        # the fiberwise maps of the map of finite sets with these fibers
        cat = nerve_of_map(_finset_map(name)).cat
        rep = cat.rep
    else:
        cat = category_object_from_finite_category(corpus_categories()[name])
        rep = _cayley_rep(cat)
    (c,) = cat.topos.index.objects
    ids = set(cat.e.component[c].idx)
    src, tgt = cat.s.component[c], cat.t.component[c]
    table = cat.m.component[c].table
    corrupted = tried = 0
    for pair, h in table.items():
        f1, f2 = pair[0], pair[2]
        if {cat.C1.at[c].index[f1], cat.C1.at[c].index[f2]} & ids:
            continue
        for other in cat.C1.at[c]:
            if other is h or (src(other), tgt(other)) != (src(h), tgt(h)):
                continue
            tried += 1
            fields = _with_composites(cat, {**table, pair: other})
            assert _problems(*fields, rep) == [_composition_problem(c, f1, f2)]
            failing = _associativity_by_triples(*fields)
            assert _problems(*fields) == _pair_problems(cat, failing)
            corrupted += bool(failing)
    # every change breaks associativity but C2's g after g = g, which gives
    # the monoid {e, g} with g idempotent
    assert tried and tried - corrupted == (name == "c2")


def _other_arrows(C, h) -> list:
    """The arrows of C other than h with the same source and target."""
    return [k for k in C.morphisms if k != h and (C.src(k), C.tgt(k)) == (C.src(h), C.tgt(h))]


@pytest.mark.parametrize(
    "name",
    # in the others no two arrows have the same ends
    [n for n, C in sorted(corpus_categories().items()) if any(_other_arrows(C, h) for h in C.comp.values())],
)
@settings(deadline=None)
@given(data=st.data())
def test_cayley_check_against_the_references(name, data):
    # one to three composites of a corpus category, identities' included,
    # changed to other arrows with the same ends: the check through the
    # Cayley rep accepts exactly when the corpus's brute-force check and the
    # triple-by-triple reference do, and it names, as failing composition,
    # exactly the pairs (f1, f2) of the failing triples (h, f1, f2), so at
    # least one whenever associativity fails.  fincat's check of the
    # changed table as an index category accepts exactly when the
    # brute-force check does.
    C = corpus_categories()[name]
    comp = dict(C.comp)
    changeable = sorted(pair for pair, h in C.comp.items() if _other_arrows(C, h))
    for pair in data.draw(st.lists(st.sampled_from(changeable), min_size=1, max_size=3, unique=True)):
        comp[pair] = data.draw(st.sampled_from(_other_arrows(C, C.comp[pair])))
    changed = FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, C.identity, comp)
    try:
        category_object_from_finite_category(changed)
        problems = []
    except CategoryObjectError as exc:
        problems = exc.problems
    cat = category_object_from_finite_category(C)
    fields = _with_composites(cat, {p: comp[(p[2], p[0])] for p in cat.composable.apex.at[STAR_OBJ]})
    failing = _associativity_by_triples(*fields)
    by_triples = category_problems_by_triples(changed)
    assert (problems == []) == (by_triples == [] and failing == [])
    assert (validate_category(changed) == []) == (by_triples == [])
    assert [p for p in problems if p.startswith("composition fails")] == _pair_problems(cat, failing)
    others = [p for p in problems if not p.startswith("composition fails")]
    assert all(p.startswith(("unit law fails", "rep is not faithful")) for p in others)


@pytest.mark.parametrize("name", [n for n, C in sorted(corpus_categories().items()) if len(C.morphisms) >= 2])
@settings(deadline=None)
@given(data=st.data())
def test_one_check_of_the_axioms_against_the_composite_reference(name, data):
    # up to three identities and three composites of a corpus category with
    # two or more arrows, each changed to any arrow or to another with the
    # same ends: the endpoint axioms fail only where there are two or more
    # objects, and the laws only where two arrows share their ends.  The
    # category object, and the table as an index category, are accepted
    # exactly when the reference accepts: the endpoint axioms as composites
    # of natural transformations, then the laws triple by triple.  Each
    # element a problem names breaks the axiom it names.
    C = corpus_categories()[name]
    arrows = list(C.morphisms)

    def changed(table):
        table = dict(table)
        for key in data.draw(st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True)):
            same_ends = _other_arrows(C, table[key])
            table[key] = data.draw(st.sampled_from(same_ends if same_ends and data.draw(st.booleans()) else arrows))
        return table

    ident = changed({x: C.id_of(x) for x in C.objects})
    comp = changed(C.comp)
    table = FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, FinFunction(C.objects, C.morphisms, ident), comp)
    cat = category_object_from_finite_category(C)
    (c,) = cat.topos.index.objects
    pairs = cat.composable.apex.at[c]
    e = NatTrans(cat.C0, cat.C1, {c: FinFunction(cat.C0.at[c], cat.C1.at[c], ident)})
    m = NatTrans(cat.composable.apex, cat.C1, {c: FinFunction(pairs, cat.C1.at[c], {p: comp[(p[2], p[0])] for p in pairs})})
    problems = _problems(cat.topos, cat.C0, cat.C1, cat.s, cat.t, e, cat.composable, m)
    ident0, pr1, pr2 = NatTrans.identity(cat.C0), cat.composable.legs[0], cat.composable.legs[2]
    ends_hold = e.then(cat.s) == ident0 == e.then(cat.t) and m.then(cat.s) == pr1.then(cat.s) and m.then(cat.t) == pr2.then(cat.t)
    accepts = ends_hold and category_problems_by_triples(table) == []
    assert (problems == []) == accepts
    assert (validate_category(table) == []) == accepts
    # each problem the check can name, with whether its element breaks its
    # axiom, read only when named: the laws' lookups need the right ends
    where, breaks = f" at {c!r}", {}
    for x, u in ident.items():
        breaks[f"identity of {x!r} has wrong endpoints{where}"] = lambda x=x, u=u: (C.src(u), C.tgt(u)) != (x, x)
        unit = f"unit law fails to follow{where}: rep of {u!r} is not the identity"
        breaks[unit] = lambda x=x, u=u: any(comp[(u, k)] != k for k in C.morphisms_into(x))
    for (g, f), h in comp.items():
        breaks[f"comp({g!r},{f!r}) has wrong endpoints{where}"] = lambda f=f, g=g, h=h: (C.src(h), C.tgt(h)) != (C.src(f), C.tgt(g))
        fails = f"composition fails{where} on ({f!r},{g!r}): its rep is not rep f2 after rep f1"
        breaks[fails] = lambda f=f, g=g, h=h: any(comp[(h, k)] != comp[(g, comp[(f, k)])] for k in C.morphisms_into(C.src(f)))
    for i, f in enumerate(arrows):
        for g in arrows[i + 1 :]:
            # rep f = rep g gives m(e(s f), f) = m(e(s f), g), so a unit law fails
            faithful = f"rep is not faithful{where}: {f!r} and {g!r}"
            breaks[faithful] = lambda f=f, g=g, u=ident[C.src(f)]: comp[(f, u)] != f or comp[(g, u)] != g
    assert all(breaks[p]() for p in problems)


def _cayley_rep(cat):
    """The Cayley representation of a category object over the one-object
    index: the places of x are the arrows into x, in their order, and rep f
    sends the place of h to that of "f after h", m(h, f)."""
    (c,) = cat.topos.index.objects
    arrows, src, tgt = range(len(cat.C1.at[c])), cat.s.component[c].idx, cat.t.component[c].idx
    pairs = zip(cat.composable.legs[0].component[c].idx, cat.composable.legs[2].component[c].idx)
    comp = dict(zip(pairs, cat.m.component[c].idx))
    into = [[h for h in arrows if tgt[h] == x] for x in range(len(cat.C0.at[c]))]
    return {c: tuple(tuple(into[tgt[f]].index(comp[(h, f)]) for h in into[src[f]]) for f in arrows)}


@pytest.mark.parametrize("name", sorted(corpus_categories()))
def test_cayley_representation_validates(name):
    # the reference above is fincat's Cayley rep, which checks every index
    # category and every category object built without one
    cat = category_object_from_finite_category(corpus_categories()[name])
    (c,) = cat.topos.index.objects
    maps = (cat.s, cat.t, cat.composable.legs[0], cat.composable.legs[2], cat.m)
    library = cayley_representation(len(cat.C0.at[c]), *(f.component[c].idx for f in maps))
    assert {c: library} == _cayley_rep(cat)
    fields = (cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, cat.m)
    assert validate_category_object(CategoryObject(*fields, _cayley_rep(cat))) == []


class TestRepresentationCheck:
    """Each way the check through rep fails, on the group C2 = {e, g} as a
    category object, whose Cayley rep sends e to the identity on two places
    and g to their swap."""

    @staticmethod
    def problems(rep_e, rep_g):
        cat = category_object_from_finite_category(corpus_categories()["c2"])
        (c,) = cat.topos.index.objects
        (unit,) = cat.e.component[c].idx
        arrows = cat.C1.at[c].elements
        rep = {c: tuple(rep_e if f == unit else rep_g for f in range(len(arrows)))}
        fields = (cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, cat.m)
        with pytest.raises(CategoryObjectError) as exc:
            CategoryObject(*fields, rep)
        return exc.value.problems, c, arrows, arrows[unit], arrows[1 - unit]

    def test_not_faithful(self):
        # the representation on no places respects units and composition
        # but cannot tell e from g
        problems, c, arrows, _, _ = self.problems((), ())
        assert problems == [f"rep is not faithful at {c!r}: {arrows[0]!r} and {arrows[1]!r}"]

    def test_composite_disagrees_with_pick(self):
        # faithful, with e the identity, but g after g is e while the
        # constant map after itself is not the identity
        problems, c, _, _, g = self.problems((0, 1), (0, 0))
        assert problems == [
            f"composition fails at {c!r} on ({g!r},{g!r}): its rep is not rep f2 after rep f1"
        ]

    def test_unit_not_the_identity(self):
        problems, c, _, e, _ = self.problems((1, 0), (0, 1))
        assert problems[0] == f"unit law fails to follow at {c!r}: rep of {e!r} is not the identity"
        assert all(p.startswith("composition fails") for p in problems[1:])

    @pytest.mark.parametrize("rep_g", [(1,), (-1,), (0, 0), ()], ids=["past", "negative", "long", "short"])
    def test_not_a_map_into_the_target(self, rep_g):
        # e is the identity on one place, and g is no map from it to it
        problems, c, _, _, g = self.problems((0,), rep_g)
        assert problems == [f"rep at {c!r} of {g!r} is not a map between its ends"]


class TestCategoryObjectStructure:
    """The finset bundle's chain2_cat, the poset 0 <= 1, with one structure
    map broken: the problem names the element that breaks an endpoint
    axiom, or the map of the wrong type, and no law is checked after it."""

    @staticmethod
    def problems(bundled_workspaces, **changed) -> list[str]:
        cat = bundled_workspaces["finset"].category_objects["chain2_cat"]
        fields = dict(topos=cat.topos, C0=cat.C0, C1=cat.C1, s=cat.s, t=cat.t, e=cat.e, composable=cat.composable, m=cat.m)
        fields.update({name: make(cat) for name, make in changed.items()})
        with pytest.raises(CategoryObjectError) as exc:
            CategoryObject(**fields)
        assert str(exc.value) == "invalid category object: " + "; ".join(exc.value.problems)
        return exc.value.problems

    def test_identity_with_wrong_ends(self, bundled_workspaces):
        def e(cat):  # e(0) = the arrow 0 -> 1
            table = {Atom("0"): Tup((Atom("0"), Atom("1"))), Atom("1"): Tup((Atom("1"), Atom("1")))}
            return NatTrans(cat.C0, cat.C1, {STAR_OBJ: FinFunction(cat.C0.at[STAR_OBJ], cat.C1.at[STAR_OBJ], table)})

        assert self.problems(bundled_workspaces, e=e) == ["identity of Atom('0') has wrong endpoints at Atom('*')"]

    def test_composite_with_wrong_ends(self, bundled_workspaces):
        def m(cat):  # m(id 0, 0 -> 1) = id 0
            id0, up = Tup((Atom("0"), Atom("0"))), Tup((Atom("0"), Atom("1")))
            table = dict(cat.m.component[STAR_OBJ].table)
            table[Tup((id0, Atom("0"), up))] = id0
            pairs = cat.composable.apex.at[STAR_OBJ]
            return NatTrans(cat.composable.apex, cat.C1, {STAR_OBJ: FinFunction(pairs, cat.C1.at[STAR_OBJ], table)})

        assert self.problems(bundled_workspaces, m=m) == [
            "comp(Tup([Atom('0'), Atom('1')]),Tup([Atom('0'), Atom('0')])) has wrong endpoints at Atom('*')"
        ]

    def test_mistyped_maps(self, bundled_workspaces):
        # s the identity on C1 and m a map into C0, each natural
        problems = self.problems(
            bundled_workspaces,
            s=lambda cat: NatTrans.identity(cat.C1),
            m=lambda cat: cat.composable.legs[0].then(cat.s),
        )
        assert problems == ["s is not a map C1 -> C0", "m is not a map C1 x_C0 C1 -> C1"]

    @pytest.mark.parametrize("slots", ["C0 C0 C0", "C1 C0 C1", "C1 C1"])
    def test_composable_cone_that_is_not_the_pairs(self, slots):
        # chain3 with its composable pairs replaced by a product and m
        # constant: the cone must have three legs, the first and last
        # pairs of arrows with t f1 = s f2, and no axiom is read off
        # anything else
        cat = category_object_from_finite_category(corpus_categories()["chain3"])
        cone = ps_product([getattr(cat, name) for name in slots.split()])
        tuples = cone.apex.at[STAR_OBJ]
        m = NatTrans(cone.apex, cat.C1, {STAR_OBJ: FinFunction.from_idx(tuples, cat.C1.at[STAR_OBJ], (0,) * len(tuples))})
        with pytest.raises(CategoryObjectError) as exc:
            CategoryObject(cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cone, m)
        assert exc.value.problems == ["composable is not C1 x_C0 C1 at Atom('*')"]


def _nerve_by_formulas(cat, c):
    """The faces and degeneracies of the nerve of cat at the index object c,
    on labels: a two-chain is (f1, x, f2), a three-chain (f1, x1, f2, x2,
    f3), and m(f1, f2) is "f2 after f1"."""
    s, t, e = (f.component[c] for f in (cat.s, cat.t, cat.e))

    def m(f1, f2):
        return cat.m.component[c](Tup((f1, t(f1), f2)))

    face = {
        (1, 0): t,
        (1, 1): s,
        (2, 0): lambda p: p[2],
        (2, 1): lambda p: m(p[0], p[2]),
        (2, 2): lambda p: p[0],
        (3, 0): lambda q: Tup(q[2:]),
        (3, 1): lambda q: Tup((m(q[0], q[2]), q[3], q[4])),
        (3, 2): lambda q: Tup((q[0], q[1], m(q[2], q[4]))),
        (3, 3): lambda q: Tup(q[:3]),
    }
    degen = {
        (0, 0): e,
        (1, 0): lambda f: Tup((e(s(f)), s(f), f)),
        (1, 1): lambda f: Tup((f, t(f), e(t(f)))),
        (2, 0): lambda p: Tup((e(s(p[0])), s(p[0]), *p.items)),
        (2, 1): lambda p: Tup((p[0], p[1], e(p[1]), p[1], p[2])),
        (2, 2): lambda p: Tup((*p.items, t(p[2]), e(t(p[2])))),
    }
    return face, degen


def _source_id(source) -> str:
    if isinstance(source, str):
        return source
    if isinstance(source[0], int):
        return f"fibers {source}"
    return " ".join(source)


@pytest.mark.parametrize(
    "source",
    [
        "c2",
        "chain2",
        "walking_iso",
        (2,),
        (3,),
        (1, 2),
        ("c2", "free_over_point"),
        ("sierpinski", "open_over_point"),
    ],
    ids=_source_id,
)
def test_nerve_faces_and_degeneracies_follow_their_formulas(source, bundled_workspaces):
    # the nerves of corpus categories, of maps of finite sets with the
    # given fibers, and of bundled maps over index categories with more
    # than one arrow or object
    if isinstance(source, str):
        _, cat, X = nerve(source)
    else:
        if isinstance(source[0], int):
            p = _finset_map(source)
        else:
            w = bundled_workspaces[source[0]]
            p = w.morphisms[w.maps[source[1]]]
        cat = nerve_of_map(p).cat
        X = nerve_truncation(cat)
    for c in X.topos.index.objects:
        face, degen = _nerve_by_formulas(cat, c)
        for maps, formulas in ((X.face, face), (X.degen, degen)):
            assert maps.keys() == formulas.keys()
            for key, f in maps.items():
                g = f.component[c]
                assert len(g.dom) > 0
                for chain in g.dom:
                    assert g(chain) == formulas[key](chain), (key, chain)


def _singleton_index_presheaf(T, s):
    return Presheaf(T, {STAR_OBJ: s}, {T.index.id_of(STAR_OBJ): FinFunction.identity(s)})


def _punctured_c2_nerve() -> TruncatedSimplicialObject:
    """The nerve of the two-element group with the non-degenerate two-chain
    (g, g) removed, along with every three-chain having it as a face.  All
    simplicial identities survive the restriction, but the two-chain
    comparison is no longer surjective onto the spine pullback."""
    _, _, X = nerve("c2")
    g = Atom("g")
    (z,) = [x for x in X.level[2].at[STAR_OBJ] if x[0] == g and x[2] == g]
    keep2 = FinSet(x for x in X.level[2].at[STAR_OBJ] if x != z)
    keep3 = FinSet(
        y
        for y in X.level[3].at[STAR_OBJ]
        if all(X.face[(3, i)].component[STAR_OBJ](y) != z for i in range(4))
    )
    T = X.topos
    levels = {
        0: X.level[0],
        1: X.level[1],
        2: _singleton_index_presheaf(T, keep2),
        3: _singleton_index_presheaf(T, keep3),
    }

    def restricted(f, n_from, n_to):
        dom, cod = levels[n_from], levels[n_to]
        table = {x: f.component[STAR_OBJ](x) for x in dom.at[STAR_OBJ]}
        return NatTrans(
            dom, cod, {STAR_OBJ: FinFunction(dom.at[STAR_OBJ], cod.at[STAR_OBJ], table)}
        )

    face = {(n, i): restricted(f, n, n - 1) for (n, i), f in X.face.items()}
    degen = {(n, i): restricted(f, n, n + 1) for (n, i), f in X.degen.items()}
    return TruncatedSimplicialObject(T, levels, face, degen)


class TestSegalCondition:
    def test_all_nerves_are_segal(self):
        for name in corpus_categories():
            _, _, X = nerve(name)
            assert is_segal(X), name

    def test_constant_singleton(self):
        assert is_segal(constant_singleton_simplicial(finset_topos()))

    def test_witness_comparisons_are_isos_for_nerves(self):
        _, _, X = nerve("c2")
        w = segal_check(X)
        for n in (2, 3):
            assert w.comparison[n].validate() == []
            assert is_iso(w.comparison[n])

    def test_punctured_nerve_is_valid_but_not_segal(self):
        X = _punctured_c2_nerve()
        assert X.validate() == []
        assert [X.level[n].total_size() for n in range(4)] == [1, 2, 3, 4]
        assert not is_segal(X)

    def test_error_line_lists_five_problems_and_counts_the_rest(self):
        _, _, X = nerve("c2")
        with pytest.raises(ValueError) as exc:
            TruncatedSimplicialObject(X.topos, X.level, {}, {})
        missing = "; ".join(f"missing face ({n},{i})" for n, i in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)))
        # nine faces and six degeneracies are missing
        assert str(exc.value) == f"invalid simplicial object: {missing}; and 10 more"

    def test_round_trip_category_object(self):
        for name in ("c2", "chain2", "walking_iso"):
            C, cat, X = nerve(name)
            back = to_category_object(X)
            assert validate_category_object(back) == []
            assert back.m.component[STAR_OBJ].table == cat.m.component[STAR_OBJ].table

    def test_to_category_object_rejects_non_segal(self):
        with pytest.raises(ValueError):
            to_category_object(_punctured_c2_nerve())


class TestZ3:
    def test_c2_is_full_triple_product(self):
        # over a group every triple of one-chains satisfies the vertex
        # conditions, so the invertibility stage is the whole cube
        _, _, X = nerve("c2")
        assert z3(X).Z.total_size() == 8

    def test_structure_maps_are_natural(self):
        for name in ("chain2", "c3"):
            _, _, X = nerve(name)
            z = z3(X)
            assert z.from_X3.validate() == []
            assert z.from_X1.validate() == []

    def test_constant_singleton(self):
        z = z3(constant_singleton_simplicial(finset_topos()))
        assert z.Z.total_size() == 1


class TestHoequiv:
    def test_carrier_matches_invertibility_oracle(self, corpus_nerves):
        # the verdicts' isomorphisms of C and the paper's pullback on its nerve
        for name, (C, cat, X, eq) in corpus_nerves.items():
            for found in (isomorphisms(cat), eq):
                image = set(found.U.component[STAR_OBJ].table.values())
                assert image == iso_set(C), name
                assert is_mono(found.U), name

    def test_group_nerve_all_invertible(self, corpus_nerves):
        _, _, X, eq = corpus_nerves["s3"]
        assert eq.carrier.total_size() == X.level[1].total_size()

    def test_poset_nerve_only_identities(self, corpus_nerves):
        C, _, X, eq = corpus_nerves["chain2"]
        image = set(eq.U.component[STAR_OBJ].table.values())
        assert image == {C.id_of(o) for o in C.objects}


def assert_isomorphisms_are_the_pullback(cat, X):
    """The isomorphisms of the category object cat against hoequiv's
    pullback of X1 -> Z(3) <- X3 on its nerve X: the same arrows in the
    same order, the same lift and restrictions, and each pullback label
    (f, z, x) carried by f."""
    eq, ref = isomorphisms(cat), hoequiv(X)
    for c in X.topos.index.objects:
        assert eq.U.component[c].idx == ref.U.component[c].idx
        assert eq.s0_lift.component[c].idx == ref.s0_lift.component[c].idx
        assert eq.carrier.at[c].elements == tuple(x[0] for x in ref.carrier.at[c])
    for w in X.topos.index.morphisms:
        assert eq.carrier.restrict[w].idx == ref.carrier.restrict[w].idx
    assert eq.carrier.validate() == []
    for f in (eq.U, eq.s0_lift):
        assert f.validate() == []


def assert_nerve_is_segal_and_counted(cat, X):
    """The nerve X of cat, whose simplicial identities nerve_truncation
    checked, is Segal, and its level sizes are those nerve_level_sizes
    counts for the verdict."""
    assert segal_check(X).holds
    counted = nerve_level_sizes(cat)
    assert counted == {n: X.level[n].total_size() for n in range(4)}


class TestEquivalenceJoin:
    def test_agrees_with_the_pullback(self, corpus_nerves, finset_sweep, bundled_workspaces):
        nerves = [(cat, X) for _, cat, X, _ in corpus_nerves.values()]
        nerves += [map_nerve(p) for p, _ in finset_sweep.values()]
        for bundle in ("finset", "c2", "sierpinski", "s3"):
            w = bundled_workspaces[bundle]
            nerves += [map_nerve(w.morphisms[m]) for m in w.maps.values()]
        assert len(nerves) == len(corpus_nerves) + 18 + len(bundled_workspaces["finset"].maps) + 4
        for cat, X in nerves:
            assert_nerve_is_segal_and_counted(cat, X)
            assert_isomorphisms_are_the_pullback(cat, X)

    # Over C3 the domain is one orbit or fixed point: two free C3-sets
    # over a point take seconds to reach the bound.
    @settings(deadline=None)
    @given(
        st.sampled_from([(c2_topos, 2), (sierpinski_topos, 2), (lambda: Topos(c3_group()), 1)]),
        st.integers(0, 10**6),
    )
    def test_agrees_with_the_pullback_on_random_maps(self, topos_parts, seed):
        topos, parts = topos_parts
        T, rng = topos(), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, parts)
        try:
            cat, X = map_nerve(p)
        except ResourceBoundError:
            reject()
        assert_nerve_is_segal_and_counted(cat, X)
        assert_isomorphisms_are_the_pullback(cat, X)

    def test_hoequiv_takes_the_pullback_on_a_nerve(self, monkeypatch, corpus_nerves):
        calls = []
        stage = segal.z3

        def counted(X):
            calls.append(X)
            return stage(X)

        monkeypatch.setattr(segal, "z3", counted)
        C, cat, X, _ = corpus_nerves["walking_iso"]
        eq = hoequiv(X)
        assert X.level[1] is cat.C1 and X.face[(2, 1)] is cat.m and X.degen[(0, 0)] is cat.e
        assert calls == [X]
        image = set(eq.U.component[STAR_OBJ].table.values())
        assert image == iso_set(C) == set(isomorphisms(cat).U.component[STAR_OBJ].table.values())
        assert len(image) > len(C.objects)

    def test_a_nerve_never_tabulates_X3_to_Z3(self, monkeypatch, capsys, finset_sweep):
        def built(X):
            raise AssertionError("Z(3) was built")

        monkeypatch.setattr(segal, "z3", built)
        for p, report in finset_sweep.values():
            assert is_univalent(p).univalent == report.univalent
        for name in ("c2_cat", "chain2_cat"):
            assert main(["check-complete", "--workspace", "finset", name]) == 0
        assert "complete: " in capsys.readouterr().out
        # the reference hoequiv takes the pullback along Z(3)
        with pytest.raises(AssertionError, match="Z\\(3\\) was built"):
            hoequiv(constant_singleton_simplicial(finset_topos()))


def square_is_pullback_by_pair_scan(X) -> bool:
    """The completeness cross-check by its definition: list every pair
    (w1, w3) over one point of Z(3) and compare them with the images of X0.
    Quadratic in the level sizes; the reference for is_complete."""
    z = z3(X)
    top = total_degeneracy(X, 3)
    s0 = X.degen[(0, 0)]
    if s0.then(z.from_X1) != top.then(z.from_X3):
        return False
    for c in X.topos.index.objects:
        f1, f3 = z.from_X1.component[c], z.from_X3.component[c]
        pairs = {
            (w1, w3)
            for w1, w3 in product(X.level[1].at[c], X.level[3].at[c])
            if f1(w1) == f3(w3)
        }
        images = [(s0.component[c](x), top.component[c](x)) for x in X.level[0].at[c]]
        if len(set(images)) != len(images) or set(images) != pairs:
            return False
    return True


class TestCompleteness:
    def test_complete_iff_no_nonidentity_isos(self, corpus_nerves):
        for name, (C, _, X, _) in corpus_nerves.items():
            assert is_complete(X) == is_gaunt(C), name

    def test_constant_singleton_complete(self):
        for T in (finset_topos(), c2_topos(), sierpinski_topos()):
            X = constant_singleton_simplicial(T)
            assert is_complete(X)
            assert square_is_pullback_by_pair_scan(X)

    def test_agrees_with_pair_scan_on_corpus(self, corpus_nerves):
        verdicts = set()
        for name, (_, _, X, _) in corpus_nerves.items():
            verdict = square_is_pullback_by_pair_scan(X)
            assert is_complete(X) == verdict, name
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_agrees_with_pair_scan_on_sweep(self, finset_sweep):
        for sig, (p, report) in finset_sweep.items():
            _, X = map_nerve(p)
            assert square_is_pullback_by_pair_scan(X) == report.univalent, sig
            assert is_complete(X) == report.univalent, sig

    @pytest.mark.parametrize("name", ["c2_cat", "chain2_cat"])
    def test_agrees_with_pair_scan_on_bundled_category_objects(
        self, bundled_workspaces, name
    ):
        X = nerve_truncation(bundled_workspaces["finset"].category_objects[name])
        assert is_complete(X) == square_is_pullback_by_pair_scan(X)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
    def test_agrees_with_pair_scan_on_random_maps(self, topos, seed):
        T, rng = topos(), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, 2)
        try:
            _, X = map_nerve(p)
        except ResourceBoundError:
            # two free C2-sets over one point have 16 777 216 composable
            # triples, past the default bound
            reject()
        # the pair scan lists X1 x X3 at each stage
        if sum(len(X.level[1].at[c]) * len(X.level[3].at[c]) for c in T.index.objects) > 10**6:
            reject()
        assert is_complete(X) == square_is_pullback_by_pair_scan(X)


class TestMappingObjects:
    def test_hom_set_sizes(self):
        C, cat, X = nerve("chain3")
        one = terminal(cat.topos)
        for a in C.objects:
            for b in C.objects:
                mp = mapping_object(X, one, [point(cat, a), point(cat, b)])
                assert mp.obj.total_size() == len(C.hom(a, b))

    def test_identity_element_is_global_point(self):
        C, cat, X = nerve("c2")
        one = terminal(cat.topos)
        x = point(cat, next(iter(C.objects)))
        ident = identity_morphism(X, one, x)
        assert ident.validate() == []

    def test_ternary_object_counts_two_chains(self):
        C, cat, X = nerve("chain3")
        one = terminal(cat.topos)
        objs = sorted(C.objects)
        mp = mapping_object(X, one, [point(cat, o) for o in objs])
        assert mp.obj.total_size() == 1


def _carried_morphism(e):
    # a mapping-object element over the point is Tup(*, Fam{(id, *): chain});
    # the chain's first component is the underlying one-chain
    ((_, value),) = e[1].entries
    return value[0]


def _element_for(mp, morphism):
    for e in mp.obj.at[STAR_OBJ]:
        if _carried_morphism(e) == morphism:
            return e
    raise AssertionError(f"no element carrying {morphism!r}")


class TestComposition:
    def test_agrees_with_composition_table(self):
        C, cat, X = nerve("s3")
        one = terminal(cat.topos)
        x = point(cat, next(iter(C.objects)))
        data = composition_data(X, one, x, x, x)
        for f in C.morphisms:
            for g in C.morphisms:
                felt = _element_for(data.map_xy, f)
                gelt = _element_for(data.map_yz, g)
                out = compose(data, STAR_OBJ, felt, gelt)
                assert _carried_morphism(out) == C.comp[(g, f)]

    def test_unit_laws(self):
        for name in ("c2", "idempotent"):
            C, cat, X = nerve(name)
            one = terminal(cat.topos)
            x = point(cat, next(iter(C.objects)))
            data = composition_data(X, one, x, x, x)
            ident = identity_morphism(X, one, x).component[STAR_OBJ].table[STAR]
            for f in data.map_xy.obj.at[STAR_OBJ]:
                assert compose(data, STAR_OBJ, ident, f) == f
                assert compose(data, STAR_OBJ, f, ident) == f

    def test_associativity(self):
        C, cat, X = nerve("s3")
        one = terminal(cat.topos)
        x = point(cat, next(iter(C.objects)))
        data = composition_data(X, one, x, x, x)
        elems = list(data.map_xy.obj.at[STAR_OBJ])
        for f in elems:
            for g in elems:
                for h in elems:
                    lhs = compose(data, STAR_OBJ, compose(data, STAR_OBJ, f, g), h)
                    rhs = compose(data, STAR_OBJ, f, compose(data, STAR_OBJ, g, h))
                    assert lhs == rhs


class TestHoequivMorphisms:
    def test_identity_one_chains_lift(self, corpus_nerves):
        for name, (C, cat, X, _) in corpus_nerves.items():
            for o in C.objects:
                f = point(cat, o).then(X.degen[(0, 0)])
                assert is_hoequiv_morphism(X, f), name

    def test_strict_chain_arrow_does_not_lift(self, corpus_nerves):
        C, cat, X, _ = corpus_nerves["chain2"]
        one = terminal(cat.topos)
        arrow = next(m for m in C.morphisms if C.src(m) != C.tgt(m))
        f = NatTrans(
            one,
            cat.C1,
            {STAR_OBJ: FinFunction(one.at[STAR_OBJ], cat.C1.at[STAR_OBJ], {STAR: arrow})},
        )
        assert not is_hoequiv_morphism(X, f)

    def test_rejects_a_map_into_another_presheaf(self, corpus_nerves):
        # both arrows of C2 are isomorphisms, so only the codomain check
        # tells a map into a foreign 2-element presheaf apart
        C, cat, X, _ = corpus_nerves["c2"]
        one = terminal(cat.topos)
        foreign = finset_presheaf(["x", "y"])
        f = NatTrans(
            one,
            foreign,
            {STAR_OBJ: FinFunction.constant(one.at[STAR_OBJ], foreign.at[STAR_OBJ], Atom("x"))},
        )
        with pytest.raises(ValueError, match="level 1"):
            is_hoequiv_morphism(X, f)

    def test_precomposition_stability(self, corpus_nerves):
        # a lifting morphism still lifts after precomposing with anything
        C, cat, X, _ = corpus_nerves["walking_iso"]
        one = terminal(cat.topos)
        two, _ = coproduct([one, one])
        for m in C.morphisms:
            f = NatTrans(
                one,
                cat.C1,
                {STAR_OBJ: FinFunction(one.at[STAR_OBJ], cat.C1.at[STAR_OBJ], {STAR: m})},
            )
            if not is_hoequiv_morphism(X, f):
                continue
            g = NatTrans(
                two,
                one,
                {STAR_OBJ: FinFunction.constant(two.at[STAR_OBJ], one.at[STAR_OBJ], STAR)},
            )
            assert is_hoequiv_morphism(X, g.then(f))

    def test_two_point_equivalence_objects(self, corpus_nerves):
        C, cat, X, _ = corpus_nerves["walking_iso"]
        one = terminal(cat.topos)
        for a in C.objects:
            for b in C.objects:
                ho, cmp_map = hoequiv_object(X, one, point(cat, a), point(cat, b))
                assert ho.total_size() == len(iso_hom_set(C, a, b))
                assert is_mono(cmp_map)


class TestFinalObjects:
    def test_chain_top_is_final(self):
        C, cat, X = nerve("chain2")
        lo, hi = sorted(C.objects)
        assert not is_final_object(X, point(cat, lo))
        assert is_final_object(X, point(cat, hi))

    def test_terminal_category(self):
        C, cat, X = nerve("terminal")
        assert is_final_object(X, point(cat, next(iter(C.objects))))


class TestSegalMaps:
    def _point_inclusion(self, target_name, obj_name):
        Ct = corpus_categories()["terminal"]
        catt = category_object_from_finite_category(Ct)
        W = nerve_truncation(catt)
        C, cat, V = nerve(target_name)
        o = Atom(obj_name)
        assert o in C.objects
        wo = next(iter(Ct.objects))
        F0 = NatTrans(
            catt.C0,
            cat.C0,
            {STAR_OBJ: FinFunction(catt.C0.at[STAR_OBJ], cat.C0.at[STAR_OBJ], {wo: o})},
        )
        F1 = NatTrans(
            catt.C1,
            cat.C1,
            {
                STAR_OBJ: FinFunction(
                    catt.C1.at[STAR_OBJ],
                    cat.C1.at[STAR_OBJ],
                    {Ct.id_of(wo): C.id_of(o)},
                )
            },
        )
        return segal_map_from_nerves(F0, F1, W, V)

    def test_identity_map_ff_and_es(self):
        for name in ("chain2", "c2", "walking_iso"):
            _, _, X = nerve(name)
            F = SegalMap.identity(X)
            assert F.validate() == []
            assert is_fully_faithful(F)
            assert is_essentially_surjective(F)

    def test_point_into_chain(self):
        F = self._point_inclusion("chain2", "0")
        assert is_fully_faithful(F)
        assert not is_essentially_surjective(F)

    def test_point_into_invertible_pair(self):
        F = self._point_inclusion("walking_iso", "a")
        assert is_fully_faithful(F)
        assert is_essentially_surjective(F)


def functors(C, D):
    """Every functor C -> D as its object and morphism tables, by trying
    each assignment of objects and then of arrows between their images."""
    objs, mors = C.objects.elements, C.morphisms.elements
    for images in product(D.objects, repeat=len(objs)):
        obj = dict(zip(objs, images))
        arrows = [D.hom(obj[C.src(f)], obj[C.tgt(f)]) for f in mors]
        for chosen in product(*arrows):
            mor = dict(zip(mors, chosen))
            if all(mor[C.id_of(x)] == D.id_of(obj[x]) for x in objs) and all(
                mor[h] == D.comp[(mor[g], mor[f])] for (g, f), h in C.comp.items()
            ):
                yield obj, mor


class TestFunctorCriteriaOracle:
    def test_against_hom_sets_and_isomorphic_objects(self, corpus_nerves):
        small = [v for v in corpus_nerves.values() if len(v[0].morphisms) <= 4]
        found, equivalences = 0, 0
        for (C, catc, W, eqc), (D, catd, V, eqd) in product(small, repeat=2):
            for obj, mor in functors(C, D):
                found += 1
                F0 = NatTrans(catc.C0, catd.C0, {STAR_OBJ: FinFunction(C.objects, D.objects, obj)})
                F1 = NatTrans(catc.C1, catd.C1, {STAR_OBJ: FinFunction(C.morphisms, D.morphisms, mor)})
                F = segal_map_from_nerves(F0, F1, W, V)
                # hom_C(x, y) -> hom_D(Fx, Fy) is a bijection for all x, y
                ff = all(
                    sorted(mor[f] for f in C.hom(x, y)) == sorted(D.hom(obj[x], obj[y]))
                    for x in C.objects
                    for y in C.objects
                )
                # every object of D is isomorphic to an image object
                es = all(any(iso_hom_set(D, a, d) for a in set(obj.values())) for d in D.objects)
                assert is_fully_faithful(F) == ff
                assert is_essentially_surjective(F) == es
                # Rezk 2001, Thm 7.7, 1-truncated: between complete nerves a
                # map is fully faithful and essentially surjective exactly
                # when it is an isomorphism at every level
                if is_iso(eqc.s0_lift) and is_iso(eqd.s0_lift):
                    levelwise = all(is_iso(F.component[n]) for n in range(4))
                    assert (ff and es) == levelwise
                    equivalences += levelwise
        assert (found, equivalences) == (92, 5)

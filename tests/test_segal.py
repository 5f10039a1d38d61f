import random
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, reject, settings, strategies as st

from segaltopos.elements import Atom, FinFunction, FinSet, STAR, Tup
from segaltopos.fincat import ResourceBoundError
from segaltopos.corpus import (
    c2_topos,
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
    mapping_object,
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
    finset_topos,
    is_iso,
    is_mono,
    terminal,
)
from segaltopos.univalence import _finset_map, nerve_of_map

STAR_OBJ = Atom("*")


def nerve(name):
    C = corpus_categories()[name]
    cat = category_object_from_finite_category(C)
    return C, cat, nerve_truncation(cat)


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

    def test_records_are_frozen(self):
        _, cat, X = nerve("c2")
        with pytest.raises(FrozenInstanceError):
            cat.m = cat.e
        with pytest.raises(FrozenInstanceError):
            X.face = {}

    def test_associativity_loop_is_bounded(self):
        # c2 has 2 x 2 x 2 composable triples at the one stage, as many as X3
        cat = category_object_from_finite_category(corpus_categories()["c2"])
        fields = (cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, cat.m)
        assert validate_category_object(CategoryObject(finset_topos(8), *fields)) == []
        with pytest.raises(ResourceBoundError):
            validate_category_object(CategoryObject(finset_topos(7), *fields))


def _associativity_by_triples(topos, C1, s, t, composable, m) -> list[str]:
    """Reference for the associativity law: one comparison per composable
    triple, looked up in a table keyed by pairs of arrows."""
    report = []
    for c in topos.index.objects:
        arrows = C1.at[c].elements
        src, tgt = s.component[c].idx, t.component[c].idx
        pairs = zip(composable.legs[0].component[c].idx, composable.legs[2].component[c].idx)
        comp = dict(zip(pairs, m.component[c].idx))
        for (f1, f2), g in comp.items():
            for f3 in range(len(arrows)):
                if src[f3] == tgt[f2] and comp[(g, f3)] != comp[(f1, comp[(f2, f3)])]:
                    report.append(
                        f"associativity fails at {c!r} on "
                        f"({arrows[f1]!r},{arrows[f2]!r},{arrows[f3]!r})"
                    )
    return report


@pytest.mark.parametrize("name", ["c3", "s3", (2,), (1, 2)])
def test_corrupted_composite_fails_associativity_only(name):
    # every change of one composite of two non-identities to another arrow
    # with the same endpoints keeps the unit laws, so only associativity
    # can fail; the problems are those of the triple-by-triple reference,
    # and at least one change breaks it
    if isinstance(name, tuple):
        # the fiberwise maps of the map of finite sets with these fibers
        cat = nerve_of_map(_finset_map(name)).cat
    else:
        cat = category_object_from_finite_category(corpus_categories()[name])
    (c,) = cat.topos.index.objects
    ids = set(cat.e.component[c].idx)
    src, tgt = cat.s.component[c], cat.t.component[c]
    pairs = cat.composable.apex.at[c]
    table = cat.m.component[c].table
    corrupted = 0
    for pair, h in table.items():
        f1, f2 = pair[0], pair[2]
        if {cat.C1.at[c].index[f1], cat.C1.at[c].index[f2]} & ids:
            continue
        for other in cat.C1.at[c]:
            if other is h or (src(other), tgt(other)) != (src(h), tgt(h)):
                continue
            bad_m = NatTrans(
                cat.composable.apex,
                cat.C1,
                {c: FinFunction(pairs, cat.C1.at[c], {**table, pair: other})},
            )
            fields = (cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, bad_m)
            want = _associativity_by_triples(cat.topos, cat.C1, cat.s, cat.t, cat.composable, bad_m)
            if not want:
                # some changes give another associative table
                assert validate_category_object(CategoryObject(*fields)) == []
                continue
            with pytest.raises(CategoryObjectError) as exc:
                CategoryObject(*fields)
            assert exc.value.problems == want
            corrupted += 1
    assert corrupted


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


@pytest.mark.parametrize("source", ["c2", "chain2", "walking_iso", "fibers (2,)"])
def test_nerve_faces_and_degeneracies_follow_their_formulas(source):
    if source == "fibers (2,)":
        nerve_of_p = nerve_of_map(_finset_map((2,)))
        cat, X = nerve_of_p.cat, nerve_of_p.trunc
    else:
        _, cat, X = nerve(source)
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
        for name, (C, cat, X, eq) in corpus_nerves.items():
            image = set(eq.U.component[STAR_OBJ].table.values())
            assert image == iso_set(C), name
            assert is_mono(eq.U), name

    def test_group_nerve_all_invertible(self, corpus_nerves):
        _, _, X, eq = corpus_nerves["s3"]
        assert eq.carrier.total_size() == X.level[1].total_size()

    def test_poset_nerve_only_identities(self, corpus_nerves):
        C, _, X, eq = corpus_nerves["chain2"]
        image = set(eq.U.component[STAR_OBJ].table.values())
        assert image == {C.id_of(o) for o in C.objects}


def square_is_pullback_by_pair_scan(X, eq) -> bool:
    """The completeness cross-check by its definition: list every pair
    (w1, w3) over one point of Z(3) and compare them with the images of X0.
    Quadratic in the level sizes; the reference for is_complete."""
    z = eq.z
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
        for name, (C, cat, X, eq) in corpus_nerves.items():
            assert is_complete(X, eq) == is_gaunt(C), name

    def test_constant_singleton_complete(self):
        for T in (finset_topos(), c2_topos(), sierpinski_topos()):
            X = constant_singleton_simplicial(T)
            eq = hoequiv(X)
            assert is_complete(X, eq)
            assert square_is_pullback_by_pair_scan(X, eq)

    def test_agrees_with_pair_scan_on_corpus(self, corpus_nerves):
        verdicts = set()
        for name, (_, _, X, eq) in corpus_nerves.items():
            verdict = square_is_pullback_by_pair_scan(X, eq)
            assert is_complete(X, eq) == verdict, name
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_agrees_with_pair_scan_on_sweep(self, finset_sweep):
        for sig, (p, report) in finset_sweep.items():
            X = nerve_of_map(p).trunc
            eq = hoequiv(X)
            assert square_is_pullback_by_pair_scan(X, eq) == report.univalent, sig
            assert is_complete(X, eq) == report.univalent, sig

    @pytest.mark.parametrize("name", ["c2_cat", "chain2_cat"])
    def test_agrees_with_pair_scan_on_bundled_category_objects(
        self, bundled_workspaces, name
    ):
        X = nerve_truncation(bundled_workspaces["finset"].category_objects[name])
        eq = hoequiv(X)
        assert is_complete(X, eq) == square_is_pullback_by_pair_scan(X, eq)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
    def test_agrees_with_pair_scan_on_random_maps(self, topos, seed):
        T, rng = topos(), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, 2)
        try:
            X = nerve_of_map(p).trunc
        except ResourceBoundError:
            # two free C2-sets over one point have 16 777 216 composable
            # triples, past the default bound
            reject()
        # the pair scan lists X1 x X3 at each stage
        if sum(len(X.level[1].at[c]) * len(X.level[3].at[c]) for c in T.index.objects) > 10**6:
            reject()
        eq = hoequiv(X)
        assert is_complete(X, eq) == square_is_pullback_by_pair_scan(X, eq)


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
        for name, (C, cat, X, eq) in corpus_nerves.items():
            for o in C.objects:
                f = point(cat, o).then(X.degen[(0, 0)])
                assert is_hoequiv_morphism(X, f, eq), name

    def test_strict_chain_arrow_does_not_lift(self, corpus_nerves):
        C, cat, X, eq = corpus_nerves["chain2"]
        one = terminal(cat.topos)
        arrow = next(m for m in C.morphisms if C.src(m) != C.tgt(m))
        f = NatTrans(
            one,
            cat.C1,
            {STAR_OBJ: FinFunction(one.at[STAR_OBJ], cat.C1.at[STAR_OBJ], {STAR: arrow})},
        )
        assert not is_hoequiv_morphism(X, f, eq)

    def test_rejects_a_map_into_another_presheaf(self, corpus_nerves):
        # both arrows of C2 are isomorphisms, so only the codomain check
        # tells a map into a foreign 2-element presheaf apart
        C, cat, X, eq = corpus_nerves["c2"]
        one = terminal(cat.topos)
        foreign = finset_presheaf(["x", "y"])
        f = NatTrans(
            one,
            foreign,
            {STAR_OBJ: FinFunction.constant(one.at[STAR_OBJ], foreign.at[STAR_OBJ], Atom("x"))},
        )
        with pytest.raises(ValueError, match="level 1"):
            is_hoequiv_morphism(X, f, eq)

    def test_precomposition_stability(self, corpus_nerves):
        # a lifting morphism still lifts after precomposing with anything
        C, cat, X, eq = corpus_nerves["walking_iso"]
        one = terminal(cat.topos)
        two, _ = coproduct([one, one])
        for m in C.morphisms:
            f = NatTrans(
                one,
                cat.C1,
                {STAR_OBJ: FinFunction(one.at[STAR_OBJ], cat.C1.at[STAR_OBJ], {STAR: m})},
            )
            if not is_hoequiv_morphism(X, f, eq):
                continue
            g = NatTrans(
                two,
                one,
                {STAR_OBJ: FinFunction.constant(two.at[STAR_OBJ], one.at[STAR_OBJ], STAR)},
            )
            assert is_hoequiv_morphism(X, g.then(f), eq)

    def test_two_point_equivalence_objects(self, corpus_nerves):
        C, cat, X, eq = corpus_nerves["walking_iso"]
        one = terminal(cat.topos)
        for a in C.objects:
            for b in C.objects:
                ho, cmp_map = hoequiv_object(X, one, point(cat, a), point(cat, b), eq)
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

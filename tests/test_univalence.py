import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from segaltopos import fincat, segal, univalence
from segaltopos.elements import Atom, Fam, FinFunction, Tup
from segaltopos.fincat import ResourceBoundError
from segaltopos.corpus import (
    c2_topos,
    finset_function,
    finset_presheaf,
    random_coproduct_presheaf,
    random_map_to,
    sierpinski_topos,
)
from segaltopos.cli import main
from segaltopos.segal import TruncatedSimplicialObject
from segaltopos.topos import (
    InternalCheckError,
    NatTrans,
    Presheaf,
    Topos,
    enumerate_nat_trans,
    finset_topos,
    is_iso,
    is_minus1_truncated,
    is_mono,
    ps_pullback,
    subobject_classifier,
    terminal,
    unique_to_terminal,
    yoneda,
)
from segaltopos.univalence import (
    PullbackSquareMorphism,
    _finset_map,
    arrows_isomorphic,
    check_alternative_construction,
    check_mono_classification,
    check_uni_iff_mono,
    check_universal_mono_univalent,
    enumerate_univalent,
    fiber_iso_counts,
    fiber_oracle_univalent,
    is_pullback_square,
    is_univalent,
    nerve_of_map,
    presheaf_oracle_univalent,
    pullback_square_homs,
)

STAR_OBJ = Atom("*")


class TestNerveOfMap:
    def test_identity_nerve_is_codiscrete(self):
        # every fiber of an identity is a singleton, so there is exactly one
        # fiberwise map over each pair of points
        p = _finset_map((1, 1, 1))
        nerve = nerve_of_map(p)
        sizes = [nerve.trunc.level[n].total_size() for n in range(4)]
        assert sizes == [3, 9, 27, 81]

    def test_map_to_point_gives_endomorphism_monoid(self):
        p = _finset_map((2,))
        nerve = nerve_of_map(p)
        sizes = [nerve.trunc.level[n].total_size() for n in range(4)]
        assert sizes == [1, 4, 16, 64]

    def test_empty_map(self):
        p = _finset_map(())
        nerve = nerve_of_map(p)
        assert [nerve.trunc.level[n].total_size() for n in range(4)] == [0, 0, 0, 0]

    def test_verdict_builds_no_level3_labels(self, monkeypatch):
        # X3(*) of the (3,)-fiber map has 27**3 = 19 683 elements; a verdict
        # path that labelled them would call Tup at least that often.  The
        # composition of fiberwise maps builds no label at all.
        p = _finset_map((3,))
        calls = {"Tup": 0, "Fam": 0, "composing": 0}
        inside = [False]
        for cls in (Tup, Fam):
            original = cls.__new__

            def counting(cls_, *args, _original=original, _name=cls.__name__):
                calls[_name] += 1
                calls["composing"] += inside[0]
                return _original(cls_, *args)

            monkeypatch.setattr(cls, "__new__", counting)
        compose = univalence._fiberwise_composition

        def composing(*args):
            inside[0] = True
            try:
                return compose(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(univalence, "_fiberwise_composition", composing)
        report = is_univalent(p)
        monkeypatch.undo()
        assert report.level_sizes[3] == 19683
        assert report.univalent is False and report.oracle_agrees is True
        assert 0 < calls["Tup"] < 19683
        assert calls["composing"] == 0

    def test_repr_is_short_and_builds_no_labels(self, monkeypatch):
        # A failing test's report reprs the objects in its frames; a repr
        # that listed X3(*) here would build 19 683 labels.
        trunc = nerve_of_map(_finset_map((3,))).trunc
        calls = {"Tup": 0}
        original = Tup.__new__

        def counting(cls_, *args):
            calls["Tup"] += 1
            return original(cls_, *args)

        monkeypatch.setattr(Tup, "__new__", counting)
        text = repr(trunc)
        monkeypatch.undo()
        assert trunc.level[3].total_size() == 19683
        assert len(text) < 5000
        assert calls["Tup"] == 0

    def test_verdict_ranks_into_the_large_cones_without_listing_them(self, monkeypatch):
        # Z(3) and the Segal spine cones are only mediated into, so their
        # tuples are ranked, never listed.  Of the Eq pullback only the X1
        # column is read, by the mono check on U; it repeats each point of
        # X1 by its count, without expanding the X3 slot.
        listed = []
        column = fincat.RowSet.column

        def recording(apex, j):
            listed.append((apex, j))
            return column(apex, j)

        monkeypatch.setattr(fincat.RowSet, "column", recording)
        cones = {"spine": [], "z3": [], "eq": []}
        check, equivalences = univalence.segal_check, univalence.hoequiv

        def checked(X):
            witness = check(X)
            cones["spine"] += witness.cones.values()
            return witness

        def found(X):
            eq = equivalences(X)
            cones["z3"].append(eq.z.cone)
            cones["eq"].append(eq.cone)
            return eq

        monkeypatch.setattr(univalence, "segal_check", checked)
        monkeypatch.setattr(univalence, "hoequiv", found)
        report = is_univalent(_finset_map((3,)))
        assert report.level_sizes[3] == 19683 and not report.univalent
        assert len(cones["spine"]) == 2 and len(cones["z3"]) == len(cones["eq"]) == 1

        def slots_listed(cone):
            apex = cone.pointwise[STAR_OBJ].apex
            return {j for a, j in listed if a is apex}

        assert [slots_listed(c) for c in cones["spine"] + cones["z3"]] == [set(), set(), set()]
        assert slots_listed(cones["eq"][0]) == {0}
        assert len(cones["z3"][0].apex.at[STAR_OBJ]) == 19683
        # the composable pairs and X3 are listed: their legs are faces
        assert any(len(a) == 19683 for a, _ in listed)

    def test_bound_is_reached_before_the_triples_are_built(self, bundled_workspaces):
        # two copies of the free C2-set over the point have 16 777 216
        # composable triples of fiberwise maps, over the default bound
        w = bundled_workspaces["c2"]
        with pytest.raises(ResourceBoundError) as exc:
            is_univalent(unique_to_terminal(w.presheaves["two_free"]))
        assert (exc.value.stage, exc.value.size) == ("associativity", 16777216)

    def test_two_free_category_object_validates_without_its_triples(self, bundled_workspaces, monkeypatch):
        # the same 16 777 216 composable triples under a bound above them:
        # associativity compares rows of m and lists no triple, so this
        # stays small (CI runs it under a 1 GB address-space limit); the
        # run stops at the nerve's levels, which would build X3
        X = bundled_workspaces["c2"].presheaves["two_free"]
        big = Presheaf(Topos(X.topos.index, 20_000_000), X.at, X.restrict)
        built = []

        def stop(cat):
            built.append(cat)
            raise LookupError("stopped before the nerve")

        monkeypatch.setattr(univalence, "nerve_truncation", stop)
        with pytest.raises(LookupError, match="stopped before the nerve"):
            nerve_of_map(unique_to_terminal(big))
        (cat,) = built
        assert isinstance(cat, segal.CategoryObject) and cat.topos.bound == 20_000_000
        assert [len(cat.C1.at[c]) for c in cat.topos.index.objects] == [256]
        assert [len(cat.composable.apex.at[c]) for c in cat.topos.index.objects] == [65536]

    def test_source_target_of_unit(self):
        p = _finset_map((0, 2))
        nerve = nerve_of_map(p)
        assert nerve.cat.e.then(nerve.cat.s) == NatTrans.identity(p.cod)
        assert nerve.cat.e.then(nerve.cat.t) == NatTrans.identity(p.cod)


def label_chase_composition(p: NatTrans, M, cone) -> NatTrans:
    """Reference for the composition of fiberwise maps, on labels: chase
    each fiber element through the first family, then the second, and look
    the resulting family up among the elements of M."""
    E, B = p.dom, p.cod
    idx = E.topos.index
    component = {}
    for c in idx.objects:
        families = M.total.at[c]
        out = []
        for pair in cone.apex.at[c]:
            (b, mid), fam1 = pair[0][0], pair[0][1]
            (_, b_out), fam2 = pair[2][0], pair[2][1]
            entries = []
            for u in idx.morphisms_into(c):
                d = idx.src(u)
                b0, b1 = B.restrict[u](b), B.restrict[u](b_out)
                for e0 in E.at[d]:
                    if p.component[d](e0) != b0:
                        continue
                    mid_u = B.restrict[u](mid)
                    e_mid = fam1.get(Tup((u, Tup((e0, mid_u)))))[1]
                    e_out = fam2.get(Tup((u, Tup((e_mid, b1)))))[1]
                    entries.append((Tup((u, Tup((e0, b1)))), Tup((e0, e_out))))
            out.append(families.index[Tup((Tup((b, b_out)), Fam(entries)))])
        component[c] = FinFunction.from_idx(cone.apex.at[c], families, tuple(out))
    return NatTrans(cone.apex, M.total, component)


def _composition_matches_reference(p: NatTrans) -> None:
    nerve = nerve_of_map(p)
    assert nerve.cat.m == label_chase_composition(p, nerve.M, nerve.cat.composable)


class TestFiberwiseComposition:
    """The composition by position against the label chase."""

    @pytest.mark.parametrize("bundle", ["finset", "c2", "sierpinski", "s3"])
    def test_bundled_maps(self, bundled_workspaces, bundle):
        w = bundled_workspaces[bundle]
        assert w.maps
        for mname in w.maps.values():
            _composition_matches_reference(w.morphisms[mname])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
    def test_random_maps(self, topos, seed):
        T, rng = topos(), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, 2)
        try:
            _composition_matches_reference(p)
        except ResourceBoundError:
            # two free C2-sets over one point have 16 777 216 composable
            # triples, past the default bound
            reject()


def _keys_are_entry_order(p: NatTrans) -> None:
    """M.keys lists the keys of every family over b in its entry order, and
    section reads back through value."""
    M = nerve_of_map(p).M
    for c in p.dom.topos.index.objects:
        for e, b in M.proj.component[c].table.items():
            entries = dict(e[1].entries)
            assert list(M.keys(c, b)) == list(entries)
            assert M.section(c, b, entries.__getitem__) is e
            assert all(M.value(e, k) is v for k, v in entries.items())


class TestSectionKeys:
    """_fiberwise_composition relies on M.keys(c, b) being in entry order."""

    def test_finset_map(self):
        _keys_are_entry_order(_finset_map((3,)))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
    def test_random_maps(self, topos, seed):
        T, rng = topos(), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, 2)
        try:
            _keys_are_entry_order(p)
        except ResourceBoundError:
            # as in TestFiberwiseComposition.test_random_maps
            reject()


class TestFiberOracle:
    @pytest.mark.parametrize(
        "sig,want",
        [
            ((), True),
            ((0,), True),
            ((1,), True),
            ((0, 1), True),
            ((1, 1), False),
            ((2,), False),
            ((0, 0), False),
            ((0, 1, 2), False),
        ],
    )
    def test_examples(self, sig, want):
        assert fiber_oracle_univalent(_finset_map(sig)) is want

    def test_rejects_other_index(self):
        T = c2_topos()
        omega, true_arrow = subobject_classifier(T)
        with pytest.raises(ValueError):
            fiber_oracle_univalent(true_arrow)


class TestPresheafOracle:
    def test_iso_counts_over_the_point(self):
        # fibers of sizes 0 and 1: each has one automorphism and they are
        # not isomorphic to each other
        b0, b1 = Atom("b0"), Atom("b1")
        counts = fiber_iso_counts(_finset_map((0, 1)))
        assert counts == {
            (STAR_OBJ, b0, b0): 1,
            (STAR_OBJ, b0, b1): 0,
            (STAR_OBJ, b1, b0): 0,
            (STAR_OBJ, b1, b1): 1,
        }
        # a two-element fiber has the two bijections of itself
        assert fiber_iso_counts(_finset_map((2,))) == {(STAR_OBJ, b0, b0): 2}

    def test_agrees_with_fiber_oracle_on_sweep(self, finset_sweep):
        for sig, (p, _) in finset_sweep.items():
            assert presheaf_oracle_univalent(p) is fiber_oracle_univalent(p), sig

    @pytest.mark.parametrize("bundle", ["finset", "c2", "sierpinski"])
    def test_agrees_with_pipeline_on_bundled_maps(self, bundled_workspaces, bundle):
        w = bundled_workspaces[bundle]
        assert w.maps
        for alias, mname in w.maps.items():
            p = w.morphisms[mname]
            want = is_univalent(p, name=alias, run_oracle=False).univalent
            assert presheaf_oracle_univalent(p) is want, alias

    @pytest.mark.parametrize("topos,seed", [(c2_topos, 11), (sierpinski_topos, 12)])
    def test_agrees_with_pipeline_on_random_maps(self, topos, seed):
        T = topos()
        rng = random.Random(seed)
        checked = 0
        while checked < 10:
            B = random_coproduct_presheaf(T, rng, 2)[0]
            if B.total_size() == 0:
                continue
            p = random_map_to(T, rng, B, 2)
            want = is_univalent(p, run_oracle=False).univalent
            assert presheaf_oracle_univalent(p) is want, checked
            checked += 1

    @pytest.mark.parametrize("topos", [c2_topos, sierpinski_topos])
    def test_classifier_point(self, topos):
        # one key per stage and pair of truth values there; the point is
        # univalent, as the pipeline also finds
        T = topos()
        omega, true_arrow = subobject_classifier(T)
        counts = fiber_iso_counts(true_arrow)
        want = {
            (c, b, b2)
            for c in T.index.objects
            for b in omega.at[c]
            for b2 in omega.at[c]
        }
        assert set(counts) == want
        assert presheaf_oracle_univalent(true_arrow)


class TestIsUnivalent:
    def test_oracle_agreement_on_sweep(self, finset_sweep):
        for sig, (p, report) in finset_sweep.items():
            assert report.oracle_agrees is True, sig

    def test_univalent_signatures(self, finset_sweep):
        univalent = {sig for sig, (_, r) in finset_sweep.items() if r.univalent}
        assert univalent == {(), (0,), (1,), (0, 1)}

    def test_report_fields(self, finset_sweep):
        p, report = finset_sweep[(0, 1)]
        assert report.univalent and report.mono
        assert report.level_sizes[0] == 2
        assert report.oracle is True

    def test_subobject_inclusion_univalent_not_fold(self, finset_sweep):
        assert finset_sweep[(1,)][1].univalent  # {*} -> {*}
        assert not finset_sweep[(2,)][1].univalent  # two points folded
        assert not finset_sweep[(1, 1)][1].univalent  # a bijection on 2

    def test_classifier_point_univalent_in_c2(self):
        omega, true_arrow = subobject_classifier(c2_topos())
        report = is_univalent(true_arrow, run_oracle=False)
        assert report.univalent and report.mono


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _swap_two_values(f: NatTrans) -> NatTrans:
    """f with the values at the first two keys of different value swapped,
    at every stage where there are such keys."""
    component = {}
    for c, g in f.component.items():
        table = dict(g.table)
        keys = sorted(table)
        other = next((k for k in keys if table[k] is not table[keys[0]]), None)
        if other is not None:
            table[keys[0]], table[other] = table[other], table[keys[0]]
        component[c] = FinFunction(g.dom, g.cod, table)
    return NatTrans(f.dom, f.cod, component)


class TestValidateOnce:
    @pytest.mark.parametrize(
        "bundle,name", [("finset", "u_sub"), ("c2", "free_over_point"), ("sierpinski", "open_over_point")]
    )
    def test_each_check_runs_once_per_verdict(self, monkeypatch, bundled_workspaces, bundle, name):
        w = bundled_workspaces[bundle]
        p = w.morphisms[w.maps[name]]
        calls = {"validate_category_object": 0, "validate": 0}
        _counting(monkeypatch, segal, "validate_category_object", calls)
        _counting(monkeypatch, TruncatedSimplicialObject, "validate", calls)
        is_univalent(p, name=name)
        assert calls == {"validate_category_object": 1, "validate": 1}

    @pytest.mark.parametrize(
        "argv,category_checks,simplicial_checks",
        [
            # finset has two category objects, each checked once by decoding
            (["validate"], 2, 0),
            (["check-segal", "c2_cat"], 2, 1),
            (["check-complete", "c2_cat"], 2, 1),
        ],
        ids=["validate", "check-segal", "check-complete"],
    )
    def test_each_check_runs_once_per_cli_command(
        self, monkeypatch, capsys, argv, category_checks, simplicial_checks
    ):
        calls = {"validate_category_object": 0, "validate": 0}
        _counting(monkeypatch, segal, "validate_category_object", calls)
        _counting(monkeypatch, TruncatedSimplicialObject, "validate", calls)
        command, *names = argv
        assert main([command, "--workspace", "finset", *names]) == 0
        capsys.readouterr()
        assert calls == {
            "validate_category_object": category_checks,
            "validate": simplicial_checks,
        }

    def test_nerve_of_map_rejects_corrupted_composition(self, monkeypatch):
        build = univalence._fiberwise_composition
        monkeypatch.setattr(
            univalence,
            "_fiberwise_composition",
            lambda *args: _swap_two_values(build(*args)),
        )
        with pytest.raises(InternalCheckError, match="do not form a category object"):
            nerve_of_map(_finset_map((2,)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda w: _finset_map((2,)),
            lambda w: w["c2"].morphisms[w["c2"].maps["free_over_point"]],
        ],
        ids=["finset-(2,)", "c2-free_over_point"],
    )
    def test_unit_laws_reject_a_wrong_unit(self, monkeypatch, bundled_workspaces, build):
        # e over the diagonal sends each b to the family of a non-identity
        # automorphism h of E over B: the fiber swap on (2,), x -> g.x on
        # the free C2-set.  It is natural, so only the unit laws tell it
        # from the identity.
        p = build(bundled_workspaces)
        E, B = p.dom, p.cod
        idx = E.topos.index
        (h,) = [
            f
            for f in enumerate_nat_trans(E, E, over=(p, p))
            if is_iso(f) and f != NatTrans.identity(E)
        ]

        def value(key):  # key (u: d -> c, (x, b)) with x in E(d)
            x = key[1][0]
            return Tup((x, h.component[idx.src(key[0])](x)))

        def wrong_unit(p, M):
            component = {}
            for c in idx.objects:
                table = {b: M.section(c, Tup((b, b)), value) for b in B.at[c]}
                component[c] = FinFunction(B.at[c], M.total.at[c], table)
            return NatTrans(B, M.total, component)

        monkeypatch.setattr(univalence, "_identity_section", wrong_unit)
        with pytest.raises(InternalCheckError, match="unit law fails"):
            nerve_of_map(p)

    def test_nerve_of_map_validates_e_and_m_once_per_object(self, monkeypatch, bundled_workspaces):
        # e and m are checked by the category object they are part of, and
        # again as a degeneracy and a face of its nerve, and nowhere else
        w = bundled_workspaces["c2"]
        where = [None]
        checked = []

        def within(owner, name, label):
            original = getattr(owner, name)

            def wrapped(*args):
                where.append(label)
                try:
                    return original(*args)
                finally:
                    where.pop()

            monkeypatch.setattr(owner, name, wrapped)

        within(segal, "validate_category_object", "category object")
        within(TruncatedSimplicialObject, "validate", "simplicial object")
        validate = NatTrans.validate

        def recorded(f):
            checked.append((where[-1], f))
            return validate(f)

        monkeypatch.setattr(NatTrans, "validate", recorded)
        nerve = nerve_of_map(w.morphisms[w.maps["free_over_point"]])
        for f in (nerve.cat.e, nerve.cat.m):
            assert [label for label, g in checked if g is f] == ["category object", "simplicial object"]

    def test_nerve_of_map_rejects_non_natural_composition(self, monkeypatch, bundled_workspaces):
        w = bundled_workspaces["c2"]
        build = univalence._fiberwise_composition

        def corrupted(*args):
            m = _swap_two_values(build(*args))
            assert m.validate()
            return m

        monkeypatch.setattr(univalence, "_fiberwise_composition", corrupted)
        with pytest.raises(InternalCheckError, match="category object: m: naturality fails"):
            nerve_of_map(w.morphisms[w.maps["free_over_point"]])

    def test_segal_check_rejects_corrupted_face(self):
        X = nerve_of_map(_finset_map((2,))).trunc
        face = dict(X.face)
        face[(2, 1)] = _swap_two_values(face[(2, 1)])
        with pytest.raises(ValueError, match="invalid simplicial object"):
            TruncatedSimplicialObject(X.topos, X.level, face, X.degen)


class TestIdentityUnivalence:
    def test_identity_univalent_iff_subterminal(self):
        for size in range(4):
            B = finset_presheaf([f"b{i}" for i in range(size)])
            ident = NatTrans.identity(B)
            assert is_univalent(ident, run_oracle=False).univalent == (
                is_minus1_truncated(B)
            )

    def test_sierpinski_representable(self):
        T = sierpinski_topos()
        y0 = yoneda(T, Atom("0"))
        assert is_minus1_truncated(y0)
        assert is_univalent(NatTrans.identity(y0), run_oracle=False).univalent


class TestArrowIsomorphism:
    def test_reordered_signature(self):
        assert arrows_isomorphic(_finset_map((1, 0)), _finset_map((0, 1)))

    def test_different_fiber_sizes(self):
        assert not arrows_isomorphic(_finset_map((1,)), _finset_map((2,)))

    def test_enumeration(self):
        found = enumerate_univalent(finset_topos(), 2, 2)
        assert [sig for sig, _ in found] == [(), (0,), (0, 1), (1,)]
        # one map per arrow-isomorphism class
        maps = [p for _, p in found]
        assert not any(arrows_isomorphic(p, q) for i, p in enumerate(maps) for q in maps[:i])

    def test_enumeration_rejects_other_index(self):
        with pytest.raises(ValueError):
            enumerate_univalent(c2_topos(), 1, 1)


class TestPullbackSquares:
    def test_hom_counts(self):
        sub = _finset_map((0, 1))
        empty = _finset_map(())
        id2 = _finset_map((1, 1))
        assert len(pullback_square_homs(sub, sub)) == 1
        assert len(pullback_square_homs(empty, sub)) == 1
        assert len(pullback_square_homs(id2, id2)) == 4

    def test_commuting_non_pullback_rejected(self):
        fold = _finset_map((2,))
        E, B = fold.dom, fold.cod
        sq = PullbackSquareMorphism(
            NatTrans.identity(E),
            fold,
            NatTrans.identity(E),
            fold,
        )
        # identity over fold commutes but the comparison collapses fibers
        assert sq.p2.then(sq.f_B) == sq.f_E.then(sq.p1)
        assert not is_pullback_square(sq)

    def _pulled_square(self, p1, f_B):
        cone = ps_pullback(p1, f_B)
        p2 = cone.legs[2]
        f_E = cone.legs[0]
        return PullbackSquareMorphism(p2, p1, f_E, f_B)

    def test_uni_iff_mono_examples(self):
        sub = _finset_map((0, 1))
        B2 = finset_presheaf(["c0", "c1"])
        mono_base = finset_function(B2, sub.cod, {"c0": "b0", "c1": "b1"})
        fold_base = finset_function(B2, sub.cod, {"c0": "b1", "c1": "b1"})
        for f_B in (mono_base, fold_base):
            verdict = check_uni_iff_mono(self._pulled_square(sub, f_B))
            assert verdict.agrees
            assert verdict.right == is_mono(f_B)

    def test_uni_iff_mono_requires_univalent_target(self):
        fold = _finset_map((2,))
        with pytest.raises(ValueError):
            check_uni_iff_mono(self._pulled_square(fold, NatTrans.identity(fold.cod)))


class TestUniversalMono:
    def test_finset(self):
        assert check_universal_mono_univalent(finset_topos()).holds

    def test_c2(self):
        assert check_universal_mono_univalent(c2_topos()).holds

    def test_sierpinski(self):
        assert check_universal_mono_univalent(sierpinski_topos()).holds


class TestMonoClassification:
    def test_finset_monos(self):
        for sig in [(), (0,), (1,), (0, 1), (0, 0, 1)]:
            verdict = check_mono_classification(_finset_map(sig))
            assert verdict.agrees
            assert verdict.left == fiber_oracle_univalent(_finset_map(sig))

    def test_c2_classifier_point(self):
        _, true_arrow = subobject_classifier(c2_topos())
        verdict = check_mono_classification(true_arrow)
        assert verdict.agrees and verdict.left


class TestAlternativeConstruction:
    @pytest.mark.parametrize("sig", [(2,), (0, 1), (1, 1)])
    def test_agrees_with_slice_exponential(self, sig):
        assert check_alternative_construction(_finset_map(sig))

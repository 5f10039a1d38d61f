import argparse
import itertools
import json
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from segaltopos import cli, fincat, segal, univalence
from segaltopos.elements import Atom, Fam, FinFunction, FinSet, Tup
from segaltopos.fincat import ResourceBoundError, group_category
from segaltopos.corpus import (
    c2_topos,
    c3_group,
    finset_function,
    finset_presheaf,
    random_coproduct_presheaf,
    random_map_to,
    s3_topos,
    sierpinski_topos,
)
from segaltopos.cli import main
from segaltopos.segal import (
    CategoryObject,
    TruncatedSimplicialObject,
    nerve_level_sizes,
    nerve_truncation,
    validate_category_object,
)
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
    ps_product,
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
    composable_pair_count,
    enumerate_univalent,
    fiber_iso_counts,
    fiber_signature_count,
    fiber_signatures,
    fiber_oracle_univalent,
    is_pullback_square,
    is_univalent,
    nerve_of_map,
    presheaf_oracle_univalent,
    pullback_square_homs,
)
from segaltopos.workspace import Workspace

STAR_OBJ = Atom("*")


def level_sizes(p: NatTrans) -> list:
    """The sizes of levels 0..3 of the nerve of p's fiberwise-map category,
    built by nerve_truncation, after checking that the count the verdict
    reports agrees with them."""
    cat = nerve_of_map(p).cat
    X = nerve_truncation(cat)
    sizes = [X.level[n].total_size() for n in range(4)]
    assert list(nerve_level_sizes(cat).values()) == sizes
    return sizes


class TestNerveOfMap:
    def test_identity_nerve_is_codiscrete(self):
        # every fiber of an identity is a singleton, so there is exactly one
        # fiberwise map over each pair of points
        assert level_sizes(_finset_map((1, 1, 1))) == [3, 9, 27, 81]

    def test_map_to_point_gives_endomorphism_monoid(self):
        assert level_sizes(_finset_map((2,))) == [1, 4, 16, 64]

    def test_empty_map(self):
        assert level_sizes(_finset_map(())) == [0, 0, 0, 0]

    def test_level_sizes_follow_the_closed_form(self, finset_sweep):
        # for fiber sizes k_i there are M(i, j) = k_j ** k_i maps from fiber
        # i to fiber j, so C1 has the sum of all M(i, j) arrows, and the
        # composable pairs through fiber j number (sum_i M(i, j)) (sum_l M(j, l))
        def closed_form(sig):
            M = [[k_j**k_i for k_j in sig] for k_i in sig]
            into = [sum(row[j] for row in M) for j in range(len(sig))]
            return sum(map(sum, M)), sum(into[j] * sum(M[j]) for j in range(len(sig)))

        assert len(finset_sweep) == 18
        for sig, (_, report) in finset_sweep.items():
            assert (report.level_sizes[1], report.level_sizes[2]) == closed_form(sig), sig
        # the sweep's own count, which it checks against the bound before
        # it builds any map, is the size of the limit it builds
        assert len(fiber_signatures(4, 4)) == 38
        for sig in fiber_signatures(4, 4):
            built = nerve_of_map(_finset_map(sig)).cat.composable.apex.total_size()
            assert composable_pair_count(sig) == built == closed_form(sig)[1], sig

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
        assert report.level_sizes[3] == 19683
        assert report.univalent is False and report.oracle_agrees is True
        assert calls == {"Tup": 0, "Fam": 0, "composing": 0}
        # the spies see the labels of C1 once something reads them
        assert len(nerve_of_map(p).M.total.at[STAR_OBJ].elements) == 27
        monkeypatch.undo()
        assert calls["Fam"] == 27 and calls["Tup"] >= 27
        assert calls["composing"] == 0

    def test_repr_is_short_and_builds_no_labels(self, monkeypatch):
        # A failing test's report reprs the objects in its frames; a repr
        # that listed X3(*) here would build 19 683 labels.
        trunc = nerve_truncation(nerve_of_map(_finset_map((3,))).cat)
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
        # The verdict builds no cone over X3: it reads the composable pairs
        # and counts the triples.  The Segal check of the nerve mediates
        # into its spine cones, so their tuples are ranked, never listed.
        listed = []
        column = fincat.RowSet.column

        def recording(apex, j):
            listed.append((apex, j))
            return column(apex, j)

        monkeypatch.setattr(fincat.RowSet, "column", recording)
        p = _finset_map((3,))
        report = is_univalent(p)
        assert report.level_sizes[3] == 19683 and not report.univalent
        # the six automorphisms of the fiber
        assert report.carrier_sizes == {repr(STAR_OBJ): 6}
        assert listed and not any(len(a) == 19683 for a, _ in listed)
        X = nerve_truncation(nerve_of_map(p).cat)
        cones = segal.segal_check(X).cones.values()

        def slots_listed(cone):
            apex = cone.pointwise[STAR_OBJ].apex
            return {j for a, j in listed if a is apex}

        assert [slots_listed(c) for c in cones] == [set(), set()]
        # the nerve's X3 is listed: its legs are faces
        assert any(len(a) == 19683 for a, _ in listed)

    def test_bound_is_reached_before_the_triples_are_built(self, bundled_workspaces):
        # two copies of the free C2-set over the point have 16 777 216
        # composable triples of fiberwise maps, over the default bound; but
        # the bound acts where limits are built, and the triples are
        # counted, never built, so the map decides under it
        w = bundled_workspaces["c2"]
        assert w.topos.bound == 1_000_000
        report = is_univalent(unique_to_terminal(w.presheaves["two_free"]))
        assert not report.univalent
        assert report.carrier_sizes == {repr(STAR_OBJ): 24}
        assert report.level_sizes == {0: 1, 1: 256, 2: 65536, 3: 16777216}

    def test_sixteen_million_triples_decide_under_the_default_bound(self):
        # the natural action of S4 and the map of finite sets with one fiber
        # of 4 have 65 536 composable pairs of fiberwise maps and 16 777 216
        # triples, which only the verdict counts
        names = ["".join(map(str, perm)) for perm in itertools.permutations(range(4))]
        S4 = group_category(names, "0123", lambda a, b: "".join(a[int(i)] for i in b))
        T = Topos(S4)
        points = FinSet(Atom(f"x{i}") for i in range(4))
        restrict = {
            g: FinFunction(points, points, {Atom(f"x{i}"): Atom(f"x{g.name.index(str(i))}") for i in range(4)})
            for g in T.index.morphisms
        }
        assert T.bound == finset_topos().bound == 1_000_000
        for p in (unique_to_terminal(Presheaf(T, {STAR_OBJ: points}, restrict)), _finset_map((4,))):
            report = is_univalent(p)
            assert not report.univalent
            assert report.carrier_sizes == {repr(STAR_OBJ): 24}
            assert report.level_sizes == {0: 1, 1: 256, 2: 65536, 3: 16777216}

    def test_two_free_category_object_validates_without_its_triples(self, bundled_workspaces):
        # the same 16 777 216 composable triples under a bound above them:
        # the laws are checked through the fiberwise maps' rep, one pass over
        # the composable pairs, and the verdict counts the triples, listing
        # none, so this stays small (CI runs it under a 1 GB address-space
        # limit)
        X = bundled_workspaces["c2"].presheaves["two_free"]
        big = Presheaf(Topos(X.topos.index, 20_000_000), X.at, X.restrict)
        report = is_univalent(unique_to_terminal(big))
        assert not report.univalent
        assert report.carrier_sizes == {repr(STAR_OBJ): 24}
        assert report.level_sizes == {0: 1, 1: 256, 2: 65536, 3: 16777216}

    def test_check_complete_reads_the_two_free_category_object(self, bundled_workspaces):
        # the category object of the test above: check-complete takes its
        # isomorphisms and builds no nerve, so its 16 777 216 triples are
        # never listed (CI runs this under a 1 GB address-space limit)
        X = bundled_workspaces["c2"].presheaves["two_free"]
        big = Presheaf(Topos(X.topos.index, 20_000_000), X.at, X.restrict)
        cat = nerve_of_map(unique_to_terminal(big)).cat
        w = Workspace(big.topos)
        w.add_category_object("two_free_maps", cat, {"C0": "B", "C1": "M", "s": "s", "t": "t", "e": "e"})
        C = w.category_objects["two_free_maps"]
        report, ok = cli.cmd_check_complete(C, argparse.Namespace(name="two_free_maps"))
        assert ok
        assert (report["equivalences"], report["objects"], report["complete"]) == (24, 1, False)

    def test_a_verdict_builds_no_nerve(self, monkeypatch, capsys, finset_sweep, bundled_workspaces):
        # is_univalent and the nerve and check-complete commands read the
        # category object alone; nerve_truncation and segal_check are the
        # tests' reference
        for name in ("nerve_truncation", "segal_check"):
            original = getattr(segal, name)

            def refuse(*args, _name=name):
                raise AssertionError(f"{_name} was called")

            for module in (segal, univalence, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
        for sig, (p, report) in finset_sweep.items():
            again = is_univalent(p, name=str(sig))
            assert (again.univalent, again.level_sizes) == (report.univalent, report.level_sizes), sig
        decided = 0
        for bundle in ("finset", "c2", "sierpinski", "s3"):
            w = bundled_workspaces[bundle]
            for alias, mname in w.maps.items():
                report = is_univalent(w.morphisms[mname], name=alias)
                assert main(["nerve", "--workspace", bundle, alias, "--json"]) == 0
                out = json.loads(capsys.readouterr().out)
                assert out["level_sizes"] == {str(n): v for n, v in report.level_sizes.items()}
                decided += 1
        assert decided == len(bundled_workspaces["finset"].maps) + 4
        for name in ("c2_cat", "chain2_cat"):
            assert main(["check-complete", "--workspace", "finset", name]) == 0
        assert capsys.readouterr().out.count("complete: ") == 2
        s3 = bundled_workspaces["s3"]
        (mname,) = s3.maps.values()
        report = is_univalent(s3.morphisms[mname])
        assert report.level_sizes == {0: 1, 1: 27, 2: 729, 3: 19683}
        assert report.carrier_sizes == {repr(STAR_OBJ): 6} and not report.univalent

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
    """M.fans lists the keys of every family over b in its entry order, the
    family's values are the labels of the stored positions, and locate
    finds the section by those positions."""
    M = nerve_of_map(p).M
    A, X = M.x.cod, M.x.dom
    for c in p.dom.topos.index.objects:
        owners = M.proj.component[c].idx
        for k, (e, b, values) in enumerate(zip(M.total.at[c], owners, M.sections[c])):
            fan = M.fans[(c, b)]
            assert [key for key, _ in e[1].entries] == [
                Tup((u, A.at[d].elements[a])) for u, d, a in fan
            ]
            assert [v for _, v in e[1].entries] == [
                X.at[d].elements[y] for (_, d, _), y in zip(fan, values)
            ]
            assert M.locate(c, b, values) == k


class TestSectionKeys:
    """_fiberwise_composition relies on M.fans listing each family's keys
    in its entry order."""

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


def _rep_and_row_checks_pass(p: NatTrans) -> None:
    """The fiberwise-map category object of p passes validation both through
    its rep and, rebuilt without it, by the unit loop and the row check."""
    cat = nerve_of_map(p).cat
    fields = (cat.topos, cat.C0, cat.C1, cat.s, cat.t, cat.e, cat.composable, cat.m)
    assert cat.rep is not None
    assert validate_category_object(cat) == []
    assert validate_category_object(CategoryObject(*fields)) == []


class TestRepCheckAgainstRowCheck:
    """validate_category_object through rep against the row check."""

    def test_sweep_maps(self, finset_sweep):
        assert len(finset_sweep) == 18
        for p, _ in finset_sweep.values():
            _rep_and_row_checks_pass(p)

    @pytest.mark.parametrize("bundle", ["finset", "c2", "sierpinski", "s3"])
    def test_bundled_maps(self, bundled_workspaces, bundle):
        w = bundled_workspaces[bundle]
        assert w.maps
        for mname in w.maps.values():
            _rep_and_row_checks_pass(w.morphisms[mname])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["c2", "c3", "s3", "sierpinski"]), st.integers(0, 10**6))
    def test_random_maps(self, index, seed):
        toposes = {
            "c2": c2_topos,
            "c3": lambda bound: Topos(c3_group(), bound),
            "s3": s3_topos,
            "sierpinski": sierpinski_topos,
        }
        # a bound keeps the row check, which lists the triples, and the
        # rejected draws short (an S3 map past 10**6 takes seconds)
        T, rng = toposes[index](20_000), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        p = random_map_to(T, rng, B, 2)
        try:
            _rep_and_row_checks_pass(p)
        except ResourceBoundError:
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
            want = is_univalent(p, name=alias).univalent
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
            want = is_univalent(p).univalent
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
        report = is_univalent(true_arrow)
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
        assert calls == {"validate_category_object": 1, "validate": 0}

    @pytest.mark.parametrize(
        "argv,category_checks,simplicial_checks",
        [
            # finset has two category objects, each checked once by decoding
            (["validate"], 2, 0),
            (["check-segal", "c2_cat"], 2, 1),
            (["check-complete", "c2_cat"], 2, 0),
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

        def corrupted(*args):
            m, rep = build(*args)
            return _swap_two_values(m), rep

        monkeypatch.setattr(univalence, "_fiberwise_composition", corrupted)
        with pytest.raises(InternalCheckError, match="do not form a category object"):
            nerve_of_map(_finset_map((2,)))

    @pytest.mark.parametrize(
        "fibers,problem",
        # reading e0 off each value (e0, e1) in place of e1: over one point
        # every family gets the identity rho, and over two points a value
        # over the source is looked up among the keys of the target
        [((2,), "families 0 and 1 at .* share rho"), ((1, 1), "a value of family 1 at .* has no key")],
        ids=["shared-rho", "no-key"],
    )
    def test_fiberwise_composition_reports_a_bad_rho(self, monkeypatch, fibers, problem):
        p = _finset_map(fibers)
        build = univalence._fiberwise_composition
        first_of_pair = ps_product([p.dom, p.dom]).legs[0]
        monkeypatch.setattr(
            univalence,
            "_fiberwise_composition",
            lambda M, first, second, bb, cone: build(M, first, first_of_pair, bb, cone),
        )
        with pytest.raises(InternalCheckError, match="fiberwise maps do not form a category object: " + problem):
            nerve_of_map(p)

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
        E = p.dom
        (h,) = [
            f
            for f in enumerate_nat_trans(E, E, over=(p, p))
            if is_iso(f) and f != NatTrans.identity(E)
        ]

        identity_section = univalence._identity_section

        def wrong_unit(M, first, graph, diagonal):
            # each key (u, (x, b)) goes to (x, h(x)), on the graph of h,
            # in place of (x, x), on the graph of the identity
            graph_of_h = ps_product([E, E]).mediate(E, [NatTrans.identity(E), h])
            return identity_section(M, first, graph_of_h, diagonal)

        monkeypatch.setattr(univalence, "_identity_section", wrong_unit)
        with pytest.raises(InternalCheckError, match="unit law fails"):
            nerve_of_map(p)

    def test_nerve_of_map_validates_e_and_m_once_per_object(self, monkeypatch, bundled_workspaces):
        # each map is checked once by each object that holds it: s, t, e
        # and m by the category object and again as faces and degeneracies
        # of its nerve, every other map once, by the simplicial object
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
        cat = nerve_of_map(w.morphisms[w.maps["free_over_point"]]).cat
        X = nerve_truncation(cat)
        owned = (cat.s, cat.t, cat.e, cat.m)
        for f in owned:
            assert [label for label, g in checked if g is f] == ["category object", "simplicial object"]
        maps = list(X.face.values()) + list(X.degen.values())
        assert len(maps) == 15
        for f in maps:
            if not any(f is g for g in owned):
                assert [label for label, g in checked if g is f] == ["simplicial object"]
        assert len(checked) == 15 + len(owned)

    def test_nerve_of_map_rejects_non_natural_composition(self, monkeypatch, bundled_workspaces):
        w = bundled_workspaces["c2"]
        build = univalence._fiberwise_composition

        def corrupted(*args):
            m, rep = build(*args)
            m = _swap_two_values(m)
            assert m.validate()
            return m, rep

        monkeypatch.setattr(univalence, "_fiberwise_composition", corrupted)
        with pytest.raises(InternalCheckError, match="category object: m: naturality fails"):
            nerve_of_map(w.morphisms[w.maps["free_over_point"]])

    def test_segal_check_rejects_corrupted_face(self):
        X = nerve_truncation(nerve_of_map(_finset_map((2,))).cat)
        face = dict(X.face)
        face[(2, 1)] = _swap_two_values(face[(2, 1)])
        with pytest.raises(ValueError, match="invalid simplicial object"):
            TruncatedSimplicialObject(X.topos, X.level, face, X.degen)


class TestIdentityUnivalence:
    def test_identity_univalent_iff_subterminal(self):
        for size in range(4):
            B = finset_presheaf([f"b{i}" for i in range(size)])
            ident = NatTrans.identity(B)
            assert is_univalent(ident).univalent == (
                is_minus1_truncated(B)
            )

    def test_sierpinski_representable(self):
        T = sierpinski_topos()
        y0 = yoneda(T, Atom("0"))
        assert is_minus1_truncated(y0)
        assert is_univalent(NatTrans.identity(y0)).univalent


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


def _partitions(n: int, k: int) -> int:
    """The number of partitions of n into parts of at most k, which is the
    number into at most k parts."""
    if n == 0:
        return 1
    if k == 0:
        return 0
    return _partitions(n, k - 1) + (_partitions(n - k, k) if n >= k else 0)


class TestFiberSignatures:
    # (0, 2000): more fibers than the recursion limit allows frames
    @pytest.mark.parametrize(
        "max_e,max_b", [(0, 0), (3, 0), (0, 3), (2, 2), (3, 3), (4, 2), (5, 5), (0, 2000)]
    )
    def test_one_signature_per_partition(self, max_e, max_b):
        # a signature of k sizes summing to n, without its zeros, is a
        # partition of n into at most k parts
        sigs = fiber_signatures(max_e, max_b)
        expected = sum(_partitions(n, k) for k in range(max_b + 1) for n in range(max_e + 1))
        assert len(sigs) == expected
        assert sigs == sorted(set(sigs))
        assert all(list(sig) == sorted(sig) and sum(sig) <= max_e and len(sig) <= max_b for sig in sigs)

    def test_the_count_is_the_number_listed(self):
        for max_e in range(7):
            for max_b in range(7):
                assert fiber_signature_count(max_e, max_b) == len(fiber_signatures(max_e, max_b))


def _deciding(monkeypatch, fails=()):
    """Record the signatures is_univalent decides, in order, and make it
    raise ValueError(signature) on those in fails."""
    decided = []
    decide = univalence.is_univalent

    def recorded(p, name="p"):
        decided.append(name)
        if name in fails:
            raise ValueError(name)
        return decide(p, name)

    monkeypatch.setattr(univalence, "is_univalent", recorded)
    return decided


def _building(monkeypatch):
    """Record the signatures of the maps the sweep builds, in order."""
    built = []
    build = univalence._finset_map

    def recorded(sig, T=None):
        built.append(sig)
        return build(sig, T)

    monkeypatch.setattr(univalence, "_finset_map", recorded)
    return built


def _oracle_decides(max_e, max_b):
    """The signatures the sweep decides, derived from the fiber oracle: by
    length, in signature order within a length, those whose one-fiber
    deletions the oracle calls univalent."""
    univalent = {sig for sig in fiber_signatures(max_e, max_b) if fiber_oracle_univalent(_finset_map(sig))}
    return [
        sig
        for sig in sorted(fiber_signatures(max_e, max_b), key=len)
        if all(sig[:i] + sig[i + 1:] in univalent for i in range(len(sig)))
    ]


def _deletion_square(sig, i):
    """The pullback square from the map of sig with fiber i deleted to the
    map of sig, along the inclusion of bases that skips b_i."""
    sub = sig[:i] + sig[i + 1:]
    p2, p1 = _finset_map(sub), _finset_map(sig)
    shift = [k if k < i else k + 1 for k in range(len(sub))]
    f_B = finset_function(p2.cod, p1.cod, {f"b{k}": f"b{shift[k]}" for k in range(len(sub))})
    f_E = finset_function(
        p2.dom, p1.dom, {f"e{k}_{j}": f"e{shift[k]}_{j}" for k, size in enumerate(sub) for j in range(size)}
    )
    return PullbackSquareMorphism(p2, p1, f_E, f_B)


class TestFanOut:
    """The sweep decides its maps one after the other, by length and in
    signature order within a length, in one process, and only those whose
    one-fiber deletions are all univalent."""

    def test_results_come_back_in_input_order(self, monkeypatch):
        decided = _deciding(monkeypatch)
        found = enumerate_univalent(finset_topos(), 3, 3)
        assert decided == [str(sig) for sig in _oracle_decides(3, 3)]
        assert decided == ["()", "(0,)", "(1,)", "(2,)", "(3,)", "(0, 0)", "(0, 1)", "(1, 1)"]
        assert [sig for sig, _ in found] == [(), (0,), (0, 1), (1,)]

    def test_smallest_failing_index_is_raised(self, monkeypatch):
        # the first failing signature the sweep decides ends it: (0, 2) is
        # never decided, and (3,) comes before (1, 1) by length
        fails = {"(0, 2)", "(1, 1)", "(3,)"}
        decided = _deciding(monkeypatch, fails=fails)
        with pytest.raises(ValueError) as exc:
            enumerate_univalent(finset_topos(), 3, 3)
        order = [str(sig) for sig in _oracle_decides(3, 3)]
        first = next(sig for sig in order if sig in fails)
        assert exc.value.args == (first,) == ("(3,)",)
        assert decided == order[: order.index(first) + 1]

    @pytest.mark.parametrize("max_e,max_b", [(2, 2), (3, 3), (4, 4), (2, 6)])
    def test_the_sweep_equals_deciding_every_signature(self, max_e, max_b):
        T = finset_topos()
        reference = []
        for sig in fiber_signatures(max_e, max_b):
            p = _finset_map(sig, T)
            if univalence.is_univalent(p, name=str(sig)).univalent:
                reference.append((sig, p))
        found = enumerate_univalent(T, max_e, max_b)
        assert [sig for sig, _ in found] == [sig for sig, _ in reference]
        # NatTrans equality compares the sets and the tables of the maps
        assert [p for _, p in found] == [p for _, p in reference]

    @pytest.mark.parametrize("max_e,max_b", [(3, 3), (4, 4), (2, 6)])
    def test_each_skipped_map_is_a_pullback_of_a_smaller_one_along_a_mono(self, monkeypatch, max_e, max_b):
        # the certificate of a skipped verdict: a one-fiber deletion that is
        # not univalent, pulled back from it along a mono of bases
        built = _building(monkeypatch)
        found = {sig for sig, _ in enumerate_univalent(finset_topos(), max_e, max_b)}
        skipped = [sig for sig in fiber_signatures(max_e, max_b) if sig not in built]
        assert len(skipped) == len(fiber_signatures(max_e, max_b)) - len(_oracle_decides(max_e, max_b)) > 0
        for sig in skipped:
            i = next(i for i in range(len(sig)) if sig[:i] + sig[i + 1:] not in found)
            sq = _deletion_square(sig, i)
            assert is_pullback_square(sq) and is_mono(sq.f_B), sig
            assert not univalence.is_univalent(sq.p2).univalent, sig
            assert not univalence.is_univalent(sq.p1).univalent, sig

    @pytest.mark.parametrize("max_e,max_b", [(2, 2), (3, 3)])
    def test_enumeration_is_the_same_on_one_cpu(self, max_e, max_b):
        T = finset_topos()
        one, again = (enumerate_univalent(T, max_e, max_b) for _ in range(2))
        assert [sig for sig, _ in again] == [sig for sig, _ in one]
        # NatTrans equality compares the sets and the tables of the maps
        assert [p for _, p in again] == [p for _, p in one]
        by_oracle = [
            sig for sig in fiber_signatures(max_e, max_b) if fiber_oracle_univalent(_finset_map(sig, T))
        ]
        assert [sig for sig, _ in one] == by_oracle

    def test_enumeration_raises_the_error_of_the_smallest_signature(self, monkeypatch):
        # at bound 300, (0, 0, 3), (0, 3) and (3,) each have too many
        # composable pairs, and the first in signature order has 795; at
        # bound 20 the first is (0, 0, 0) with 27.  No map is built.
        built = _building(monkeypatch)
        for bound, size in [(300, 795), (20, 27)]:
            with pytest.raises(ResourceBoundError) as exc:
                enumerate_univalent(finset_topos(bound), 3, 3)
            assert (exc.value.size, exc.value.stage) == (size, "composable_pairs")
        assert built == []

    @pytest.mark.parametrize("max_e,max_b", [(3, 3), (4, 4), (5, 2), (2, 6)])
    def test_a_sweep_past_its_pre_check_raises_no_bound_error(self, monkeypatch, max_e, max_b):
        # each bound stops the sweep in fiber_signatures or composable_pairs
        # before it builds a map, or lets it run to the end: no limit the
        # sweep builds is larger than its largest count of composable pairs
        built = _building(monkeypatch)
        largest = max(composable_pair_count(sig) for sig in fiber_signatures(max_e, max_b))
        bounds = [0, 1, 2, 5, 10, 20, 50, 100, 300, 1000, 5000, 20000, 70000]
        if largest <= bounds[-1]:
            bounds += [largest - 1, largest]
        for bound in bounds:
            built.clear()
            passes = max(largest, fiber_signature_count(max_e, max_b)) <= bound
            try:
                enumerate_univalent(finset_topos(bound), max_e, max_b)
            except ResourceBoundError as exc:
                assert exc.stage in ("fiber_signatures", "composable_pairs"), bound
                assert built == [] and not passes, bound
            else:
                assert passes and built == _oracle_decides(max_e, max_b), bound


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

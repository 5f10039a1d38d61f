import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from segaltopos import topos as topos_module, univalence
from segaltopos.elements import Atom, Fam, FinFunction, FinSet, STAR, Tup
from segaltopos.fincat import ResourceBoundError, arrow_category
from segaltopos.corpus import (
    c2_group,
    c2_topos,
    c3_group,
    chain_poset,
    coproduct,
    finset_function,
    finset_presheaf,
    idempotent_monoid,
    random_coproduct_presheaf,
    random_map_to,
    s3_group,
    s3_natural_action,
    s3_topos,
    sierpinski_topos,
    walking_iso,
)
from segaltopos.topos import (
    NatTrans,
    Presheaf,
    SliceMap,
    Topos,
    classify_mono,
    comma_presheaf,
    constant_presheaf,
    dependent_product,
    enumerate_nat_trans,
    exp_transpose,
    exponential,
    finset_topos,
    global_elements,
    hom_count,
    initial,
    is_epi,
    is_iso,
    is_minus1_truncated,
    is_mono,
    ps_product,
    ps_pullback,
    pullback_functor,
    slice_exponential,
    subobject_classifier,
    terminal,
    unique_to_terminal,
    yoneda,
)
from segaltopos.univalence import _finset_map, is_univalent, nerve_of_map

STAR_OBJ = Atom("*")


class TestPresheafBasics:
    def test_terminal_and_initial(self):
        T = finset_topos()
        assert terminal(T).total_size() == 1
        assert initial(T).total_size() == 0
        TS = sierpinski_topos()
        assert [len(s) for s in terminal(TS).at.values()] == [1, 1]

    def test_unique_to_terminal_everywhere(self):
        for T in (finset_topos(), c2_topos(), sierpinski_topos()):
            for c in T.index.objects:
                X = yoneda(T, c)
                f = unique_to_terminal(X)
                assert f.validate() == []

    def test_validation_catches_broken_functoriality(self):
        # a three-cycle cannot be the action of an involution
        T = c2_topos()
        s = FinSet([Atom("0"), Atom("1"), Atom("2")])
        g = [m for m in T.index.morphisms if not T.index.is_identity(m)][0]
        cycle = FinFunction(
            s, s, {Atom("0"): Atom("1"), Atom("1"): Atom("2"), Atom("2"): Atom("0")}
        )
        broken = Presheaf(
            T,
            {STAR_OBJ: s},
            {T.index.id_of(STAR_OBJ): FinFunction.identity(s), g: cycle},
        )
        assert any("contravariance" in line for line in broken.validate())

    def test_naturality_skips_only_identity_squares_at_one_stage(self):
        # the identity of a set shares the set's positions, so a square of
        # two such identities at one stage needs no check; a constant
        # presheaf restricts by that identity along 0 -> 1 too, where the
        # components at 0 and 1 must still agree, and a restriction along
        # an identity that is not the identity is still composed
        s = FinSet([Atom("x"), Atom("y")])
        ident = FinFunction.identity(s)
        assert ident.idx is s.positions
        swap = FinFunction(s, s, {Atom("x"): Atom("y"), Atom("y"): Atom("x")})
        T = sierpinski_topos()
        X = constant_presheaf(T, s)
        c0, c1 = T.index.objects
        (u,) = [m for m in T.index.morphisms if not T.index.is_identity(m)]
        assert NatTrans(X, X, {c0: swap, c1: swap}).validate() == []
        assert NatTrans(X, X, {c0: swap, c1: ident}).validate() == [f"naturality fails along {u!r}"]
        F = finset_topos()
        (star,) = F.index.objects
        unchecked = Presheaf(F, {star: s}, {F.index.id_of(star): swap})
        const = FinFunction(s, s, {Atom("x"): Atom("x"), Atom("y"): Atom("x")})
        assert NatTrans(unchecked, unchecked, {star: const}).validate() == [
            f"naturality fails along {F.index.id_of(star)!r}"
        ]

    def test_s3_action_is_functorial(self):
        assert s3_natural_action().validate() == []


class TestPointwiseLimits:
    def test_product_cardinality(self):
        X, Y = finset_presheaf(["a", "b"]), finset_presheaf(["c", "d", "e"])
        prod = ps_product([X, Y])
        assert prod.apex.total_size() == 6

    def test_pullback_along_identity(self):
        X = finset_presheaf(["a", "b", "c"])
        Y = finset_presheaf(["0", "1"])
        f = finset_function(X, Y, {"a": "0", "b": "0", "c": "1"})
        cone = ps_pullback(f, NatTrans.identity(Y))
        assert cone.apex.total_size() == X.total_size()
        assert is_iso(
            cone.mediate(X, [NatTrans.identity(X), f])
        )

    def test_restrictions_are_induced(self):
        T = c2_topos()
        X = yoneda(T, STAR_OBJ)
        prod = ps_product([X, X])
        assert prod.apex.validate() == []
        for leg in prod.legs:
            assert leg.validate() == []

    def test_restrictions_over_c2_by_hand(self):
        # y(*) over C2 is the free orbit {e, g}; g acts on it by swapping,
        # so along g the product takes the general path, and a constant
        # factor, on which g acts trivially, stays put.
        T = c2_topos()
        e, g = Atom("e"), Atom("g")
        X = yoneda(T, STAR_OBJ)
        K = constant_presheaf(T, FinSet([Atom("k")]))
        swap = {e: g, g: e}
        prod = ps_product([X, K, X])
        assert prod.apex.validate() == []
        apex = prod.apex.at[STAR_OBJ]
        assert [tuple(x.items) for x in apex] == [
            (a, Atom("k"), b) for a in (e, g) for b in (e, g)
        ]
        by_hand = {x: Tup((swap[x[0]], x[1], swap[x[2]])) for x in apex}
        assert prod.apex.restrict[g].table == by_hand
        assert prod.apex.restrict[e].table == {x: x for x in apex}
        # every factor fixed by g: the limit is fixed too
        KK = ps_product([K, K]).apex
        assert KK.restrict[g] == FinFunction.identity(KK.at[STAR_OBJ])


class TestMonoEpiIso:
    def test_identity(self):
        X = finset_presheaf(["a", "b"])
        i = NatTrans.identity(X)
        assert is_mono(i) and is_epi(i) and is_iso(i)

    def test_constant_map_epi_not_mono(self):
        X, Y = finset_presheaf(["0", "1"]), finset_presheaf(["x"])
        f = finset_function(X, Y, {"0": "x", "1": "x"})
        assert is_epi(f) and not is_mono(f)

    def test_orbit_inclusion_mono_not_epi(self):
        T = c2_topos()
        free = yoneda(T, STAR_OBJ)
        total, injections = coproduct([free, free])
        assert is_mono(injections[0]) and not is_epi(injections[0])

    def test_iso_iff_mono_and_epi(self):
        rng = random.Random(7)
        for T in (finset_topos(), c2_topos(), sierpinski_topos()):
            for _ in range(10):
                B = random_coproduct_presheaf(T, rng, 2)[0]
                if B.total_size() == 0:
                    continue
                f = random_map_to(T, rng, B, 2)
                assert is_iso(f) == (is_mono(f) and is_epi(f))


def diagonal_is_iso(X: Presheaf) -> bool:
    """The reference for is_minus1_truncated: X is subterminal iff its
    diagonal X -> X x X is an isomorphism."""
    prod = ps_product([X, X])
    return is_iso(prod.mediate(X, [NatTrans.identity(X), NatTrans.identity(X)]))


class TestMinus1Truncated:
    @staticmethod
    def verdict(X: Presheaf) -> bool:
        out = is_minus1_truncated(X)
        assert out == diagonal_is_iso(X)
        return out

    def test_trivial_cases(self):
        assert self.verdict(finset_presheaf([]))
        assert self.verdict(finset_presheaf(["x"]))
        assert not self.verdict(finset_presheaf(["0", "1"]))

    def test_subterminal_presheaf(self):
        T = sierpinski_topos()
        # both representables are subterminal here; a two-point constant
        # presheaf is not
        assert self.verdict(yoneda(T, Atom("1")))
        assert self.verdict(yoneda(T, Atom("0")))
        assert not self.verdict(constant_presheaf(T, FinSet([Atom("a"), Atom("b")])))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([c2_topos, sierpinski_topos]), st.integers(0, 10**6))
    def test_agrees_with_diagonal_on_random_presheaves(self, topos, seed):
        X = random_coproduct_presheaf(topos(), random.Random(seed), 2)[0]
        self.verdict(X)


class TestEnumerateNatTrans:
    def test_function_counts(self):
        X, Y = finset_presheaf(["a", "b"]), finset_presheaf(["0", "1", "2"])
        assert hom_count(X, Y) == 9

    def test_equivariant_maps_free_orbit(self):
        T = c2_topos()
        free = yoneda(T, STAR_OBJ)
        # equivariant self-maps of the free orbit = right translations
        assert hom_count(free, free) == 2

    def test_over_constraint(self):
        X = finset_presheaf(["a", "b"])
        Y = finset_presheaf(["0", "1"])
        f = finset_function(X, Y, {"a": "0", "b": "1"})
        count = sum(1 for _ in enumerate_nat_trans(X, X, over=(f, f)))
        assert count == 1  # only the identity commutes with a bijection

    def test_deterministic_order(self):
        X = finset_presheaf(["a", "b"])
        first = [t.component[STAR_OBJ].table for t in enumerate_nat_trans(X, X)]
        second = [t.component[STAR_OBJ].table for t in enumerate_nat_trans(X, X)]
        assert first == second


class TestExponential:
    def test_unit_law(self):
        T = finset_topos()
        G = finset_presheaf(["0", "1", "2"])
        expo = exponential(T, terminal(T), G)
        assert expo.obj.total_size() == 3

    def test_function_set(self):
        T = finset_topos()
        two = finset_presheaf(["0", "1"])
        expo = exponential(T, two, two)
        assert expo.obj.total_size() == 4

    def test_free_orbit_self_hom(self):
        T = c2_topos()
        X = yoneda(T, STAR_OBJ)
        expo = exponential(T, X, X)
        # all four set-maps, carrying a nontrivial action
        assert expo.obj.total_size() == 4
        g = [m for m in T.index.morphisms if not T.index.is_identity(m)][0]
        action = expo.obj.restrict[g]
        assert any(action(x) != x for x in expo.obj.at[STAR_OBJ])
        # the fixed global elements are the two right translations
        assert len(global_elements(expo.obj)) == 2

    def test_adjunction_count(self):
        T = finset_topos()
        A = finset_presheaf(["a"])
        F = finset_presheaf(["0", "1"])
        G = finset_presheaf(["x", "y", "z"])
        expo = exponential(T, F, G)
        prod = ps_product([A, F])
        assert hom_count(prod.apex, G) == hom_count(A, expo.obj)

    def test_transpose_round_trip(self):
        T = finset_topos()
        A = finset_presheaf(["a", "b"])
        F = finset_presheaf(["0", "1"])
        G = finset_presheaf(["x", "y"])
        expo = exponential(T, F, G)
        prod = ps_product([A, F])
        for h in enumerate_nat_trans(prod.apex, G):
            tr = exp_transpose(expo, A, h)
            paired = expo.ev_product.mediate(prod.apex, [prod.legs[0].then(tr), prod.legs[1]])
            assert paired.then(expo.ev) == h


def _representables_and_a_sum(T):
    """The representables of T and the coproduct of the first and the last."""
    ys = [yoneda(T, c) for c in T.index.objects]
    return ys + [coproduct([ys[0], ys[-1]])[0]]


@pytest.mark.parametrize("topos", [c2_topos, sierpinski_topos])
class TestExponentialOverAnIndex:
    """G^F is computed as a dependent product; these checks count maps with
    enumerate_nat_trans alone."""

    def test_stage_is_hom_out_of_representable_times_base(self, topos):
        # the Yoneda formula: G^F(c) = Hom(y(c) x F, G)
        T = topos()
        presheaves = _representables_and_a_sum(T)
        for F in presheaves:
            for G in presheaves:
                expo = exponential(T, F, G)
                for c in T.index.objects:
                    yc_F = ps_product([yoneda(T, c), F]).apex
                    assert len(expo.obj.at[c]) == hom_count(yc_F, G)

    def _triples(self, T):
        presheaves = _representables_and_a_sum(T)
        first, last = presheaves[0], presheaves[-1]
        for A in presheaves:
            for F, G in ((first, last), (last, first)):
                yield A, F, G

    def test_adjunction_count(self, topos):
        T = topos()
        for A, F, G in self._triples(T):
            expo = exponential(T, F, G)
            assert hom_count(ps_product([A, F]).apex, G) == hom_count(A, expo.obj)

    def test_transpose_round_trip(self, topos):
        T = topos()
        for A, F, G in self._triples(T):
            expo = exponential(T, F, G)
            prod = ps_product([A, F])
            for h in enumerate_nat_trans(prod.apex, G):
                tr = exp_transpose(expo, A, h)
                paired = expo.ev_product.mediate(prod.apex, [prod.legs[0].then(tr), prod.legs[1]])
                assert paired.then(expo.ev) == h


class TestSubobjectClassifier:
    def test_finset_omega_two_values(self):
        omega, true_arrow = subobject_classifier(finset_topos())
        assert omega.total_size() == 2
        assert len(global_elements(omega)) == 2

    def test_group_omega_trivial(self):
        for T in (c2_topos(), s3_topos()):
            omega, _ = subobject_classifier(T)
            assert omega.total_size() == 2
            for u in T.index.morphisms:
                assert omega.restrict[u] == FinFunction.identity(omega.at[STAR_OBJ])

    def test_sierpinski_omega_matches_subobjects(self):
        T = sierpinski_topos()
        omega, _ = subobject_classifier(T)
        # |Omega(c)| must equal the number of subobjects of the representable
        assert {repr(c): len(s) for c, s in omega.at.items()} == {
            "Atom('0')": 2,
            "Atom('1')": 3,
        }

    def test_sub_counts_equal_hom_into_omega(self):
        T = sierpinski_topos()
        omega, _ = subobject_classifier(T)
        for c in T.index.objects:
            X = yoneda(T, c)
            subs = _count_subpresheaves(X)
            assert subs == hom_count(X, omega)


def _count_subpresheaves(X: Presheaf) -> int:
    import itertools

    T = X.topos
    idx = T.index
    objs = list(idx.objects)
    choices = [
        [frozenset(s) for s in _subsets(list(X.at[c]))] for c in objs
    ]
    count = 0
    for pick in itertools.product(*choices):
        sub = dict(zip(objs, pick))
        if all(
            X.restrict[u](x) in sub[idx.src(u)]
            for u in idx.morphisms
            for x in sub[idx.tgt(u)]
        ):
            count += 1
    return count


def _subsets(xs):
    import itertools

    for r in range(len(xs) + 1):
        yield from (set(c) for c in itertools.combinations(xs, r))


class TestClassifyMono:
    def test_singleton_into_two(self):
        one, two = finset_presheaf(["x"]), finset_presheaf(["0", "1"])
        m = finset_function(one, two, {"x": "1"})
        chi = classify_mono(m)
        assert chi.validate() == []
        assert is_mono(chi)

    def test_empty_subobject_constant_false(self):
        X = finset_presheaf(["0", "1"])
        m = finset_function(finset_presheaf([]), X, {})
        chi = classify_mono(m)
        values = set(chi.component[STAR_OBJ].table.values())
        assert len(values) == 1 and values.pop() == Tup(())

    def test_identity_constant_true(self):
        X = finset_presheaf(["0", "1"])
        chi = classify_mono(NatTrans.identity(X))
        _, true_arrow = subobject_classifier(X.topos)
        assert set(chi.component[STAR_OBJ].table.values()) == set(
            true_arrow.component[STAR_OBJ].table.values()
        )

    def test_rejects_non_mono(self):
        X, Y = finset_presheaf(["0", "1"]), finset_presheaf(["x"])
        with pytest.raises(ValueError):
            classify_mono(finset_function(X, Y, {"0": "x", "1": "x"}))

    def test_equivariant_mono(self):
        T = c2_topos()
        free = yoneda(T, STAR_OBJ)
        total, injections = coproduct([free, free])
        chi = classify_mono(injections[1])
        assert chi.validate() == []


class TestPullbackAndDependentProduct:
    def test_fiber(self):
        E = finset_presheaf(["a", "b", "c"])
        B = finset_presheaf(["x", "y"])
        p = finset_function(E, B, {"a": "x", "b": "x", "c": "y"})
        pt = finset_presheaf(["x"])
        x = finset_function(pt, B, {"x": "x"})
        res = pullback_functor(x, SliceMap(E, B, p))
        assert res.total.total_size() == 2

    def test_pullback_of_identity(self):
        B = finset_presheaf(["x", "y"])
        res = pullback_functor(NatTrans.identity(B), SliceMap(B, B, NatTrans.identity(B)))
        assert is_iso(res.proj)

    def test_base_change_preserves_monos(self):
        rng = random.Random(3)
        for T in (finset_topos(), c2_topos()):
            for _ in range(8):
                B = random_coproduct_presheaf(T, rng, 2)[0]
                if B.total_size() == 0:
                    continue
                f = random_map_to(T, rng, B, 2)
                m = random_map_to(T, rng, B, 2)
                if not is_mono(m):
                    continue
                res = pullback_functor(f, SliceMap(m.dom, B, m))
                assert is_mono(res.proj)

    def test_pi_along_identity(self):
        A = finset_presheaf(["a", "b"])
        X = finset_presheaf(["0", "1", "2"])
        g = finset_function(X, A, {"0": "a", "1": "a", "2": "b"})
        pi = dependent_product(NatTrans.identity(A), SliceMap(X, A, g))
        for b in A.at[STAR_OBJ]:
            fiber_before = sum(1 for x in X.at[STAR_OBJ] if g.component[STAR_OBJ](x) == b)
            fiber_after = sum(
                1
                for e in pi.total.at[STAR_OBJ]
                if pi.proj.component[STAR_OBJ](e) == b
            )
            assert fiber_before == fiber_after

    def test_pi_stops_at_the_first_section_past_the_bound(self, monkeypatch):
        # the fiberwise maps of a (4, 4, 4) map of finite sets: 4^4 = 256
        # sections over each of the 9 pairs of points, 2 304 in all
        listed = [0]
        original = topos_module._natural_sections

        def counted(*args):
            for values in original(*args):
                listed[0] += 1
                yield values

        monkeypatch.setattr(topos_module, "_natural_sections", counted)
        with pytest.raises(ResourceBoundError) as exc:
            nerve_of_map(_finset_map((4, 4, 4), finset_topos(500)))
        assert (exc.value.stage, exc.value.size) == ("dependent_product", 501)
        assert 0 < listed[0] <= 501

    def test_section_count_oracle(self):
        # fibers of Pi_f multiply the fiber sizes of the inner map
        A = finset_presheaf(["a1", "a2", "a3"])
        B = finset_presheaf(["b1", "b2"])
        X = finset_presheaf(["x1", "x2", "x3", "x4"])
        f = finset_function(A, B, {"a1": "b1", "a2": "b1", "a3": "b2"})
        g = finset_function(X, A, {"x1": "a1", "x2": "a1", "x3": "a2", "x4": "a3"})
        pi = dependent_product(f, SliceMap(X, A, g))
        fibers = {}
        for e in pi.total.at[STAR_OBJ]:
            b = pi.proj.component[STAR_OBJ](e)
            fibers[b] = fibers.get(b, 0) + 1
        assert fibers[Atom("b1")] == 2 * 1  # |g^-1(a1)| * |g^-1(a2)|
        assert fibers[Atom("b2")] == 1

    def test_adjunction_cardinality_random(self):
        rng = random.Random(11)
        checked = 0
        for T in (finset_topos(), c2_topos(), sierpinski_topos()):
            while True:
                B = random_coproduct_presheaf(T, rng, 2)[0]
                if B.total_size() == 0:
                    continue
                f = random_map_to(T, rng, B, 2)
                if f.dom.total_size() == 0:
                    continue
                g = random_map_to(T, rng, B, 2)
                x = random_map_to(T, rng, f.dom, 2)
                gs, xs = SliceMap(g.dom, B, g), SliceMap(x.dom, f.dom, x)
                pi = dependent_product(f, xs)
                lhs = hom_count(gs.total, pi.total, over=(gs.proj, pi.proj))
                pb = pullback_functor(f, gs)
                rhs = hom_count(pb.total, xs.total, over=(pb.proj, xs.proj))
                assert lhs == rhs
                checked += 1
                if checked % 6 == 0:
                    break
        assert checked >= 18


def labelled_dependent_product(f: NatTrans, x: SliceMap):
    """The dependent product built on labels, as a reference: for each
    point b of f.cod at c, the fan of b is the comma presheaf, its natural
    sections over x come from enumerate_nat_trans, each is labelled
    Tup((b, Fam)), and FinSet sorts them.  Returns the sets, the fans
    (keyed by (c, b), their keys sorted) and each restriction as a dict
    from labels to labels."""
    T = f.dom.topos
    idx, B = T.index, f.cod
    at, fans = {}, {}
    for c in idx.objects:
        labels = []
        for b in B.at[c]:
            L, pr = comma_presheaf(f, c, b)
            fans[(c, b)] = FinSet(k for d in idx.objects for k in L.at[d]).elements
            for t in enumerate_nat_trans(L, x.total, over=(pr, x.proj)):
                fam = Fam((k, t.component[d](k)) for d in idx.objects for k in L.at[d])
                labels.append(Tup((b, fam)))
        at[c] = FinSet(labels)
    restrict = {}
    for w in idx.morphisms:
        c1, c2 = idx.src(w), idx.tgt(w)
        table = restrict[w] = {}
        for e in at[c2]:
            b1 = B.restrict[w](e[0])
            keys = fans[(c1, b1)]
            table[e] = Tup((b1, Fam((k, e[1].get(Tup((idx.comp[(w, k[0])], k[1])))) for k in keys)))
    return at, fans, restrict


def assert_is_the_labelled_reference(pi, f: NatTrans, x: SliceMap) -> None:
    """pi, built by position, has the labels of the reference in order, and
    the same projection, fans and restrictions."""
    at, fans, restrict = labelled_dependent_product(f, x)
    idx, A, B = f.dom.topos.index, f.dom, f.cod
    assert set(pi.fans) == {(c, b) for c in idx.objects for b in range(len(B.at[c]))}
    for c in idx.objects:
        assert len(pi.total.at[c]) == len(at[c])
        assert pi.total.at[c].elements == at[c].elements
        assert pi.total.at[c].index == at[c].index
        assert pi.proj.component[c].table == {e: e[0] for e in at[c]}
        for b, point in enumerate(B.at[c]):
            keys = tuple(Tup((u, A.at[d].elements[a])) for u, d, a in pi.fans[(c, b)])
            assert keys == fans[(c, point)]
    for w in idx.morphisms:
        assert pi.total.restrict[w].table == restrict[w]
    assert pi.total.validate() == [] and pi.proj.validate() == []


def fiberwise_map_inputs(p: NatTrans):
    """The map p x id: E x B -> B x B and the slice E x E -> E x B whose
    dependent product is the fiberwise-map object of p, as nerve_of_map
    builds them."""
    E, B = p.dom, p.cod
    ee, eb, bb = ps_product([E, E]), ps_product([E, B]), ps_product([B, B])
    proj = eb.mediate(ee.apex, [ee.legs[0], ee.legs[1].then(p)])
    p_times_id = bb.mediate(eb.apex, [eb.legs[0].then(p), eb.legs[1]])
    return p_times_id, SliceMap(ee.apex, eb.apex, proj)


@pytest.fixture
def enumeration_paths(monkeypatch):
    """Whether each fan that dependent_product enumerates has links between
    different keys (the search) or none (the plain product)."""
    seen = []
    original = topos_module._natural_sections

    def recorded(candidates, links):
        seen.append(any(links))
        return original(candidates, links)

    monkeypatch.setattr(topos_module, "_natural_sections", recorded)
    return seen


INDEXES = {
    "c2": c2_group,
    "c3": c3_group,
    "s3": s3_group,
    "sierpinski": arrow_category,
    "walking_iso": walking_iso,
    "idempotent": idempotent_monoid,
    "chain3": lambda: chain_poset(3),
}


class TestPositionalDependentProduct:
    """dependent_product, which stores sections by position, against the
    labelled construction it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(INDEXES)), st.integers(0, 10**6))
    def test_random_maps(self, index, seed):
        # a bound keeps the reference's enumeration short
        T, rng = Topos(INDEXES[index](), 2000), random.Random(seed)
        B = random_coproduct_presheaf(T, rng, 2)[0]
        if B.total_size() == 0:
            B = terminal(T)
        f = random_map_to(T, rng, B, 2)
        x = random_map_to(T, rng, f.dom, 3)
        xs = SliceMap(x.dom, f.dom, x)
        try:
            pi = dependent_product(f, xs)
        except ResourceBoundError:
            reject()
        assert_is_the_labelled_reference(pi, f, xs)

    def test_bundle_maps(self, bundled_workspaces, enumeration_paths):
        for w in bundled_workspaces.values():
            for mname in w.maps.values():
                p = w.morphisms[mname]
                assert_is_the_labelled_reference(nerve_of_map(p).M, *fiberwise_map_inputs(p))
        # finite sets reach only the plain product; the free C2-sets link
        # the key (e, a) to (g, a.g)
        assert set(enumeration_paths) == {False, True}

    @pytest.mark.parametrize("topos", [finset_topos, c2_topos, sierpinski_topos])
    def test_exponentials(self, topos, enumeration_paths):
        T = topos()
        presheaves = _representables_and_a_sum(T)
        for F in presheaves:
            for G in presheaves:
                FG = ps_product([F, G])
                f, x = unique_to_terminal(F), SliceMap(FG.apex, F, FG.legs[0])
                assert_is_the_labelled_reference(exponential(T, F, G).pi, f, x)
        assert any(enumeration_paths) == (topos is not finset_topos)

    @pytest.mark.parametrize("topos", [finset_topos, c2_topos, sierpinski_topos])
    def test_slice_exponentials(self, topos):
        T, rng = topos(), random.Random(5)
        for _ in range(6):
            B = random_coproduct_presheaf(T, rng, 2)[0]
            if B.total_size() == 0:
                B = terminal(T)
            g, f = (random_map_to(T, rng, B, 2) for _ in range(2))
            g, f = SliceMap(g.dom, B, g), SliceMap(f.dom, B, f)
            assert_is_the_labelled_reference(
                slice_exponential(g, f), g.proj, pullback_functor(g.proj, f)
            )

    @pytest.mark.parametrize("bundle", ["finset", "s3"])
    def test_a_verdict_builds_no_section_label(self, monkeypatch, bundled_workspaces, bundle):
        # the FinSet (3,) map, or the natural S3 action over the point
        if bundle == "finset":
            p = _finset_map((3,))
        else:
            (mname,) = bundled_workspaces["s3"].maps.values()
            p = bundled_workspaces["s3"].morphisms[mname]
        nerves = []
        build_nerve = univalence.nerve_of_map

        def kept(p):
            nerves.append(build_nerve(p))
            return nerves[-1]

        built = [0]
        original = Fam.__new__

        def counting(cls_, *args):
            built[0] += 1
            return original(cls_, *args)

        monkeypatch.setattr(univalence, "nerve_of_map", kept)
        monkeypatch.setattr(Fam, "__new__", counting)
        assert is_univalent(p).level_sizes[1] == 27
        assert built[0] == 0
        (nerve,) = nerves
        # reading the labels builds them, one per section, and the spy sees it
        C1 = {c: s.elements for c, s in nerve.cat.C1.at.items()}
        assert built[0] == 27
        at, _, _ = labelled_dependent_product(*fiberwise_map_inputs(p))
        assert C1 == {c: s.elements for c, s in at.items()}


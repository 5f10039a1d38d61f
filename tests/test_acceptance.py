"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The criteria exercise the full pipeline end to end: enumeration of
univalent maps of finite sets against the fiber oracle, the group-action
example, identity and classifier maps, equivalence objects against
brute-forced isomorphism sets, composition laws, the poset of univalent
maps, the univalence/mono biconditional under pullback, and the
dependent-product adjunction on random instances.

The group-action example (criterion 04) expects "not univalent": the
natural three-element S3-set over the point has Iso(X, X) = Sym(3), and the
presheaf-level fiber-isomorphism oracle, which counts isomorphisms of
pulled-back fibers over each representable without the nerve, agrees.  In
a group topos univalent implies mono, so "univalent but not mono" has no
instance there; the expectation held only for global points of the
equivalence object (the centre of S3 is trivial).
"""

import random
import time

import pytest

from segaltopos.elements import Atom, STAR
from segaltopos.corpus import (
    c2_topos,
    coproduct,
    corpus_categories,
    is_gaunt,
    iso_set,
    random_coproduct_presheaf,
    random_map_to,
    s3_natural_action,
    sierpinski_topos,
)
from segaltopos.topos import (
    NatTrans,
    dependent_product,
    finset_topos,
    hom_count,
    is_iso,
    is_minus1_truncated,
    is_mono,
    ps_pullback,
    pullback_functor,
    subobject_classifier,
    terminal,
    unique_to_terminal,
)
from segaltopos.segal import (
    compose,
    composition_data,
    identity_morphism,
    is_complete,
    isomorphisms,
)
from segaltopos.univalence import (
    PullbackSquareMorphism,
    _finset_map,
    check_uni_iff_mono,
    check_universal_mono_univalent,
    enumerate_univalent,
    fiber_iso_counts,
    is_univalent,
    presheaf_oracle_univalent,
    pullback_square_homs,
)

STAR_OBJ = Atom("*")


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {desc}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def enumerated():
    start = time.perf_counter()
    found = enumerate_univalent(finset_topos(), 3, 3)
    return found, time.perf_counter() - start


def test_criterion_01_set_classification(enumerated):
    found, seconds = enumerated
    signatures = [sig for sig, _ in found]
    ok = signatures == [(), (0,), (0, 1), (1,)] and seconds < 60
    _report(
        1,
        "univalent maps of finite sets with |E|,|B| <= 3 are exactly the four "
        "subsingleton inclusions",
        ok,
        f"{signatures}, {seconds:.1f}s",
    )


def test_criterion_02_oracle_equivalence(finset_sweep):
    disagreements = [
        sig for sig, (_, r) in finset_sweep.items() if r.oracle_agrees is not True
    ]
    _report(
        2,
        "nerve pipeline agrees with the fiber oracle on the full sweep",
        not disagreements,
        f"{len(finset_sweep)} maps, {len(disagreements)} disagreements",
    )


def test_criterion_03_univalent_implies_mono(finset_sweep):
    bad = [sig for sig, (_, r) in finset_sweep.items() if r.univalent and not r.mono]
    _report(3, "every univalent map of finite sets is mono", not bad, f"violations: {bad}")


def test_criterion_04_group_action():
    # Over y(*) = S3 the pulled-back fiber is the bare set X, so the
    # isomorphisms from the fiber to itself are the 3! bijections of X and
    # the equivalence carrier has 6 elements against 1 for B.
    p = unique_to_terminal(s3_natural_action())
    start = time.perf_counter()
    report = is_univalent(p, name="natural_action")
    seconds = time.perf_counter() - start
    counts = fiber_iso_counts(p)
    oracle = presheaf_oracle_univalent(p)
    ok = (
        not report.univalent
        and not report.mono
        and report.carrier_sizes == {"Atom('*')": 6}
        and counts == {(STAR_OBJ, STAR, STAR): 6}
        and not oracle
        and seconds < 120
    )
    _report(
        4,
        "the natural three-element action over the point is neither univalent "
        "nor mono (Iso(X, X) = Sym(3))",
        ok,
        f"univalent={report.univalent}, mono={report.mono}, "
        f"carrier={report.carrier_sizes}, iso counts={list(counts.values())}, "
        f"oracle={oracle}, {seconds:.1f}s",
    )


def test_criterion_05_identity_iff_subterminal(bundled_workspaces):
    mismatches = []
    for bundle, w in bundled_workspaces.items():
        for name, X in w.presheaves.items():
            univalent = is_univalent(NatTrans.identity(X), name=f"id_{name}").univalent
            if univalent != is_minus1_truncated(X):
                mismatches.append(f"{bundle}/{name}")
    _report(
        5,
        "the identity of an object is univalent exactly when the object is "
        "subterminal, across all bundled toposes",
        not mismatches,
        f"mismatches: {mismatches}",
    )


def test_criterion_06_universal_mono():
    results = {}
    for name, T in (
        ("finset", finset_topos()),
        ("c2", c2_topos()),
        ("sierpinski", sierpinski_topos()),
    ):
        v = check_universal_mono_univalent(T)
        results[name] = (v.univalent, v.internal_poset)
    ok = all(u and p for u, p in results.values())
    _report(
        6,
        "the classifier point is univalent and its nerve is an internal poset "
        "in sets, involution-sets, and the two-stage topos",
        ok,
        str(results),
    )


def test_criterion_07_equivalence_object_oracle(corpus_nerves):
    bad = []
    for name, (C, cat, X, eq) in corpus_nerves.items():
        # the verdicts' isomorphisms of C and the paper's pullback on its nerve
        for found in (isomorphisms(cat), eq):
            image = set(found.U.component[STAR_OBJ].table.values())
            if image != iso_set(C) or found.carrier.total_size() != len(iso_set(C)):
                bad.append(f"{name}: carrier")
        if is_complete(X) != is_gaunt(C):
            bad.append(f"{name}: completeness")
    ok = not bad and len(corpus_nerves) >= 8
    _report(
        7,
        "equivalence carriers biject with brute-forced isomorphism sets and "
        "completeness matches gauntness on the corpus",
        ok,
        f"{len(corpus_nerves)} categories, problems: {bad}",
    )


def _constant_points(cat, D):
    out = {}
    for o in cat.C0.at[STAR_OBJ]:
        from segaltopos.elements import FinFunction

        out[o] = NatTrans(
            D,
            cat.C0,
            {STAR_OBJ: FinFunction.constant(D.at[STAR_OBJ], cat.C0.at[STAR_OBJ], o)},
        )
    return out


def _law_failures(C, cat, X, D):
    points = _constant_points(cat, D)
    cache = {}

    def data(a, b, c):
        key = (a, b, c)
        if key not in cache:
            cache[key] = composition_data(X, D, points[a], points[b], points[c])
        return cache[key]

    idents = {
        a: identity_morphism(X, D, points[a]).component[STAR_OBJ](STAR)
        for a in C.objects
    }
    failures = 0
    objs = list(C.objects)
    for a in objs:
        for b in objs:
            if not C.hom(a, b):
                continue
            d_left = data(a, a, b)
            d_right = data(a, b, b)
            for f in d_left.map_yz.obj.at[STAR_OBJ]:
                if compose(d_left, STAR_OBJ, idents[a], f) != f:
                    failures += 1
                if compose(d_right, STAR_OBJ, f, idents[b]) != f:
                    failures += 1
    for a in objs:
        for b in objs:
            if not C.hom(a, b):
                continue
            for c in objs:
                if not C.hom(b, c):
                    continue
                for d in objs:
                    if not C.hom(c, d):
                        continue
                    d_abc = data(a, b, c)
                    d_bcd = data(b, c, d)
                    d_acd = data(a, c, d)
                    d_abd = data(a, b, d)
                    for f in d_abc.map_xy.obj.at[STAR_OBJ]:
                        for g in d_abc.map_yz.obj.at[STAR_OBJ]:
                            fg = compose(d_abc, STAR_OBJ, f, g)
                            for h in d_bcd.map_yz.obj.at[STAR_OBJ]:
                                gh = compose(d_bcd, STAR_OBJ, g, h)
                                lhs = compose(d_acd, STAR_OBJ, fg, h)
                                rhs = compose(d_abd, STAR_OBJ, f, gh)
                                if lhs != rhs:
                                    failures += 1
    return failures


def test_criterion_08_composition_laws(corpus_nerves):
    T = finset_topos()
    one = terminal(T)
    two = coproduct([one, one])[0]
    failures = 0
    for name, (C, cat, X, eq) in corpus_nerves.items():
        for D in (one, two):
            failures += _law_failures(C, cat, X, D)
    _report(
        8,
        "unit and associativity equalities hold for all composable chains over "
        "one- and two-point contexts on the corpus",
        failures == 0,
        f"failures: {failures}",
    )


def test_criterion_09_equivalences_mono_and_agreement(corpus_nerves):
    bad = []
    for name, (C, cat, X, eq) in corpus_nerves.items():
        if not all(f.is_injective() for f in eq.U.component.values()):
            bad.append(f"{name}: U not pointwise injective")
        if not is_mono(eq.U):
            bad.append(f"{name}: U not mono")
        # the paper's pullback on the nerve against the isomorphisms of C
        if is_complete(X) != is_iso(isomorphisms(cat).s0_lift):
            bad.append(f"{name}: completeness formulations disagree")
    _report(
        9,
        "the equivalence projection is a pointwise-injective mono and both "
        "completeness formulations agree on the corpus",
        not bad,
        f"problems: {bad}",
    )


def test_criterion_10_poset_of_univalent_maps(enumerated):
    found, _ = enumerated
    counts = {}
    for sig2, p2 in found:
        for sig1, p1 in found:
            counts[(sig2, sig1)] = len(pullback_square_homs(p2, p1))
    ok = all(n <= 1 for n in counts.values())
    _report(
        10,
        "at most one pullback square between any two enumerated univalent maps",
        ok,
        f"max count: {max(counts.values())}",
    )


def _random_squares(T, p1, rng, count):
    verdicts = []
    while len(verdicts) < count:
        f_B = random_map_to(T, rng, p1.cod, 2)
        cone = ps_pullback(p1, f_B)
        sq = PullbackSquareMorphism(
            cone.legs[2], p1, cone.legs[0], f_B
        )
        verdicts.append(check_uni_iff_mono(sq))
    return verdicts


def test_criterion_11_uni_iff_mono_random():
    rng = random.Random(2024)
    verdicts = _random_squares(finset_topos(), _finset_map((0, 1)), rng, 60)
    T2 = c2_topos()
    _, true_arrow = subobject_classifier(T2)
    verdicts += _random_squares(T2, true_arrow, rng, 60)
    failures = sum(1 for v in verdicts if not v.agrees)
    ok = failures == 0 and len(verdicts) >= 100
    _report(
        11,
        "under pullback from a univalent map, the source is univalent exactly "
        "when the base component is mono",
        ok,
        f"{len(verdicts)} squares, {failures} failures",
    )


def test_criterion_12_adjunction_counts():
    rng = random.Random(97)
    failures = 0
    totals = {}
    for name, T in (
        ("finset", finset_topos()),
        ("c2", c2_topos()),
        ("sierpinski", sierpinski_topos()),
    ):
        checked = 0
        while checked < 50:
            B = random_coproduct_presheaf(T, rng, 2)[0]
            if B.total_size() == 0:
                continue
            f = random_map_to(T, rng, B, 2)
            if f.dom.total_size() == 0:
                continue
            g = random_map_to(T, rng, B, 2)
            x = random_map_to(T, rng, f.dom, 2)
            pi = dependent_product(f, x)
            lhs = hom_count(g.dom, pi.total, over=(g, pi.proj))
            pb = pullback_functor(f, g)
            rhs = hom_count(pb.dom, x.dom, over=(pb, x))
            if lhs != rhs:
                failures += 1
            checked += 1
        totals[name] = checked
    ok = failures == 0 and all(n >= 50 for n in totals.values())
    _report(
        12,
        "slice hom counts match across the pullback / dependent-product "
        "adjunction on random instances",
        ok,
        f"instances: {totals}, failures: {failures}",
    )

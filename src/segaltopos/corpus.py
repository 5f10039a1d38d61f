"""Bundled toposes, categories, presheaf builders, brute-force oracles and
random-instance generators used by the test-suite and the CLI corpus."""

from __future__ import annotations

import random

from .elements import Atom, Element, FinFunction, FinSet, Tup
from .fincat import (
    DEFAULT_BOUND,
    FiniteCategory,
    arrow_category,
    discrete_category,
    group_category,
    monoid_category,
    poset_category,
    terminal_category,
    validate_category,
)
from .topos import NatTrans, Presheaf, Topos, finset_topos, yoneda


# ---------------------------------------------------------------------------
# groups and their toposes

_S3_PERMS = {
    "e": (0, 1, 2),
    "r": (1, 2, 0),
    "rr": (2, 0, 1),
    "s": (0, 2, 1),
    "sr": (2, 1, 0),
    "srr": (1, 0, 2),
}


def _perm_compose(a, b):
    """a after b, as permutations of {0,1,2}."""
    return tuple(a[b[i]] for i in range(3))


def _s3_mult(a: str, b: str) -> str:
    target = _perm_compose(_S3_PERMS[a], _S3_PERMS[b])
    for name, perm in _S3_PERMS.items():
        if perm == target:
            return name
    raise AssertionError


def s3_group() -> FiniteCategory:
    return group_category(sorted(_S3_PERMS), "e", _s3_mult)


def c2_group() -> FiniteCategory:
    return group_category(["e", "g"], "e", lambda a, b: "e" if a == b else "g")


def c3_group() -> FiniteCategory:
    names = ["e", "r", "rr"]
    return group_category(
        names, "e", lambda a, b: names[(names.index(a) + names.index(b)) % 3]
    )


def c2_topos(bound=DEFAULT_BOUND) -> Topos:
    return Topos(c2_group(), bound)


def s3_topos(bound=DEFAULT_BOUND) -> Topos:
    return Topos(s3_group(), bound)


def sierpinski_topos(bound=DEFAULT_BOUND) -> Topos:
    return Topos(arrow_category(), bound)


def finset_presheaf(names) -> Presheaf:
    T = finset_topos()
    s = FinSet(Atom(n) for n in names)
    star = Atom("*")
    return Presheaf(T, {star: s}, {T.index.id_of(star): FinFunction.identity(s)})


def finset_function(X: Presheaf, Y: Presheaf, mapping: dict) -> NatTrans:
    star = Atom("*")
    table = {Atom(a): Atom(b) for a, b in mapping.items()}
    return NatTrans(X, Y, {star: FinFunction(X.at[star], Y.at[star], table)})


def s3_natural_action() -> Presheaf:
    """The 3-element set with its tautological right S3-action."""
    T = s3_topos()
    star = Atom("*")
    pts = FinSet(Atom(f"x{i}") for i in range(3))
    restrict = {}
    for g in T.index.morphisms:
        perm = _S3_PERMS[g.name]
        inv = [perm.index(i) for i in range(3)]
        restrict[g] = FinFunction(
            pts, pts, {Atom(f"x{i}"): Atom(f"x{inv[i]}") for i in range(3)}
        )
    return Presheaf(T, {star: pts}, restrict)


# ---------------------------------------------------------------------------
# finite-category corpus


def _tabled_category(objects, morphisms, srcs, tgts, idents, comp_pairs) -> FiniteCategory:
    objs = FinSet(Atom(o) for o in objects)
    mors = FinSet(Atom(m) for m in morphisms)
    src = FinFunction(mors, objs, {Atom(m): Atom(srcs[m]) for m in morphisms})
    tgt = FinFunction(mors, objs, {Atom(m): Atom(tgts[m]) for m in morphisms})
    idf = FinFunction(objs, mors, {Atom(o): Atom(idents[o]) for o in objects})
    comp = {(Atom(g), Atom(f)): Atom(h) for (g, f), h in comp_pairs.items()}
    C = FiniteCategory(objs, mors, src, tgt, idf, comp)
    problems = validate_category(C)
    if problems:
        raise ValueError("bad corpus category: " + "; ".join(problems))
    return C


def walking_iso() -> FiniteCategory:
    """Two objects joined by a pair of mutually inverse morphisms."""
    comp = {}
    mors = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b"), "g": ("b", "a")}
    idents = {"a": "ia", "b": "ib"}
    for g, (gs, gt) in mors.items():
        for f, (fs, ft) in mors.items():
            if ft != gs:
                continue
            if f in idents.values():
                comp[(g, f)] = g
            elif g in idents.values():
                comp[(g, f)] = f
            else:
                comp[(g, f)] = idents[fs] if {f, g} == {"f", "g"} else None
    return _tabled_category(
        ["a", "b"],
        list(mors),
        {m: s for m, (s, _) in mors.items()},
        {m: t for m, (_, t) in mors.items()},
        idents,
        comp,
    )


def idempotent_monoid() -> FiniteCategory:
    return monoid_category(["1", "p"], "1", lambda a, b: "1" if a == b == "1" else "p")


def chain_poset(n: int) -> FiniteCategory:
    return poset_category([str(i) for i in range(n)], lambda a, b: int(a) <= int(b))


def corpus_categories() -> dict:
    """At least eight small categories spanning gaunt/non-gaunt cases."""
    return {
        "terminal": terminal_category(),
        "discrete2": discrete_category(["a", "b"]),
        "c2": c2_group(),
        "c3": c3_group(),
        "s3": s3_group(),
        "chain2": chain_poset(2),
        "chain3": chain_poset(3),
        "walking_iso": walking_iso(),
        "idempotent": idempotent_monoid(),
    }


# ---------------------------------------------------------------------------
# brute-force oracles on finite categories


def category_problems_by_triples(C: FiniteCategory) -> list[str]:
    """The unit laws arrow by arrow and associativity triple by triple: the
    reference for ``validate_category`` on a C whose structure it accepts."""
    report = []
    for f in C.morphisms:
        if C.comp[(f, C.id_of(C.src(f)))] != f or C.comp[(C.id_of(C.tgt(f)), f)] != f:
            report.append(f"unit law fails for {f!r}")
    for (g, f), gf in C.comp.items():
        for h in C.morphisms:
            if C.src(h) == C.tgt(g) and C.comp[(h, gf)] != C.comp[(C.comp[(h, g)], f)]:
                report.append(f"associativity fails on ({h!r},{g!r},{f!r})")
    return report


def iso_set(C: FiniteCategory) -> set:
    """All invertible morphisms, by searching for two-sided inverses."""
    out = set()
    for f in C.morphisms:
        for g in C.hom(C.tgt(f), C.src(f)):
            if (
                C.comp[(g, f)] == C.id_of(C.src(f))
                and C.comp[(f, g)] == C.id_of(C.tgt(f))
            ):
                out.add(f)
                break
    return out


def is_gaunt(C: FiniteCategory) -> bool:
    return all(C.is_identity(f) for f in iso_set(C))


def iso_hom_set(C: FiniteCategory, x: Element, y: Element) -> set:
    return {f for f in iso_set(C) if C.src(f) == x and C.tgt(f) == y}


# ---------------------------------------------------------------------------
# coproducts of presheaves and Yoneda-based random maps


def coproduct(Xs: list[Presheaf]):
    """Disjoint union of presheaves, with injections; components are tagged
    with their position."""
    T = Xs[0].topos
    idx = T.index

    def tag(k, x):
        return Tup((Atom(f"i{k}"), x))

    at = {
        c: FinSet(tag(k, x) for k, X in enumerate(Xs) for x in X.at[c])
        for c in idx.objects
    }
    restrict = {}
    for u in idx.morphisms:
        c, d = idx.src(u), idx.tgt(u)
        table = {}
        for k, X in enumerate(Xs):
            for x in X.at[d]:
                table[tag(k, x)] = tag(k, X.restrict[u](x))
        restrict[u] = FinFunction(at[d], at[c], table)
    total = Presheaf(T, at, restrict)
    injections = [
        NatTrans(
            X,
            total,
            {c: FinFunction(X.at[c], at[c], {x: tag(k, x) for x in X.at[c]}) for c in idx.objects},
        )
        for k, X in enumerate(Xs)
    ]
    return total, injections


def yoneda_map(T: Topos, c: Element, Y: Presheaf, y: Element) -> NatTrans:
    """The map from the representable at c classifying y in Y(c)."""
    yc = yoneda(T, c)
    component = {
        d: FinFunction(
            yc.at[d], Y.at[d], {u: Y.restrict[u](y) for u in yc.at[d]}
        )
        for d in T.index.objects
    }
    return NatTrans(yc, Y, component)


def copair(total: Presheaf, injections, fs: list[NatTrans]) -> NatTrans:
    """The map out of a coproduct assembled from maps on the components."""
    T = total.topos
    cod = fs[0].cod
    component = {}
    for c in T.index.objects:
        table = {}
        for k, f in enumerate(fs):
            for x in f.dom.at[c]:
                table[injections[k].component[c](x)] = f.component[c](x)
        component[c] = FinFunction(total.at[c], cod.at[c], table)
    return NatTrans(total, cod, component)


def random_coproduct_presheaf(T: Topos, rng: random.Random, max_parts: int = 2):
    """A random finite coproduct of representables, with its part data."""
    objs = list(T.index.objects)
    parts = [rng.choice(objs) for _ in range(rng.randint(0, max_parts))]
    summands = [yoneda(T, c) for c in parts]
    if not summands:
        total, injections = coproduct([Presheaf(T, {c: FinSet(()) for c in T.index.objects}, {u: FinFunction(FinSet(()), FinSet(()), {}) for u in T.index.morphisms})])
        return total, injections, []
    total, injections = coproduct(summands)
    return total, injections, parts


def random_map_to(T: Topos, rng: random.Random, Y: Presheaf, max_parts: int = 2):
    """A random map X -> Y with X a coproduct of representables; maps out of
    representables are chosen by picking image elements."""
    while True:
        total, injections, parts = random_coproduct_presheaf(T, rng, max_parts)
        fs = []
        ok = True
        for c in parts:
            choices = list(Y.at[c])
            if not choices:
                ok = False
                break
            fs.append(yoneda_map(T, c, Y, rng.choice(choices)))
        if not ok:
            continue
        if not parts:
            empty = total
            component = {
                c: FinFunction(empty.at[c], Y.at[c], {}) for c in T.index.objects
            }
            return NatTrans(empty, Y, component)
        return copair(total, injections, fs)

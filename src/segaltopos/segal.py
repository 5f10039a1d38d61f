"""Truncated simplicial objects internal to a finite presheaf topos:
Segal and completeness checkers, objects of equivalences, mapping objects,
composition, final objects, and functor criteria.

The object of equivalences of the nerve of a category object C is the
sub-presheaf of C1 of isomorphisms (``isomorphisms``), which reads C
alone, as ``nerve_level_sizes`` counts the nerve's levels without building
them; the univalence verdict and the check-complete command use only
these two.  A category object is checked when built, through its
``rep`` when it has one.  ``nerve_truncation`` builds the nerve up to
level 3, its faces out of level 3 and degeneracies into levels 2 and 3
mediations into limits of composable chains, for ``segal_check``, the
check-segal command and the tests.  ``hoequiv`` is the paper's pullback
X1 x_Z(3) X3 along the invertibility stage Z(3), for any simplicial
object; it is the reference the tests compare ``isomorphisms`` with.

Conventions: level n is the object of n-chains; the source map is d(1,1)
and the target map is d(1,0); composable pairs are stored as
(f1, middle, f2) with the composite m(f1, f2) = "f2 after f1".
"""

from __future__ import annotations

from itertools import compress
from operator import eq, ne

from .elements import Atom, Element, FinFunction, LazyFinSet, Tup, pick
from .fincat import FiniteCategory, FrozenRecord, check_bound
from .topos import (
    DependentProduct,
    InternalCheckError,
    NatTrans,
    Presheaf,
    PsLimitCone,
    SliceMap,
    Topos,
    dependent_product,
    dependent_product_map,
    enumerate_nat_trans,
    finset_topos,
    is_iso,
    is_mono,
    nat_inverse,
    ps_limit,
    ps_product,
    ps_pullback,
    terminal,
    unique_to_terminal,
)


def wide_pullback(
    T: Topos, edges: list[Presheaf], vertices: list[Presheaf], maps: list[NatTrans]
) -> PsLimitCone:
    """Limit of edges[0] -> vertices[0] <- edges[1] -> vertices[1] <- ...;
    maps lists the arrows of the zigzag in order."""
    sets, links = [edges[0]], []
    for i, v in enumerate(vertices):
        sets += [v, edges[i + 1]]
        links += [("fix", maps[2 * i]), ("preimage", maps[2 * i + 1])]
    return ps_limit(T, sets, links)


# ---------------------------------------------------------------------------
# truncated simplicial objects


class TruncatedSimplicialObject(FrozenRecord):
    """Checked when it is built, so no consumer checks it again: each face
    and degeneracy natural, with the right endpoints, and the simplicial
    identities among them."""

    __slots__ = ("topos", "level", "face", "degen")

    def __init__(self, topos: Topos, level: dict, face: dict, degen: dict):
        setter = object.__setattr__
        setter(self, "topos", topos)
        setter(self, "level", level)  # n in 0..3 -> Presheaf
        setter(self, "face", face)  # (n, i) -> NatTrans level[n] -> level[n-1]
        setter(self, "degen", degen)  # (n, i) -> NatTrans level[n] -> level[n+1]
        problems = self.validate()
        if problems:
            raise ValueError("invalid simplicial object: " + "; ".join(problems))

    @property
    def source(self) -> NatTrans:
        return self.face[(1, 1)]

    @property
    def target(self) -> NatTrans:
        return self.face[(1, 0)]

    def validate(self) -> list[str]:
        """The problems of X as a truncated simplicial object."""
        report = []
        for n in range(4):
            if n not in self.level:
                report.append(f"missing level {n}")
        for n in range(1, 4):
            for i in range(n + 1):
                if (n, i) not in self.face:
                    report.append(f"missing face ({n},{i})")
        for n in range(3):
            for i in range(n + 1):
                if (n, i) not in self.degen:
                    report.append(f"missing degeneracy ({n},{i})")
        if report:
            return report
        for (n, i), f in self.face.items():
            if f.dom != self.level[n] or f.cod != self.level[n - 1]:
                report.append(f"face ({n},{i}) has wrong endpoints")
            report.extend(f"face ({n},{i}): {p}" for p in f.validate())
        for (n, i), f in self.degen.items():
            if f.dom != self.level[n] or f.cod != self.level[n + 1]:
                report.append(f"degeneracy ({n},{i}) has wrong endpoints")
            report.extend(f"degeneracy ({n},{i}): {p}" for p in f.validate())
        if report:
            return report
        d, s = self.face, self.degen
        for n in (2, 3):
            for j in range(n + 1):
                for i in range(j):
                    if d[(n, j)].then(d[(n - 1, i)]) != d[(n, i)].then(d[(n - 1, j - 1)]):
                        report.append(f"d{i} d{j} = d{j - 1} d{i} fails at level {n}")
        for n in (0, 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    if s[(n, j)].then(s[(n + 1, i)]) != s[(n, i)].then(s[(n + 1, j + 1)]):
                        report.append(f"s{i} s{j} = s{j + 1} s{i} fails at level {n}")
        for n in range(3):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = s[(n, j)].then(d[(n + 1, i)])
                    if i < j:
                        rhs = d[(n, i)].then(s[(n - 1, j - 1)])
                    elif i in (j, j + 1):
                        rhs = NatTrans.identity(self.level[n])
                    else:
                        rhs = d[(n, i - 1)].then(s[(n - 1, j)])
                    if lhs != rhs:
                        report.append(f"d{i} s{j} identity fails at level {n}")
        return report

    def spine_maps(self, n: int) -> list[NatTrans]:
        """The n edge maps level[n] -> level[1] picking out consecutive
        one-chains."""
        d = self.face
        if n == 1:
            return [NatTrans.identity(self.level[1])]
        if n == 2:
            return [d[(2, 2)], d[(2, 0)]]
        if n == 3:
            return [
                d[(3, 3)].then(d[(2, 2)]),
                d[(3, 3)].then(d[(2, 0)]),
                d[(3, 0)].then(d[(2, 0)]),
            ]
        raise ValueError("spine only defined for levels 1..3")

    def vertex_maps(self, n: int) -> list[NatTrans]:
        """The n+1 maps level[n] -> level[0] picking out vertices."""
        if n == 0:
            return [NatTrans.identity(self.level[0])]
        edges = self.spine_maps(n)
        out = [edges[0].then(self.source)]
        out.extend(e.then(self.target) for e in edges)
        return out


def constant_singleton_simplicial(T: Topos) -> TruncatedSimplicialObject:
    one = terminal(T)
    ident = NatTrans.identity(one)
    return TruncatedSimplicialObject(
        T,
        {n: one for n in range(4)},
        {(n, i): ident for n in range(1, 4) for i in range(n + 1)},
        {(n, i): ident for n in range(3) for i in range(n + 1)},
    )


# ---------------------------------------------------------------------------
# category objects and nerves


class CategoryObjectError(ValueError):
    """A category object failed validate_category_object."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid category object: " + "; ".join(problems))
        self.problems = problems


class CategoryObject(FrozenRecord):
    """Checked against the category laws when it is built, so no consumer
    checks it again.  ``rep``, if set, is a faithful representation {c: rep f
    for f in C1(c)}: rep f is a tuple mapping range(n(s f)) to range(n(t f)),
    for n(x) the length of rep e(x)."""

    __slots__ = ("topos", "C0", "C1", "s", "t", "e", "composable", "m", "rep")

    def __init__(
        self,
        topos: Topos,
        C0: Presheaf,
        C1: Presheaf,
        s: NatTrans,
        t: NatTrans,
        e: NatTrans,
        composable: PsLimitCone,
        m: NatTrans,
        rep: dict | None = None,
    ):
        setter = object.__setattr__
        setter(self, "topos", topos)
        setter(self, "C0", C0)
        setter(self, "C1", C1)
        setter(self, "s", s)
        setter(self, "t", t)
        setter(self, "e", e)
        setter(self, "composable", composable)  # C1 x_{C0} C1, elements (f1, middle, f2)
        setter(self, "m", m)  # composable.apex -> C1, "second after first"
        setter(self, "rep", rep)
        problems = validate_category_object(self)
        if problems:
            raise CategoryObjectError(problems)


def composable_pairs(T: Topos, C0, C1, s, t, n: int) -> PsLimitCone:
    """The chains of n composable arrows, C1 ->t C0 <-s C1 ->t ... <-s C1;
    a chain (f1, x1, f2, ...) is given by its arrows f1, f2, ..."""
    return wide_pullback(T, [C1] * n, [C0] * (n - 1), [t, s] * (n - 1))


def validate_category_object(C: CategoryObject) -> list[str]:
    """Naturality and the endpoint laws, then at each stage within the
    bound on triples the unit and associativity laws: through ``C.rep``
    when it is set, else arrow by arrow and row by row."""
    report = []
    for name, f in (("s", C.s), ("t", C.t), ("e", C.e), ("m", C.m)):
        report.extend(f"{name}: {p}" for p in f.validate())
    if report:
        return report
    ident0 = NatTrans.identity(C.C0)
    if C.e.then(C.s) != ident0:
        report.append("s after e is not the identity")
    if C.e.then(C.t) != ident0:
        report.append("t after e is not the identity")
    pr1 = C.composable.legs[0]
    pr2 = C.composable.legs[2]
    if C.m.then(C.s) != pr1.then(C.s):
        report.append("source of a composite differs from source of the first factor")
    if C.m.then(C.t) != pr2.then(C.t):
        report.append("target of a composite differs from target of the second factor")
    if report:
        # The unit and associativity laws below form chains that are
        # composable only when these endpoint laws hold.
        return report
    for c in C.topos.index.objects:
        check_bound(composable_triples(C, c), C.topos.bound, "associativity")
        m = C.m.component[c].idx
        e, src, tgt = C.e.component[c].idx, C.s.component[c].idx, C.t.component[c].idx
        arrows = C.C1.at[c]  # its labels are read only to report a failure
        f1s, f2s = pr1.component[c].idx, pr2.component[c].idx  # of pairs (f1, x, f2), x = t f1 = s f2
        if C.rep is not None:
            report.extend(_representation_problems(c, arrows, C.rep[c], src, tgt, e, f1s, f2s, m))
            continue
        comp = dict(zip(zip(f1s, f2s), m))  # (f1, f2) -> the position of m(f1, f2)
        by_source = {}
        local = []  # local[f]: the place of f among the arrows from src f
        for f in range(len(arrows)):
            local.append(len(by_source.setdefault(src[f], [])))
            by_source[src[f]].append(f)
            if comp[(e[src[f]], f)] != f:
                report.append(f"left unit law fails at {c!r} on {arrows.elements[f]!r}")
            if comp[(f, e[tgt[f]])] != f:
                report.append(f"right unit law fails at {c!r} on {arrows.elements[f]!r}")
        # after[f]: the composites of f with each arrow h from tgt f, "h
        # after f", in the order of by_source.  For a pair (f1, f2) with
        # composite g, the triples (f1, f2, f3) run over the arrows f3 from
        # tgt g = tgt f2, and associativity is one comparison of rows:
        # after[g] against (f3 after f2) after f1, looked up in after[f1]
        # at the place of f3 after f2, which starts at tgt f1.
        after = [
            tuple([comp[(f, h)] for h in by_source.get(tgt[f], ())]) for f in range(len(arrows))
        ]
        for (f1, f2), g in comp.items():
            lhs, rhs = after[g], pick(after[f1], pick(local, after[f2]))
            if lhs != rhs:
                for f3, a, b in zip(by_source[tgt[f2]], lhs, rhs):
                    if a != b:
                        report.append(
                            f"associativity fails at {c!r} on "
                            f"({arrows.elements[f1]!r},{arrows.elements[f2]!r},{arrows.elements[f3]!r})"
                        )
    return report


def _representation_problems(c, arrows, rep, src, tgt, e, f1s, f2s, m) -> list[str]:
    """The laws at stage c through rep (see ``CategoryObject``): rep e(x) is
    the identity, f -> (s f, t f, rep f) injective and rep m(f1, f2) = pick(rep
    f2, rep f1), function composition, so both sides of each law agree."""
    n = [len(rep[x]) for x in e]
    report = []
    for b, x in enumerate(e):
        if rep[x] != tuple(range(n[b])):
            report.append(f"unit law fails to follow at {c!r}: rep of {arrows.elements[x]!r} is not the identity")
    bad = [f for f, r in enumerate(rep) if len(r) != n[src[f]] or not set(r).issubset(range(n[tgt[f]]))]
    if bad:  # pick would read past the end of a rep
        return report + [f"rep at {c!r} of {arrows.elements[f]!r} is not a map between its ends" for f in bad]
    first = {}
    for f, ends in enumerate(zip(src, tgt, rep)):
        if first.setdefault(ends, f) != f:
            report.append(f"rep is not faithful at {c!r}: {arrows.elements[first[ends]]!r} and {arrows.elements[f]!r}")
    composed = map(pick, pick(rep, f2s), pick(rep, f1s))  # lazy: a rep has a place per key
    for f1, f2 in compress(zip(f1s, f2s), map(ne, composed, pick(rep, m))):
        pair = f"({arrows.elements[f1]!r},{arrows.elements[f2]!r})"
        report.append(f"composition fails at {c!r} on {pair}: its rep is not rep f2 after rep f1")
    return report


def composable_triples(C: CategoryObject, c) -> int:
    """The number of chains of three composable arrows of C at c, which is
    |X3(c)| for the nerve of C, without listing them: a composable pair
    (f1, f2) extends by each arrow out of t f2."""
    out = [0] * len(C.C0.at[c])
    for x in C.s.component[c].idx:
        out[x] += 1
    return sum(pick(out, pick(C.t.component[c].idx, C.composable.legs[2].component[c].idx)))


def nerve_level_sizes(C: CategoryObject) -> dict:
    """n -> the total size of level n of the nerve of C, for n in 0..3, the
    sizes ``nerve_truncation`` builds; level 3 is counted, not built."""
    return {
        0: C.C0.total_size(),
        1: C.C1.total_size(),
        2: C.composable.apex.total_size(),
        3: sum(composable_triples(C, c) for c in C.topos.index.objects),
    }


def category_object_from_finite_category(C: FiniteCategory) -> CategoryObject:
    """A finite category as a category object in the topos of finite sets."""
    T = finset_topos()
    star = Atom("*")
    obj0 = Presheaf(T, {star: C.objects}, {T.index.id_of(star): FinFunction.identity(C.objects)})
    obj1 = Presheaf(T, {star: C.morphisms}, {T.index.id_of(star): FinFunction.identity(C.morphisms)})
    s = NatTrans(obj1, obj0, {star: C.src})
    t = NatTrans(obj1, obj0, {star: C.tgt})
    e = NatTrans(obj0, obj1, {star: C.identity})
    cone = composable_pairs(T, obj0, obj1, s, t, 2)
    table = {p: C.comp[(p[2], p[0])] for p in cone.apex.at[star]}
    m = NatTrans(cone.apex, obj1, {star: FinFunction(cone.apex.at[star], C.morphisms, table)})
    return CategoryObject(T, obj0, obj1, s, t, e, cone, m)


def nerve_truncation(C: CategoryObject) -> TruncatedSimplicialObject:
    """The nerve of C up to level 3.  Levels 2 and 3 are the limits of the
    chains of two and three composable arrows.  Each degeneracy into
    level 2 or 3 and each face out of level 3 is the mediating map into
    one of these limits: a triple (f1, f2, f3) has the faces (f2, f3),
    (m(f1, f2), f3), (f1, m(f2, f3)) and (f1, f2)."""
    T = C.topos
    X2cone = C.composable
    X3cone = composable_pairs(T, C.C0, C.C1, C.s, C.t, 3)
    X = {0: C.C0, 1: C.C1, 2: X2cone.apex, 3: X3cone.apex}
    x2, x3 = X2cone.legs, X3cone.legs  # (f1, middle, f2), (f1, ., f2, ., f3)
    ident1 = NatTrans.identity(C.C1)
    e_of_s, e_of_t = C.s.then(C.e), C.t.then(C.e)
    d30 = X2cone.mediate(X[3], [x3[2], x3[4]])
    d33 = X2cone.mediate(X[3], [x3[0], x3[2]])
    face = {
        (1, 0): C.t,
        (1, 1): C.s,
        (2, 0): x2[2],
        (2, 1): C.m,
        (2, 2): x2[0],
        (3, 0): d30,
        (3, 1): X2cone.mediate(X[3], [d33.then(C.m), x3[4]]),
        (3, 2): X2cone.mediate(X[3], [x3[0], d30.then(C.m)]),
        (3, 3): d33,
    }
    degen = {
        (0, 0): C.e,
        (1, 0): X2cone.mediate(X[1], [e_of_s, ident1]),
        (1, 1): X2cone.mediate(X[1], [ident1, e_of_t]),
        (2, 0): X3cone.mediate(X[2], [x2[0].then(e_of_s), x2[0], x2[2]]),
        (2, 1): X3cone.mediate(X[2], [x2[0], x2[1].then(C.e), x2[2]]),
        (2, 2): X3cone.mediate(X[2], [x2[0], x2[2], x2[2].then(e_of_t)]),
    }
    return TruncatedSimplicialObject(T, X, face, degen)


# ---------------------------------------------------------------------------
# Segal condition


class SegalWitness:
    __slots__ = ("holds", "comparison", "cones")

    def __init__(self, holds: bool, comparison: dict, cones: dict):
        self.holds = holds
        self.comparison = comparison  # n -> NatTrans level[n] -> spine limit
        self.cones = cones  # n -> PsLimitCone


def _spine_cone(X: TruncatedSimplicialObject, n: int) -> PsLimitCone:
    return composable_pairs(X.topos, X.level[0], X.level[1], X.source, X.target, n)


def _spine_comparison(X, n, cone) -> NatTrans:
    return cone.mediate(X.level[n], X.spine_maps(n))


def segal_check(X: TruncatedSimplicialObject) -> SegalWitness:
    """The spine comparisons of X and whether they are all invertible."""
    comparison, cones = {}, {}
    holds = True
    for n in (2, 3):
        cone = _spine_cone(X, n)
        cmp_map = _spine_comparison(X, n, cone)
        cones[n] = cone
        comparison[n] = cmp_map
        holds = holds and is_iso(cmp_map)
    return SegalWitness(holds, comparison, cones)


def is_segal(X: TruncatedSimplicialObject) -> bool:
    return segal_check(X).holds


def to_category_object(X: TruncatedSimplicialObject) -> CategoryObject:
    """Recover (C0, C1, s, t, e, m) from a Segal simplicial object; m goes
    through the inverse of the two-chain comparison isomorphism."""
    w = segal_check(X)
    if not w.holds:
        raise ValueError("not a Segal object")
    cone = w.cones[2]
    m = nat_inverse(w.comparison[2]).then(X.face[(2, 1)])
    return CategoryObject(
        X.topos, X.level[0], X.level[1], X.source, X.target, X.degen[(0, 0)], cone, m
    )


# ---------------------------------------------------------------------------
# object of equivalences and completeness


class Z3Result:
    """The invertibility stage Z(3) and the maps into it from X1 and X3."""

    __slots__ = ("Z", "from_X1", "from_X3")

    def __init__(self, Z: Presheaf, from_X1: NatTrans, from_X3: NatTrans):
        self.Z = Z
        self.from_X1 = from_X1
        self.from_X3 = from_X3


def z3(X: TruncatedSimplicialObject) -> Z3Result:
    """The invertibility stage: the wide pullback of
    X1 ->t X0 <-t X1 ->s X0 <-s X1, receiving X1 via (s0 d0, id, s0 d1)
    and X3 via (d1 d3, d0 d3, d1 d0)."""
    s, t, d = X.source, X.target, X.face
    cone = wide_pullback(X.topos, [X.level[1]] * 3, [X.level[0]] * 2, [t, t, s, s])
    s0 = X.degen[(0, 0)]
    from_X1 = cone.mediate(X.level[1], [t.then(s0), NatTrans.identity(X.level[1]), s.then(s0)])
    from_X3 = cone.mediate(
        X.level[3],
        [d[(3, 3)].then(d[(2, 1)]), d[(3, 3)].then(d[(2, 0)]), d[(3, 0)].then(d[(2, 1)])],
    )
    return Z3Result(cone.apex, from_X1, from_X3)


class EquivalencesObject:
    """The object of equivalences with its projection U to X1, a mono,
    and the lift s0_lift of the degeneracy X0 -> X1 through it."""

    __slots__ = ("carrier", "U", "s0_lift")

    def __init__(self, carrier: Presheaf, U: NatTrans, s0_lift: NatTrans):
        self.carrier = carrier
        self.U = U  # carrier -> X1, mono
        self.s0_lift = s0_lift  # X0 -> carrier


def total_degeneracy(X: TruncatedSimplicialObject, n: int) -> NatTrans:
    """The unique degeneracy X0 -> level[n] made of identity chains."""
    out = NatTrans.identity(X.level[0])
    for k in range(n):
        out = out.then(X.degen[(k, 0)])
    return out


def isomorphisms(C: CategoryObject) -> EquivalencesObject:
    """The sub-presheaf of C1 of the arrows with a two-sided inverse, from
    one pass over the composable pairs at each stage: a pair (g, h) whose
    composite m(g, h) is the identity on s g makes g a section of h and h a
    retraction of g, and an arrow with both is an isomorphism.  Restriction
    preserves m and e, so C1's restrictions stay inside; each is checked."""
    T, C1 = C.topos, C.C1
    at, place, U, lift = {}, {}, {}, {}
    for c in T.index.objects:
        g, h = C.composable.legs[0].component[c].idx, C.composable.legs[2].component[c].idx
        e = C.e.component[c].idx
        unit = tuple(list(map(eq, C.m.component[c].idx, pick(e, pick(C.s.component[c].idx, g)))))
        isos = tuple(sorted(set(compress(h, unit)) & set(compress(g, unit))))
        A = C1.at[c]
        at[c] = LazyFinSet(len(isos), lambda A=A, isos=isos: pick(A.elements, isos))
        place[c] = dict(zip(isos, range(len(isos))))
        U[c] = FinFunction.from_idx(at[c], A, isos)
        lift[c] = FinFunction.from_idx(C.C0.at[c], at[c], pick(place[c], e))
    restrict = {}
    for w in T.index.morphisms:
        c, d = T.index.src(w), T.index.tgt(w)
        image = tuple(list(map(place[c].get, pick(C1.restrict[w].idx, U[d].idx))))
        if None in image:
            raise InternalCheckError("a restriction leaves the object of equivalences")
        restrict[w] = FinFunction.from_idx(at[d], at[c], image)
    carrier = Presheaf(T, at, restrict)
    return EquivalencesObject(carrier, NatTrans(carrier, C1, U), NatTrans(C.C0, carrier, lift))


def hoequiv(X: TruncatedSimplicialObject) -> EquivalencesObject:
    """The object of equivalences as the paper defines it: the pullback
    Eq = X1 x_Z(3) X3 of the maps into the invertibility stage, whose
    projection U to X1 is checked mono, with the lift of the degeneracy
    X0 -> X1 through it given by (s0, X0 -> X3).  On the nerve of a
    category object C it agrees with ``isomorphisms(C)``, which the tests
    check; the verdicts use ``isomorphisms``."""
    z = z3(X)
    cone = ps_pullback(z.from_X1, z.from_X3)
    s0_lift = cone.mediate(X.level[0], [X.degen[(0, 0)], total_degeneracy(X, 3)])
    if not is_mono(cone.legs[0]):
        raise InternalCheckError("projection from the object of equivalences is not mono")
    return EquivalencesObject(cone.apex, cone.legs[0], s0_lift)


def is_complete(X: TruncatedSimplicialObject) -> bool:
    """Whether every internal equivalence is an identity: the degeneracy
    X0 -> Eq into the paper's object of equivalences (``hoequiv``) is iso.
    A reference for the tests; check-complete reads ``isomorphisms``."""
    return is_iso(hoequiv(X).s0_lift)


def is_hoequiv_morphism(X: TruncatedSimplicialObject, f: NatTrans) -> bool:
    """Whether f: D -> X1 factors through the object of equivalences."""
    if f.cod != X.level[1]:
        raise ValueError("the map does not land in level 1")
    eq = hoequiv(X)
    for c, func in f.component.items():
        image = set(eq.U.component[c].idx)
        if any(v not in image for v in func.idx):
            return False
    return True


# ---------------------------------------------------------------------------
# mapping objects and composition


class MappingObject:
    __slots__ = ("obj", "pi", "pulled", "cone", "X", "n", "factors", "split")

    def __init__(
        self,
        obj: Presheaf,
        pi: DependentProduct,
        pulled: SliceMap,
        cone: PsLimitCone,
        X: TruncatedSimplicialObject,
        n: int,
        factors: list,
        split: NatTrans | None,
    ):
        self.obj = obj  # the mapping object itself (over the terminal)
        self.pi = pi  # dependent product over the terminal; pi.total == obj
        self.pulled = pulled  # (x0..xn)^* level[n] over the context D
        self.cone = cone  # the pullback defining pulled
        self.X = X
        self.n = n
        self.factors = factors  # the n consecutive binary mapping objects, for n >= 2
        self.split = split  # obj -> the product of the factors' objects, iso


def _pulled_level(X, D, points, n):
    """Pullback of level[n] along (x0..xn): D -> X0^(n+1)."""
    prod = ps_product([X.level[0]] * (n + 1))
    vertex = prod.mediate(X.level[n], X.vertex_maps(n))
    pts = prod.mediate(D, points)
    cone = ps_pullback(vertex, pts)
    return cone, SliceMap(cone.apex, D, cone.legs[2])


def mapping_object(X: TruncatedSimplicialObject, D: Presheaf, points: list) -> MappingObject:
    """map(x0, .., xn) over the context D.  For n >= 2 it comes with its
    binary factors map(x_k, x_k+1) and the split into them, checked iso."""
    n = len(points) - 1
    if not 1 <= n <= 3:
        raise ValueError("mapping objects take 2..4 points")
    cone, pulled = _pulled_level(X, D, points, n)
    pi = dependent_product(unique_to_terminal(D), pulled)
    out = MappingObject(pi.total, pi, pulled, cone, X, n, [], None)
    if n >= 2:
        out.factors = [mapping_object(X, D, points[k : k + 2]) for k in range(n)]
        out.split = binary_decomposition(out, out.factors)
        if not is_iso(out.split):
            raise InternalCheckError("mapping object does not split into binary factors")
    return out


def _edge_slice_map(src: MappingObject, k: int, binary: MappingObject) -> NatTrans:
    """Slice morphism over D induced by the k-th spine edge."""
    edge = src.cone.legs[0].then(src.X.spine_maps(src.n)[k])
    return binary.cone.mediate(src.cone.apex, [edge, src.pulled.proj])


def binary_decomposition(src: MappingObject, factors: list) -> NatTrans:
    """The canonical map from an n-ary mapping object to the product of its
    consecutive binary mapping objects."""
    comps = [
        dependent_product_map(src.pi, b.pi, _edge_slice_map(src, k, b))
        for k, b in enumerate(factors)
    ]
    prod = ps_product([b.obj for b in factors])
    return prod.mediate(src.obj, comps)


def identity_morphism(X: TruncatedSimplicialObject, D: Presheaf, x: NatTrans) -> NatTrans:
    """The global element of map(x, x) given by the degeneracy at x: the
    section sending each key (u: d -> c, a in D(d)) to sigma(a)."""
    mp = mapping_object(X, D, [x, x])
    sigma = mp.cone.mediate(D, [x.then(X.degen[(0, 0)]), NatTrans.identity(D)])
    idx = X.topos.index
    one = terminal(X.topos)
    component = {}
    for c in idx.objects:
        values = tuple([sigma.component[d].idx[a] for _, d, a in mp.pi.fans[(c, 0)]])
        component[c] = FinFunction.from_idx(one.at[c], mp.obj.at[c], (mp.pi.locate(c, 0, values),))
    return NatTrans(one, mp.obj, component)


class CompositionData:
    __slots__ = ("map_xy", "map_yz", "split_inverse", "to_xz")

    def __init__(
        self,
        map_xy: MappingObject,
        map_yz: MappingObject,
        split_inverse: NatTrans,
        to_xz: NatTrans,
    ):
        self.map_xy = map_xy
        self.map_yz = map_yz
        self.split_inverse = split_inverse  # of the split of map(x, y, z)
        self.to_xz = to_xz  # map(x, y, z) -> map(x, z), via the inner face


def composition_data(X, D, x, y, z) -> CompositionData:
    ternary = mapping_object(X, D, [x, y, z])
    map_xy, map_yz = ternary.factors
    map_xz = mapping_object(X, D, [x, z])
    # the inner face sends a two-chain to its composite one-chain
    inner = ternary.cone.legs[0].then(X.face[(2, 1)])
    h = map_xz.cone.mediate(ternary.cone.apex, [inner, ternary.pulled.proj])
    to_xz = dependent_product_map(ternary.pi, map_xz.pi, h)
    return CompositionData(map_xy, map_yz, nat_inverse(ternary.split), to_xz)


def compose(data: CompositionData, c: Element, f: Element, g: Element) -> Element:
    """Composite of f in map(x,y) and g in map(y,z) at index object c:
    invert the chain splitting, then take the inner face."""
    pair = Tup((f, g))
    chain = data.split_inverse.component[c](pair)
    return data.to_xz.component[c](chain)


def hoequiv_object(X, D, x, y):
    """The object of equivalences between two points, with its mono
    comparison into the mapping object."""
    eq = hoequiv(X)
    prod2 = ps_product([X.level[0]] * 2)
    st = prod2.mediate(eq.carrier, [eq.U.then(X.source), eq.U.then(X.target)])
    pts = prod2.mediate(D, [x, y])
    cone = ps_pullback(st, pts)
    pulled = SliceMap(cone.apex, D, cone.legs[2])
    pi = dependent_product(unique_to_terminal(D), pulled)
    mp = mapping_object(X, D, [x, y])
    h = mp.cone.mediate(cone.apex, [cone.legs[0].then(eq.U), pulled.proj])
    comparison = dependent_product_map(pi, mp.pi, h)
    if not is_mono(comparison):
        raise InternalCheckError("equivalence object does not embed into the mapping object")
    return pi.total, comparison


# ---------------------------------------------------------------------------
# final objects


def is_final_object(X: TruncatedSimplicialObject, f: NatTrans) -> bool:
    """f: terminal -> X0 is final when the object of arrows into f projects
    isomorphically to X0 by the source."""
    prod2 = ps_product([X.level[0]] * 2)
    st = prod2.mediate(X.level[1], [X.source, X.target])
    idf = prod2.mediate(
        X.level[0], [NatTrans.identity(X.level[0]), unique_to_terminal(X.level[0]).then(f)]
    )
    cone = ps_pullback(st, idf)
    return is_iso(cone.legs[2])


# ---------------------------------------------------------------------------
# maps of Segal objects


class SegalMap:
    __slots__ = ("dom", "cod", "component")

    def __init__(self, dom: TruncatedSimplicialObject, cod: TruncatedSimplicialObject, component: dict):
        self.dom = dom
        self.cod = cod
        self.component = component  # level n -> NatTrans dom.level[n] -> cod.level[n]

    def validate(self) -> list[str]:
        report = []
        for n in range(4):
            f = self.component.get(n)
            if f is None:
                report.append(f"missing level {n} component")
            else:
                report.extend(f"level {n}: {p}" for p in f.validate())
        if report:
            return report
        for (n, i), d in self.dom.face.items():
            if d.then(self.component[n - 1]) != self.component[n].then(self.cod.face[(n, i)]):
                report.append(f"does not commute with face ({n},{i})")
        for (n, i), s in self.dom.degen.items():
            if s.then(self.component[n + 1]) != self.component[n].then(self.cod.degen[(n, i)]):
                report.append(f"does not commute with degeneracy ({n},{i})")
        return report

    @staticmethod
    def identity(X: TruncatedSimplicialObject) -> "SegalMap":
        return SegalMap(X, X, {n: NatTrans.identity(X.level[n]) for n in range(4)})


def segal_map_from_nerves(F0: NatTrans, F1: NatTrans, W, V) -> SegalMap:
    """Extend object/morphism components to a full map of nerve truncations."""
    comps = {0: F0, 1: F1}
    for n in (2, 3):
        cone = _spine_cone(V, n)
        cmp_v = _spine_comparison(V, n, cone)
        edges = [e.then(F1) for e in W.spine_maps(n)]
        comps[n] = cone.mediate(W.level[n], edges).then(nat_inverse(cmp_v))
    out = SegalMap(W, V, comps)
    problems = out.validate()
    if problems:
        raise InternalCheckError("induced map is not simplicial: " + problems[0])
    return out


def is_fully_faithful(F: SegalMap) -> bool:
    W, V = F.dom, F.cod
    prod_v = ps_product([V.level[0]] * 2)
    st_v = prod_v.mediate(V.level[1], [V.source, V.target])
    prod_w = ps_product([W.level[0]] * 2)
    f00 = prod_v.mediate(prod_w.apex, [leg.then(F.component[0]) for leg in prod_w.legs])
    cone = ps_pullback(st_v, f00)
    st_w = prod_w.mediate(W.level[1], [W.source, W.target])
    comparison = cone.mediate(W.level[1], [F.component[1], st_w])
    return is_iso(comparison)


def is_essentially_surjective(F: SegalMap) -> bool:
    """Every point of the codomain receives an equivalence from the image,
    naturally: the source-of-equivalence evaluation admits a section."""
    V = F.cod
    eq = hoequiv(V)
    cone = ps_pullback(F.component[0], eq.U.then(V.source))
    to_v0 = cone.legs[2].then(eq.U).then(V.target)
    ident = NatTrans.identity(V.level[0])
    for _ in enumerate_nat_trans(V.level[0], cone.apex, over=(ident, to_v0)):
        return True
    return False

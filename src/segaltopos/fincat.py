"""Finite categories presented by tables, diagrams over them, and limits."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .elements import Atom, Element, FinFunction, FinSet, RowSet, Tup

DEFAULT_BOUND = 10**6


class ResourceBoundError(RuntimeError):
    """Raised when an intermediate set would exceed the configured bound;
    ``stage`` names the computation that would have built it."""

    def __init__(self, size, bound, stage):
        super().__init__(f"intermediate size {size} exceeds bound {bound}")
        self.size = size
        self.bound = bound
        self.stage = stage


def check_bound(size: int, bound: int, stage: str):
    if size > bound:
        raise ResourceBoundError(size, bound, stage)


@dataclass(frozen=True)
class FiniteCategory:
    """A category given by explicit object/morphism tables.

    comp maps (g, f) to g∘f and is defined exactly on composable pairs
    (tgt(f) = src(g)); validation is a separate pass.
    """

    objects: FinSet
    morphisms: FinSet
    src: FinFunction
    tgt: FinFunction
    identity: FinFunction
    comp: dict = field(compare=False)

    def id_of(self, x: Element) -> Element:
        return self.identity(x)

    def compose(self, g: Element, f: Element) -> Element:
        """g after f."""
        return self.comp[(g, f)]

    def is_identity(self, m: Element) -> bool:
        return self.identity(self.src(m)) == m

    def hom(self, x: Element, y: Element):
        return [m for m in self.morphisms if self.src(m) == x and self.tgt(m) == y]

    def morphisms_into(self, y: Element):
        return [m for m in self.morphisms if self.tgt(m) == y]


def validate_category(C: FiniteCategory) -> list[str]:
    """Brute-force check of all category axioms; returns the violations."""
    report = []
    if C.src.dom != C.morphisms or C.src.cod != C.objects:
        report.append("src is not a function morphisms -> objects")
    if C.tgt.dom != C.morphisms or C.tgt.cod != C.objects:
        report.append("tgt is not a function morphisms -> objects")
    if C.identity.dom != C.objects or C.identity.cod != C.morphisms:
        report.append("identity is not a function objects -> morphisms")
    if report:
        return report
    for x in C.objects:
        e = C.identity(x)
        if C.src(e) != x or C.tgt(e) != x:
            report.append(f"identity of {x!r} has wrong endpoints")
    composable = {
        (g, f)
        for g in C.morphisms
        for f in C.morphisms
        if C.tgt(f) == C.src(g)
    }
    if set(C.comp) != composable:
        missing = composable - set(C.comp)
        extra = set(C.comp) - composable
        if missing:
            report.append(f"comp undefined on {len(missing)} composable pairs, e.g. {sorted(missing)[0]!r}")
        if extra:
            report.append(f"comp defined on {len(extra)} non-composable pairs")
        return report
    for (g, f), h in C.comp.items():
        if h not in C.morphisms:
            report.append(f"comp({g!r},{f!r}) not a morphism")
        elif C.src(h) != C.src(f) or C.tgt(h) != C.tgt(g):
            report.append(f"comp({g!r},{f!r}) has wrong endpoints")
    if report:
        # The unit and associativity laws look up composites that exist
        # only when identities and composites have the right endpoints.
        return report
    for f in C.morphisms:
        if C.comp[(f, C.identity(C.src(f)))] != f:
            report.append(f"right unit law fails for {f!r}")
        if C.comp[(C.identity(C.tgt(f)), f)] != f:
            report.append(f"left unit law fails for {f!r}")
    for (g, f) in composable:
        for h in C.morphisms:
            if C.tgt(g) != C.src(h):
                continue
            if C.comp[(h, C.comp[(g, f)])] != C.comp[(C.comp[(h, g)], f)]:
                report.append(f"associativity fails on ({h!r},{g!r},{f!r})")
    return report


# ---------------------------------------------------------------------------
# builders for common index and shape categories


def _close_identities(objects, arrows):
    """arrows: dict name -> (src_obj, tgt_obj) with no composable non-identity pairs."""
    objs = FinSet(objects)
    id_names = {o: Tup((Atom("id"), o)) for o in objs}
    mor_elems = list(id_names.values()) + [Atom(n) for n in arrows]
    mors = FinSet(mor_elems)
    src = {id_names[o]: o for o in objs}
    tgt = {id_names[o]: o for o in objs}
    for n, (a, b) in arrows.items():
        src[Atom(n)] = a
        tgt[Atom(n)] = b
    srcf = FinFunction(mors, objs, src)
    tgtf = FinFunction(mors, objs, tgt)
    idf = FinFunction(objs, mors, {o: id_names[o] for o in objs})
    comp = {}
    for g in mors:
        for f in mors:
            if tgtf(f) != srcf(g):
                continue
            if f in id_names.values() or idf(srcf(f)) == f:
                comp[(g, f)] = g
            elif idf(srcf(g)) == g:
                comp[(g, f)] = f
            else:
                raise ValueError("composable non-identity arrows not supported here")
    return FiniteCategory(objs, mors, srcf, tgtf, idf, comp)


def terminal_category() -> FiniteCategory:
    return _close_identities([Atom("*")], {})


def discrete_category(names) -> FiniteCategory:
    return _close_identities([Atom(n) for n in names], {})


def zigzag_shape(num_edges: int) -> FiniteCategory:
    """The wide-pullback shape: edge objects o0,o2,... and shared vertex
    objects o1,o3,... with one arrow from each edge to each adjacent vertex.

    Arrow a{2k} goes from edge o{2k} to vertex o{2k+1}; arrow a{2k+1} goes
    from edge o{2k+2} back to vertex o{2k+1}.
    """
    if num_edges < 1 or 2 * num_edges - 1 > 9:
        raise ValueError("zigzag_shape supports 1..5 edges")
    objects = [Atom(f"o{i}") for i in range(2 * num_edges - 1)]
    arrows = {}
    for k in range(num_edges - 1):
        arrows[f"a{2 * k}"] = (Atom(f"o{2 * k}"), Atom(f"o{2 * k + 1}"))
        arrows[f"a{2 * k + 1}"] = (Atom(f"o{2 * k + 2}"), Atom(f"o{2 * k + 1}"))
    return _close_identities(objects, arrows)


def monoid_category(elements: list[str], unit: str, mult) -> FiniteCategory:
    """One-object category; mult(a, b) = 'a after b'."""
    obj = Atom("*")
    objs = FinSet([obj])
    mors = FinSet(Atom(e) for e in elements)
    src = FinFunction.constant(mors, objs, obj)
    idf = FinFunction(objs, mors, {obj: Atom(unit)})
    comp = {
        (Atom(a), Atom(b)): Atom(mult(a, b)) for a in elements for b in elements
    }
    return FiniteCategory(objs, mors, src, src, idf, comp)


def group_category(elements, unit, mult) -> FiniteCategory:
    return monoid_category(elements, unit, mult)


def poset_category(elements: list[str], leq) -> FiniteCategory:
    """Category of a finite poset; one morphism x -> y whenever leq(x, y)."""
    objs = FinSet(Atom(e) for e in elements)
    mor_list = [
        Tup((Atom(a), Atom(b)))
        for a in elements
        for b in elements
        if leq(a, b)
    ]
    mors = FinSet(mor_list)
    src = FinFunction(mors, objs, {m: m[0] for m in mors})
    tgt = FinFunction(mors, objs, {m: m[1] for m in mors})
    idf = FinFunction(objs, mors, {o: Tup((o, o)) for o in objs})
    comp = {}
    for g in mors:
        for f in mors:
            if f[1] == g[0]:
                comp[(g, f)] = Tup((f[0], g[1]))
    return FiniteCategory(objs, mors, src, tgt, idf, comp)


def arrow_category() -> FiniteCategory:
    """The walking arrow [1], used as the Sierpinski index."""
    return poset_category(["0", "1"], lambda a, b: a <= b)


# ---------------------------------------------------------------------------
# diagrams and limits


@dataclass
class Diagram:
    """A functor from a shape category to finite sets."""

    shape: FiniteCategory
    obj: dict
    mor: dict


def validate_diagram(d: Diagram) -> list[str]:
    report = []
    for o in d.shape.objects:
        if o not in d.obj:
            report.append(f"no set assigned to object {o!r}")
    for u in d.shape.morphisms:
        if u not in d.mor:
            report.append(f"no function assigned to morphism {u!r}")
    if report:
        return report
    for u in d.shape.morphisms:
        f = d.mor[u]
        if f.dom != d.obj[d.shape.src(u)] or f.cod != d.obj[d.shape.tgt(u)]:
            report.append(f"function for {u!r} has wrong endpoints")
    if report:
        return report
    for o in d.shape.objects:
        if d.mor[d.shape.id_of(o)] != FinFunction.identity(d.obj[o]):
            report.append(f"identity of {o!r} not sent to identity function")
    for (g, f), h in d.shape.comp.items():
        if d.mor[g].compose(d.mor[f]) != d.mor[h]:
            report.append(f"functoriality fails on ({g!r},{f!r})")
    return report


def _column(f: FinFunction, dom: FinSet, target: FinSet) -> tuple:
    """The values of f, a map dom -> target, as positions in target."""
    if f.dom != dom or f.cod != target:
        raise ValueError("cone leg has the wrong endpoints")
    return f.idx


@dataclass
class LimitCone:
    apex: RowSet
    legs: dict
    diagram: Diagram

    def mediate(self, dom: FinSet, cone: dict) -> FinFunction:
        """The unique map into the apex commuting with the given cone."""
        order = self.diagram.shape.objects.elements
        columns = [_column(cone[o], dom, self.diagram.obj[o]) for o in order]
        rows = zip(*columns) if columns else [()] * len(dom)
        where = self.apex.row_index
        idx = tuple(map(where.get, rows))
        if None in idx:
            x = dom.elements[idx.index(None)]
            raise ValueError(f"cone is not compatible at {x!r}")
        return FinFunction.from_idx(dom, self.apex, idx)


def _cone_over(rows: list, sets: list) -> tuple[RowSet, list]:
    """The apex with the given rows over the given sets, and its legs."""
    apex = RowSet(tuple(rows), tuple(sets))
    columns = list(zip(*rows)) if rows else [()] * len(sets)
    return apex, [FinFunction.from_idx(apex, s, col) for s, col in zip(sets, columns)]


def fin_product(sets, bound: int = DEFAULT_BOUND):
    """Product of a sequence of finite sets, with projections."""
    size = 1
    for s in sets:
        size *= len(s)
    check_bound(size, bound, "fin_product")
    return _cone_over(list(iproduct(*(range(len(s)) for s in sets))), list(sets))


def fin_limit(d: Diagram, bound: int = DEFAULT_BOUND) -> LimitCone:
    """Limit of a finite diagram of finite sets.

    Elements are tuples over the shape objects in canonical order, joined
    on positions slot by slot: each slot's candidates are filtered by its
    loop constraints once, a constraint into the slot fixes the candidate,
    one out of it looks the candidate up in a preimage index, and every
    other constraint whose endpoints are both assigned is checked on that
    short list.  Candidates are tried in position order, so the rows come
    out in lexicographic order, which is the canonical order of the apex.
    """
    problems = validate_diagram(d)
    if problems:
        raise ValueError("non-functorial diagram: " + "; ".join(problems))
    order = d.shape.objects.elements
    pos = {o: i for i, o in enumerate(order)}
    # constraints[(i, j)] with i <= j: list of (u, flip) meaning
    # mor[u] maps slot i to slot j (flip=False) or j to i (flip=True).
    constraints = {}
    for u in d.shape.morphisms:
        s, t = pos[d.shape.src(u)], pos[d.shape.tgt(u)]
        if s == t:
            continue
        i, j = min(s, t), max(s, t)
        constraints.setdefault((i, j), []).append((u, s > t))
    loop_constraints = [
        u
        for u in d.shape.morphisms
        if d.shape.src(u) == d.shape.tgt(u) and not d.shape.is_identity(u)
    ]

    partials = [()]
    for j, o in enumerate(order):
        loops = [d.mor[u].idx for u in loop_constraints if pos[d.shape.src(u)] == j]
        cands = range(len(d.obj[o]))
        if loops:
            cands = [x for x in cands if all(f[x] == x for f in loops)]
        # forward: mor maps slot i to slot j; backward: slot j to slot i
        forward, backward = [], []
        for (i, jj), us in constraints.items():
            if jj == j:
                for u, flip in us:
                    (backward if flip else forward).append((i, d.mor[u].idx))
        # The first constraint picks the candidates for a partial row from
        # its entry at slot i0: picks[position] lists them as 1-tuples, in
        # cands order.  The other constraints are checked on that list.
        if forward:
            i0, f0 = forward.pop(0)
            allowed = set(cands)
            picks = [((x,),) if x in allowed else () for x in f0]
        elif backward:
            i0, f0 = backward.pop(0)
            picks = [[] for _ in range(len(d.obj[order[i0]]))]
            for x in cands:
                picks[f0[x]].append((x,))
        else:
            i0, picks = None, [(x,) for x in cands]
        new = []
        for part in partials:
            tails = picks if i0 is None else picks[part[i0]]
            if forward or backward:
                tails = [
                    t
                    for t in tails
                    if all(f[part[i]] == t[0] for i, f in forward)
                    and all(f[t[0]] == part[i] for i, f in backward)
                ]
            new.extend([part + t for t in tails])
            check_bound(len(new), bound, "fin_limit")
        partials = new
    apex, legs = _cone_over(partials, [d.obj[o] for o in order])
    return LimitCone(apex, dict(zip(order, legs)), d)

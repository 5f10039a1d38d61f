"""Finite categories presented by tables, and limits of chains of finite sets."""

from __future__ import annotations

from dataclasses import dataclass, field

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
# builders for common index categories


def discrete_category(names) -> FiniteCategory:
    """Objects Atom(name) whose only arrows are the identities ("id", o)."""
    objs = FinSet(Atom(n) for n in names)
    ids = {o: Tup((Atom("id"), o)) for o in objs}
    mors = FinSet(ids.values())
    src = FinFunction(mors, objs, {m: o for o, m in ids.items()})
    idf = FinFunction(objs, mors, ids)
    return FiniteCategory(objs, mors, src, src, idf, {(m, m): m for m in mors})


def terminal_category() -> FiniteCategory:
    return discrete_category(["*"])


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
# limits of chains


def slot(i: int) -> Atom:
    """The key of the leg onto slot i of a chain limit."""
    return Atom(f"o{i}")


def _column(f: FinFunction, dom: FinSet, target: FinSet) -> tuple:
    """The values of f, a map dom -> target, as positions in target."""
    if f.dom != dom or f.cod != target:
        raise ValueError("cone leg has the wrong endpoints")
    return f.idx


@dataclass
class LimitCone:
    apex: RowSet
    legs: dict  # slot(i) -> the projection onto slot i

    def mediate(self, dom: FinSet, cone: dict) -> FinFunction:
        """The unique map into the apex commuting with the given cone."""
        columns = [_column(cone[o], dom, leg.cod) for o, leg in self.legs.items()]
        rows = zip(*columns) if columns else [()] * len(dom)
        where = self.apex.row_index
        idx = tuple(map(where.get, rows))
        if None in idx:
            x = dom.elements[idx.index(None)]
            raise ValueError(f"cone is not compatible at {x!r}")
        return FinFunction.from_idx(dom, self.apex, idx)


def fin_limit(sets: list, links: list, bound: int = DEFAULT_BOUND) -> LimitCone:
    """Limit of a chain of finite sets: the tuples over ``sets`` in which
    each entry after the first agrees with the one before it.

    ``links[j - 1]`` says how slot j depends on slot j - 1:

    - ``None``: it does not (slot j is a product factor);
    - ``("fix", f)`` with f: sets[j-1] -> sets[j]: the entry is f of the
      one before;
    - ``("preimage", f)`` with f: sets[j] -> sets[j-1]: the entry ranges
      over the preimage of the one before.

    Rows are joined on positions slot by slot, trying candidates in
    position order, so they come out in lexicographic order, which is the
    canonical order of the apex.
    """
    if len(links) != len(sets[1:]):
        raise ValueError("a chain needs one link per slot after the first")
    partials = [()]
    for j, (s, link) in enumerate(zip(sets, [None, *links])):
        # A free slot takes every entry; otherwise tails[p] lists the
        # entries, as 1-tuples, that may follow position p of slot j - 1.
        if link is None:
            every, tails = [(x,) for x in range(len(s))], None
        else:
            kind, f = link
            if kind == "fix" and (f.dom, f.cod) == (sets[j - 1], s):
                tails = [((y,),) for y in f.idx]
            elif kind == "preimage" and (f.dom, f.cod) == (s, sets[j - 1]):
                tails = [[] for _ in range(len(f.cod))]
                for x, y in enumerate(f.idx):
                    tails[y].append((x,))
            else:
                raise ValueError(f"the {kind} map at slot {j} has the wrong endpoints")
        new = []
        for part in partials:
            new.extend([part + t for t in (every if tails is None else tails[part[-1]])])
            check_bound(len(new), bound, "fin_limit")
        partials = new
    apex = RowSet(tuple(partials), tuple(sets))
    columns = list(zip(*partials)) if partials else [()] * len(sets)
    legs = {
        slot(i): FinFunction.from_idx(apex, s, col)
        for i, (s, col) in enumerate(zip(sets, columns))
    }
    return LimitCone(apex, legs)

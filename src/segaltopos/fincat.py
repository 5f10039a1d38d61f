"""Finite categories presented by tables, and limits of chains of finite sets."""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add

from .elements import STAR, Atom, Element, FinFunction, FinSet, Tup, fibers, pick

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


class FrozenRecord:
    """Base of the immutable records: ``__init__`` sets each attribute once
    through ``object.__setattr__``, and nothing may set or delete one after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FiniteCategory(FrozenRecord):
    """A category given by explicit object/morphism tables.

    comp maps (g, f) to g∘f and is defined exactly on composable pairs
    (tgt(f) = src(g)); validation is a separate pass.  Two categories are
    equal when their tables other than comp are.
    """

    __slots__ = ("objects", "morphisms", "src", "tgt", "identity", "comp")

    def __init__(
        self,
        objects: FinSet,
        morphisms: FinSet,
        src: FinFunction,
        tgt: FinFunction,
        identity: FinFunction,
        comp: dict,
    ):
        setter = object.__setattr__
        setter(self, "objects", objects)
        setter(self, "morphisms", morphisms)
        setter(self, "src", src)
        setter(self, "tgt", tgt)
        setter(self, "identity", identity)
        setter(self, "comp", comp)

    def _key(self) -> tuple:
        return (self.objects, self.morphisms, self.src, self.tgt, self.identity)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


class RowSet(FinSet):
    """The apex of a chain limit: the tuples over ``factors`` whose entries
    satisfy ``links`` (as in ``fin_limit``, with position tuples for maps),
    in lexicographic order.  That is the canonical order of their Tup
    labels, so the k-th tuple is element k.

    Building it only counts: ``counts[j][x]`` is the number of ways to
    complete a tuple from entry x at slot j on.  The size, the position of
    a tuple (the sum over its slots of ``offsets(j, ...)`` at its entries)
    and the columns follow from the counts.  The column of slot j, which
    lists the slot-j entries of all tuples in order, is built the first
    time it is asked for, as are the labels and their index.
    """

    __slots__ = (
        "factors", "links", "counts", "size", "_offsets", "_prefixes",
        "_columns", "__weakref__",
    )

    def __init__(self, factors: tuple, links: list):
        self.factors = factors
        self.links = links
        n = len(factors)
        counts = [None] * n
        if n:
            ways = counts[-1] = [1] * len(factors[-1])
            for j in range(n - 1, 0, -1):
                link = links[j - 1]
                if link is None:
                    ways = [sum(ways)] * len(factors[j - 1])
                elif link[0] == "fix":
                    ways = pick(ways, link[1])
                else:
                    before = [0] * len(factors[j - 1])
                    if j == n - 1:
                        # Every count at the last slot is 1, so the count
                        # of y is the size of its fiber.
                        for y in link[1]:
                            before[y] += 1
                    else:
                        for x, y in enumerate(link[1]):
                            before[y] += ways[x]
                    ways = before
                counts[j - 1] = ways
        self.counts = counts
        self.size = sum(counts[0]) if n else 1
        self._offsets = [None] * n
        self._prefixes = [range(len(factors[0]))] if n else []
        self._columns = [None] * n

    def __getattr__(self, name):
        # Called only while the slot `name` is still empty.
        if name == "elements":
            if self.factors:
                columns = [pick(f.elements, self.column(j)) for j, f in enumerate(self.factors)]
                self.elements = tuple(map(Tup, zip(*columns)))
            else:
                self.elements = (STAR,) * self.size
            return self.elements
        if name == "index":
            self.index = dict(zip(self.elements, range(self.size)))
            return self.index
        # rank returns the int objects of ``positions`` rather than fresh
        # sums, so that the maps into the set share them.
        return FinSet.__getattr__(self, name)

    def offsets(self, j: int, entries) -> tuple | None:
        """For each slot-j entry x in ``entries``: how many tuples agree
        with one whose slot-j entry is x before slot j and have a smaller
        entry there.  None at a fixed slot, where that is 0 for every x.

        At a product slot the candidates for x are all of the slot, and at
        a preimage slot the fiber x lies in; the table of every entry's
        offset is built on first use and kept."""
        link = self.links[j - 1] if j else None
        if link is not None and link[0] == "fix":
            return None
        known = self._offsets[j]
        if known is None:
            ways = self.counts[j]
            if link is None:
                known = tuple(list(accumulate(ways, initial=0)))
            else:
                run = [0] * len(self.factors[j - 1])
                table = []
                for x, y in enumerate(link[1]):
                    table.append(run[y])
                    run[y] += ways[x]
                known = tuple(table)
            self._offsets[j] = known
        return pick(known, entries)

    def _prefix(self, j: int):
        """The slot-j entries of the tuples over slots 0..j that satisfy the
        links among them, one per such tuple, in lexicographic order."""
        prefixes = self._prefixes
        while len(prefixes) <= j:
            k = len(prefixes)
            before, link = prefixes[-1], self.links[k - 1]
            if link is None:
                here = range(len(self.factors[k]))
                prefixes.append(tuple(list(chain.from_iterable(repeat(here, len(before))))))
            elif link[0] == "fix":
                prefixes.append(pick(link[1], before))
            else:
                over = fibers(link[1], len(self.factors[k - 1]))
                prefixes.append(tuple(list(chain.from_iterable(map(over.__getitem__, before)))))
        return prefixes[j]

    def column(self, j: int) -> tuple:
        """The slot-j entry of every tuple, in order: each prefix's last
        entry repeated once per completion."""
        col = self._columns[j]
        if col is None:
            here = self._prefix(j)
            if j == len(self.factors) - 1:
                col = tuple(here)  # a tuple already, unless j is 0
            else:
                col = tuple(list(chain.from_iterable(map(repeat, here, pick(self.counts[j], here)))))
            self._columns[j] = col
        return col

    def first_outside(self, columns: list):
        """The first k for which the k-th entries of ``columns``, one
        column per slot, break a link; None if none does."""
        bad = None
        for j, link in enumerate(self.links, start=1):
            if link is None:
                continue
            kind, f = link
            if kind == "fix":
                got, want = pick(f, columns[j - 1]), columns[j]
            else:
                got, want = pick(f, columns[j]), columns[j - 1]
            if got != want:
                k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
                bad = k if bad is None else min(bad, k)
        return bad

    def rank(self, columns: list, size: int) -> tuple:
        """The positions of the ``size`` tuples given by ``columns``, one
        column per slot; every link must hold on them."""
        if not columns:
            return (0,) * size
        total = None
        for j, col in enumerate(columns):
            part = self.offsets(j, col)
            if part is not None and (total is None or any(part)):
                total = part if total is None else list(map(add, total, part))
        return pick(self.positions, total)

    def __len__(self):
        return self.size

    def __repr__(self):
        # Counted, so it lists no label.
        sizes = ", ".join(str(len(f)) for f in self.factors)
        return f"RowSet({self.size} rows over factors of sizes ({sizes}))"


class _Projection(FinFunction):
    """The leg of a chain limit onto one slot: its values are the apex's
    column of that slot, read when they are first asked for."""

    __slots__ = ("slot",)

    def __init__(self, apex: RowSet, cod: FinSet, j: int):
        self.dom = apex
        self.cod = cod
        self.slot = j

    def __getattr__(self, name):
        # Called only while the slot `idx` is still empty.
        if name == "idx":
            self.idx = self.dom.column(self.slot)
            return self.idx
        raise AttributeError(name)


def _column(f: FinFunction, dom: FinSet, target: FinSet) -> tuple:
    """The values of f, a map dom -> target, as positions in target."""
    if f.dom != dom or f.cod != target:
        raise ValueError("cone leg has the wrong endpoints")
    return f.idx


class LimitCone:
    __slots__ = ("apex", "legs")

    def __init__(self, apex: RowSet, legs: tuple):
        self.apex = apex
        self.legs = legs  # legs[i]: the projection onto slot i

    def mediate(self, dom: FinSet, maps) -> FinFunction:
        """The unique map into the apex whose legs onto the slots that no
        link fixes are ``maps``, in slot order.  The leg onto a fixed slot
        is its link map after the leg onto the slot before."""
        apex = self.apex
        fixes = [None] * len(self.legs)  # the link map fixing each slot
        for j, link in enumerate(apex.links, start=1):
            if link is not None and link[0] == "fix":
                fixes[j] = link[1]
        unfixed = [j for j, fix in enumerate(fixes) if fix is None]
        if len(maps) != len(unfixed):
            raise ValueError(
                f"a cone into this limit takes {len(unfixed)} maps, not {len(maps)}"
            )
        given = iter([_column(f, dom, self.legs[j].cod) for j, f in zip(unfixed, maps)])
        columns = []
        for fix in fixes:
            columns.append(next(given) if fix is None else pick(fix, columns[-1]))
        bad = apex.first_outside(columns)
        if bad is not None:
            raise ValueError(f"cone is not compatible at {dom.elements[bad]!r}")
        return FinFunction.from_idx(dom, apex, apex.rank(columns, len(dom)))


def _partial_sizes(sets: list, links: list):
    """For each slot j, how many tuples over slots 0..j satisfy the links
    among them."""
    if not sets:
        return
    ways = [1] * len(sets[0])  # ways[x]: how many of them end in x
    yield len(ways)
    for s, link in zip(sets[1:], links):
        if link is None:
            ways = [sum(ways)] * len(s)
        elif link[0] == "fix":
            after = [0] * len(s)
            for y, z in enumerate(link[1]):
                after[z] += ways[y]
            ways = after
        else:
            ways = pick(ways, link[1])
        yield sum(ways)


def fin_limit(sets: list, links: list, bound: int = DEFAULT_BOUND) -> LimitCone:
    """Limit of a chain of finite sets: the tuples over ``sets`` in which
    each entry after the first agrees with the one before it.

    ``links[j - 1]`` says how slot j depends on slot j - 1:

    - ``None``: it does not (slot j is a product factor);
    - ``("fix", f)`` with f: sets[j-1] -> sets[j]: the entry is f of the
      one before;
    - ``("preimage", f)`` with f: sets[j] -> sets[j-1]: the entry ranges
      over the preimage of the one before.

    The tuples are counted, not listed: the bound is checked on the number
    of partial tuples at each slot, and the apex is a RowSet that lists
    its columns only when something asks for them.
    """
    if len(links) != len(sets[1:]):
        raise ValueError("a chain needs one link per slot after the first")
    positional = []
    for j, link in enumerate(links, start=1):
        if link is not None:
            kind, f = link
            if kind == "fix" and (f.dom, f.cod) == (sets[j - 1], sets[j]):
                link = (kind, f.idx)
            elif kind == "preimage" and (f.dom, f.cod) == (sets[j], sets[j - 1]):
                link = (kind, f.idx)
            else:
                raise ValueError(f"the {kind} map at slot {j} has the wrong endpoints")
        positional.append(link)
    for size in _partial_sizes(sets, positional):
        check_bound(size, bound, "fin_limit")
    apex = RowSet(tuple(sets), positional)
    return LimitCone(apex, tuple([_Projection(apex, s, i) for i, s in enumerate(sets)]))

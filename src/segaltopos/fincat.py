"""Finite categories presented by tables, and limits of chains of finite sets."""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import add, ne

from .elements import STAR, Atom, Element, FinFunction, FinSet, LazyFinSet, Tup, fibers, getter, pick

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
    (tgt(f) = src(g)); ``Topos`` checks its index with ``validate_category``.
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

    def id_of(self, x: Element) -> Element:
        return self.identity(x)

    def is_identity(self, m: Element) -> bool:
        return self.identity(self.src(m)) == m

    def hom(self, x: Element, y: Element):
        return [m for m in self.morphisms if self.src(m) == x and self.tgt(m) == y]

    def morphisms_into(self, y: Element):
        return [m for m in self.morphisms if self.tgt(m) == y]


def validate_category(C: FiniteCategory) -> list[str]:
    """The violations of the category axioms in positional order: the
    tables well formed, then ``category_problems`` on their positions."""
    report = []
    if C.src.dom != C.morphisms or C.src.cod != C.objects:
        report.append("src is not a function morphisms -> objects")
    if C.tgt.dom != C.morphisms or C.tgt.cod != C.objects:
        report.append("tgt is not a function morphisms -> objects")
    if C.identity.dom != C.objects or C.identity.cod != C.morphisms:
        report.append("identity is not a function objects -> morphisms")
    if report:
        return report
    arrows, src, tgt = C.morphisms.elements, C.src.idx, C.tgt.idx
    # the composable pairs (f1, f2), f1-major, and the keys of "f2 after f1" in comp
    out = fibers(src, len(C.objects))
    f1s = [f for f, y in enumerate(tgt) for _ in out[y]]
    f2s = [g for y in tgt for g in out[y]]
    keys = [(arrows[g], arrows[f]) for f, g in zip(f1s, f2s)]
    missing = [key for key in keys if key not in C.comp]
    extra = len(C.comp) - len(keys) + len(missing)
    if missing:
        report.append(f"comp undefined on {len(missing)} composable pairs, e.g. {min(missing)!r}")
    if extra:
        report.append(f"comp defined on {extra} non-composable pairs")
    if missing or extra:
        return report
    m = [C.morphisms.index.get(C.comp[key]) for key in keys]
    report += [f"comp({g!r},{f!r}) not a morphism" for (g, f), h in zip(keys, m) if h is None]
    if report:
        return report
    return category_problems("", C.objects, C.morphisms, None, src, tgt, C.identity.idx, f1s, f2s, m)


def join_problems(problems: list[str]) -> str:
    """The first five problems for an error line, and a count of the rest."""
    more = f"; and {len(problems) - 5} more" if len(problems) > 5 else ""
    return "; ".join(problems[:5]) + more


def cayley_representation(objects: int, src, tgt, f1s, f2s, m) -> tuple:
    """The Cayley representation (Mac Lane, CWM III.2): the places of x are
    the arrows into x, in order, and rep f sends the place of h to that of
    m(h, f); it passes ``category_problems`` exactly when m is lawful."""
    place, into = [], [0] * objects
    for x in tgt:
        place.append(into[x])
        into[x] += 1
    rep = [[None] * into[x] for x in src]  # a None left is a pair missing from the composables
    for h, f, g in zip(f1s, f2s, m):
        rep[f][place[h]] = place[g]
    return tuple(map(tuple, rep))


def category_problems(where, objects, arrows, rep, src, tgt, e, f1s, f2s, m) -> list[str]:
    """The category axioms on positions, each problem placed by ``where``
    and named by the labels of ``objects`` and ``arrows``.  First the ends:
    e(x) goes x -> x and m(f1, f2) goes s f1 -> t f2.  If they hold, the
    laws through rep, or the Cayley representation of m when rep is None:
    rep e(x) is the identity, f -> (s f, t f, rep f) injective and rep m(f1,
    f2) = pick(rep f2, rep f1), function composition, so each law holds."""
    report = [f"identity of {objects.elements[x]!r} has wrong endpoints{where}" for x, i in enumerate(e) if src[i] != x or tgt[i] != x]
    have, want = (pick(src, m), pick(tgt, m)), (pick(src, f1s), pick(tgt, f2s))
    if have != want:  # whole columns first, pair by pair only to name the failures
        for f1, f2 in compress(zip(f1s, f2s), map(ne, zip(*have), zip(*want))):
            report.append(f"comp({arrows.elements[f2]!r},{arrows.elements[f1]!r}) has wrong endpoints{where}")
    if report:  # the Cayley representation needs every end right
        return report
    if rep is None:
        rep = cayley_representation(len(objects), src, tgt, f1s, f2s, m)
    n = [len(rep[x]) for x in e]
    for b, x in enumerate(e):
        if rep[x] != tuple(range(n[b])):
            report.append(f"unit law fails to follow{where}: rep of {arrows.elements[x]!r} is not the identity")
    bad = [f for f, r in enumerate(rep) if len(r) != n[src[f]] or not set(r).issubset(range(n[tgt[f]]))]
    if bad:  # pick would read past the end of a rep
        return report + [f"rep{where} of {arrows.elements[f]!r} is not a map between its ends" for f in bad]
    first = {}
    for f, ends in enumerate(zip(src, tgt, rep)):
        if first.setdefault(ends, f) != f:
            report.append(f"rep is not faithful{where}: {arrows.elements[first[ends]]!r} and {arrows.elements[f]!r}")
    gets = [getter(r) for r in rep]
    composed = tuple([g(r) for g, r in zip(pick(gets, f1s), pick(rep, f2s))])
    laws = pick(rep, m)
    if composed != laws:
        for f1, f2 in compress(zip(f1s, f2s), map(ne, composed, laws)):
            pair = f"({arrows.elements[f1]!r},{arrows.elements[f2]!r})"
            report.append(f"composition fails{where} on {pair}: its rep is not rep f2 after rep f1")
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


class RowSet(LazyFinSet):
    """The apex of a chain limit: the tuples over ``factors`` in which each
    link holds, in lexicographic order.  That is the canonical order of
    their Tup labels, so the k-th tuple is element k.

    Every link is a pullback over a vertex: ``links[j]`` is (f, g, n), and
    an entry y at slot j follows the entry x before it when g[y] == f[x]
    in the vertex of n points.  Slot 0 follows the one empty tuple over a
    single point.  None in place of f or g is the identity; the slots
    whose g is, where y is f[x], are ``fixed``.

    Building it counts, in one pass over each slot's entries:
    ``counts[j][y]`` is the number of ways to complete a tuple from entry y
    at slot j on, and beside it go each entry's offset (see ``offsets``)
    and the entries over each vertex point that some tuple completes.  The
    size, the position of a tuple (the sum over its slots of ``offsets(j,
    ...)`` at its entries) and the columns follow.  The column of slot j,
    which lists the slot-j entries of all tuples in order, is built the
    first time it is asked for, as are the labels and their index.
    """

    __slots__ = (
        "factors", "links", "fixed", "counts", "_offsets", "_fibers", "_prefixes",
        "_columns", "__weakref__",
    )

    def __init__(self, factors: tuple, links: list):
        self.factors = factors
        self.links = links
        self.fixed = frozenset(j for j, (_, g, _) in enumerate(links) if g is None)
        counts, tables, lives = [None] * len(factors), [None] * len(factors), [None] * len(factors)
        ways = [1] * len(factors[-1]) if factors else [1]
        for j in range(len(factors) - 1, -1, -1):
            counts[j] = ways
            f, g, n = links[j]
            if g is not None:  # the ways over each vertex point
                over, table, live = [0] * n, [], [[] for _ in range(n)]
                for y, v in enumerate(g):
                    w = ways[y]
                    table.append(over[v])
                    over[v] += w
                    if w:
                        live[v].append(y)
                ways, tables[j], lives[j] = over, table, live
            if f is not None:
                ways = pick(ways, f)
        self.counts = counts
        self.size = ways[0]
        self._offsets = tables
        self._fibers = lives
        self._prefixes = []
        self._columns = [None] * len(factors)

    def _labels(self):
        # A method, not a function stored on the instance as LazyFinSet's
        # are: a bound method there would refer back to the set, and the
        # kernel leaves no cyclic garbage.
        if not self.factors:
            return (STAR,) * self.size
        columns = [pick(f.elements, self.column(j)) for j, f in enumerate(self.factors)]
        return map(Tup, zip(*columns))

    def offsets(self, j: int, entries) -> tuple | None:
        """For each slot-j entry y in ``entries``: how many tuples agree
        with one whose slot-j entry is y before slot j and have a smaller
        entry there, the counts of the entries before y over its vertex
        point.  None at a fixed slot, which adds no offset: y is the only
        entry over its point."""
        return None if j in self.fixed else pick(self._offsets[j], entries)

    def _prefix(self, j: int):
        """The slot-j entries of the tuples over slots 0..j that satisfy the
        links among them and that some tuple of the limit completes, one
        per such tuple, in lexicographic order: none is longer than the
        limit."""
        prefixes = self._prefixes
        while len(prefixes) <= j:
            k = len(prefixes)
            f, g, _ = self.links[k]
            before = prefixes[-1] if k else (0,)
            points = before if f is None else pick(f, before)
            if g is None:  # the entry is the point, completed as x is
                prefixes.append(points)
            else:
                prefixes.append(tuple(list(chain.from_iterable(map(self._fibers[k].__getitem__, points)))))
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
        for j in range(1, len(columns)):
            f, g, n = self.links[j]
            if n == 1:  # a single point: every two entries agree over it
                continue
            got = columns[j - 1] if f is None else pick(f, columns[j - 1])
            want = columns[j] if g is None else pick(g, columns[j])
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
        # the int objects of ``positions`` rather than fresh sums, so that
        # the maps into the set share them
        return pick(self.positions, total)

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
        free = [j for j in range(len(self.legs)) if j not in apex.fixed]
        if len(maps) != len(free):
            raise ValueError(
                f"a cone into this limit takes {len(free)} maps, not {len(maps)}"
            )
        given = iter([_column(f, dom, self.legs[j].cod) for j, f in zip(free, maps)])
        columns = []
        for j, (f, _, _) in enumerate(apex.links):
            columns.append(pick(f, columns[-1]) if j in apex.fixed else next(given))
        bad = apex.first_outside(columns)
        if bad is not None:
            raise ValueError(f"cone is not compatible at {dom.elements[bad]!r}")
        return FinFunction.from_idx(dom, apex, apex.rank(columns, len(dom)))


def fin_limit(sets: list, links: list, bound: int = DEFAULT_BOUND) -> LimitCone:
    """Limit of a chain of finite sets: the tuples over ``sets`` in which
    each entry after the first agrees with the one before it.

    ``links[j - 1]`` says how slot j depends on slot j - 1:

    - ``None``: it does not (slot j is a product factor);
    - ``("fix", f)`` with f: sets[j-1] -> sets[j]: the entry is f of the
      one before;
    - ``("preimage", f)`` with f: sets[j] -> sets[j-1]: the entry ranges
      over the preimage of the one before.

    Each is translated once into a pullback over a vertex (as in RowSet):
    a product slot lies over a single point, a fixed slot's vertex is the
    slot itself and a preimage slot's vertex is the slot before.  The
    tuples are counted, not listed: the bound is checked on the size of
    the limit, and the apex is a RowSet that lists its columns, none
    longer than the limit, only when something asks for them.
    """
    if len(links) != len(sets[1:]):
        raise ValueError("a chain needs one link per slot after the first")
    sizes = [1, *map(len, sets)]  # slot 0 follows the one empty tuple
    vertices = []
    for j, link in zip(range(len(sets)), [None, *links]):
        if link is None:
            vertices.append(((0,) * sizes[j], (0,) * sizes[j + 1], 1))
            continue
        kind, f = link
        if kind == "fix" and (f.dom, f.cod) == (sets[j - 1], sets[j]):
            vertices.append((f.idx, None, sizes[j + 1]))
        elif kind == "preimage" and (f.dom, f.cod) == (sets[j], sets[j - 1]):
            vertices.append((None, f.idx, sizes[j]))
        else:
            raise ValueError(f"the {kind} map at slot {j} has the wrong endpoints")
    apex = RowSet(tuple(sets), vertices)
    check_bound(len(apex), bound, "fin_limit")
    return LimitCone(apex, tuple([_Projection(apex, s, i) for i, s in enumerate(sets)]))

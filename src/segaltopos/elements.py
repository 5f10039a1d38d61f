"""Canonical element terms, finite sets and finite functions.

Every computed object (limit, section family, sieve) is a set of Element
terms, its labels, so that equal constructions produce literally equal
values.  Inside the kernel an element is its position in the sorted set:
finite functions are tuples of positions, limits (fincat.RowSet) are
counted and listed column by column, and the sections of a dependent
product are tuples of value positions (a LazyFinSet); their labels are
built only when code that works on labels asks for them.

Elements are hash-consed: each constructor looks its term up in one
module-level weak-value table keyed by the already-interned children, so
equal terms are the same object.  Equality and hashing are therefore the
built-in identity ones.  The table is not locked: elements are built in one
thread.

Tuples of positions are built from lists (``tuple([...])``,
``tuple(list(it))``), not from iterators of unknown length: CPython sizes
such a tuple by resizing one of ten slots, so each takes a block from one
free list of small tuples and, once freed, returns it to another.  Those
lists would then fill up and keep their memory, since only a full garbage
collection clears them and the kernel leaves no cyclic garbage to start
one.
"""

from __future__ import annotations

import weakref
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Element:
    """A canonical term: an atom, a tuple of terms, or a keyed family.

    Elements are immutable, hash-consed (equal means identical) and totally
    ordered (lexicographic on variant rank, then contents).
    """

    __slots__ = ("_key", "__weakref__")

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key


class Atom(Element):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ikey = (0, name)
        obj = _INTERN.get(ikey)
        if obj is None:
            obj = object.__new__(cls)
            obj.name = name
            obj._key = ikey
            _INTERN[ikey] = obj
        return obj

    def __reduce__(self):
        return (Atom, (self.name,))

    def __repr__(self):
        return f"Atom({self.name!r})"


class Tup(Element):
    __slots__ = ("items",)

    def __new__(cls, items: Iterable[Element]):
        items = tuple(items)
        ikey = (1, items)
        obj = _INTERN.get(ikey)
        if obj is None:
            obj = object.__new__(cls)
            obj.items = items
            obj._key = (1, tuple(x._key for x in items))
            _INTERN[ikey] = obj
        return obj

    def __reduce__(self):
        return (Tup, (self.items,))

    def __repr__(self):
        return f"Tup({list(self.items)!r})"

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


class Fam(Element):
    """A finite association from key elements to value elements.

    Entries are stored sorted by key; keys must be pairwise distinct.
    """

    __slots__ = ("entries", "_lookup")

    def __new__(cls, entries: Iterable[tuple[Element, Element]]):
        entries = tuple(sorted(map(tuple, entries), key=lambda kv: kv[0]._key))
        ikey = (2, entries)
        obj = _INTERN.get(ikey)
        if obj is None:
            for (k1, _), (k2, _) in zip(entries, entries[1:]):
                if k1 is k2:
                    raise ValueError(f"duplicate family key {k1!r}")
            obj = object.__new__(cls)
            obj.entries = entries
            obj._lookup = dict(entries)
            obj._key = (2, tuple((k._key, v._key) for k, v in entries))
            _INTERN[ikey] = obj
        return obj

    def __reduce__(self):
        return (Fam, (self.entries,))

    def __repr__(self):
        return f"Fam({list(self.entries)!r})"

    def get(self, k: Element) -> Element:
        return self._lookup[k]

    def __contains__(self, k):
        return k in self._lookup


STAR = Tup(())

# Sorting on the keys themselves compares in C and gives the same order as
# the Element comparison methods.
_sort_key = attrgetter("_key")


# The most labels the repr of a set or function shows.
_SHOWN = 3


def pick(seq, positions) -> tuple:
    """The tuple (seq[p] for p in positions)."""
    if len(positions) > 1:
        return itemgetter(*positions)(seq)
    return tuple([seq[p] for p in positions])


def fibers(idx, size: int) -> list:
    """For a map given by the positions ``idx`` into a set of ``size``
    points: the list of positions over each point, ascending."""
    out = [[] for _ in range(size)]
    for i, y in enumerate(idx):
        out[y].append(i)
    return out


class FinSet:
    """A finite set of elements, stored sorted and duplicate free.

    The position of an element is its rank in that order; ``index`` maps
    each element to its position.  Finite functions refer to elements by
    position only.  ``positions`` is the tuple of all positions, built on
    first use; the identity of the set and every map that ranks into it
    share it.
    """

    __slots__ = ("elements", "index", "positions")

    def __init__(self, elements: Iterable[Element]):
        # dict.fromkeys keeps the input order, so an already sorted input
        # costs the sort one linear pass.
        elems = tuple(sorted(dict.fromkeys(elements), key=_sort_key))
        self.elements = elems
        self.index = dict(zip(elems, range(len(elems))))

    def __getattr__(self, name):
        # Called only while the slot `name` is still empty.
        if name == "positions":
            self.positions = tuple(range(len(self)))
            return self.positions
        raise AttributeError(name)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FinSet)
            and len(self) == len(other)
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        shown = ", ".join(map(repr, self.elements[:_SHOWN]))
        return f"FinSet({len(self)}: [{shown}{', ...' if len(self) > _SHOWN else ''}])"


class LazyFinSet(FinSet):
    """A finite set known by its size, with a function that lists its
    labels in sorted order: the labels and their index are built the first
    time something reads them, as a chain limit's are.  Code that works on
    positions never does."""

    __slots__ = ("size", "_labels")

    def __init__(self, size: int, labels):
        self.size = size
        self._labels = labels

    def __getattr__(self, name):
        # Called only while the slot `name` is still empty.
        if name == "elements":
            self.elements = tuple(self._labels())
            return self.elements
        if name == "index":
            self.index = dict(zip(self.elements, range(self.size)))
            return self.index
        return FinSet.__getattr__(self, name)

    def __len__(self):
        return self.size

    def __repr__(self):
        # Sized only, so it builds no label.
        return f"LazyFinSet({self.size} elements)"


EMPTY = FinSet(())
SINGLETON = FinSet((STAR,))


def atoms(*names: str) -> FinSet:
    return FinSet(Atom(n) for n in names)


class FinFunction:
    """A total function between finite sets.

    ``idx[i]`` is the position in ``cod`` of the value at the i-th element
    of ``dom``, so composition is indexing and equality is tuple equality.
    The constructor takes a dict from elements to elements and checks it;
    ``from_idx`` takes positions and trusts them.
    """

    __slots__ = ("dom", "cod", "idx")

    def __init__(self, dom: FinSet, cod: FinSet, table: dict):
        index = dom.index
        if table.keys() != index.keys():
            missing = index.keys() - table.keys()
            extra = table.keys() - index.keys()
            raise ValueError(
                f"function table mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        cindex = cod.index
        try:
            idx = tuple([cindex[table[x]] for x in dom.elements])
        except KeyError:
            x, y = next((x, y) for x, y in table.items() if y not in cindex)
            raise ValueError(f"value {y!r} of {x!r} not in codomain") from None
        self.dom = dom
        self.cod = cod
        self.idx = idx

    @classmethod
    def from_idx(cls, dom: FinSet, cod: FinSet, idx: tuple) -> "FinFunction":
        f = object.__new__(cls)
        f.dom = dom
        f.cod = cod
        f.idx = idx
        return f

    @property
    def table(self) -> dict:
        """The function as a dict from elements to elements, built anew on
        each access; for code that works on labels."""
        return dict(zip(self.dom.elements, pick(self.cod.elements, self.idx)))

    def __call__(self, x: Element) -> Element:
        return self.cod.elements[self.idx[self.dom.index[x]]]

    def __eq__(self, other):
        return (
            isinstance(other, FinFunction)
            and self.idx == other.idx
            and self.dom == other.dom
            and self.cod == other.cod
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.idx))

    def __repr__(self):
        # The table only when it is short: for a large domain it would list,
        # or for a limit build, every label.
        table = f", {self.table!r}" if len(self.dom) <= _SHOWN else ""
        return f"FinFunction({self.dom!r} -> {self.cod!r}{table})"

    @staticmethod
    def identity(s: FinSet) -> "FinFunction":
        return FinFunction.from_idx(s, s, s.positions)

    @staticmethod
    def constant(dom: FinSet, cod: FinSet, value: Element) -> "FinFunction":
        if not len(dom):
            return FinFunction.from_idx(dom, cod, ())
        if value not in cod:
            raise ValueError(f"value {value!r} of {dom.elements[0]!r} not in codomain")
        return FinFunction.from_idx(dom, cod, (cod.index[value],) * len(dom))

    def compose(self, other: "FinFunction") -> "FinFunction":
        """self after other."""
        if other.cod != self.dom:
            raise ValueError("composition type mismatch")
        return FinFunction.from_idx(other.dom, self.cod, pick(self.idx, other.idx))

    def image(self) -> FinSet:
        return FinSet(pick(self.cod.elements, tuple(set(self.idx))))

    def is_injective(self) -> bool:
        return len(set(self.idx)) == len(self.idx)

    def is_surjective(self) -> bool:
        return len(set(self.idx)) == len(self.cod)

    def is_bijective(self) -> bool:
        idx = self.idx
        if len(idx) != len(self.cod):
            return False
        # The positions of the domain are distinct, so they name each of as
        # many codomain elements once.
        return idx is self.dom.positions or len(set(idx)) == len(idx)

    def inverse(self) -> "FinFunction":
        if not self.is_bijective():
            raise ValueError("not a bijection")
        idx = self.idx
        return FinFunction.from_idx(
            self.cod, self.dom, tuple(sorted(range(len(idx)), key=idx.__getitem__))
        )

"""Canonical element terms, finite sets and finite functions.

Every computed object (limit, section family, sieve) is populated with
Element terms so that equal constructions produce literally equal values.

Elements are hash-consed: each constructor looks its term up in one
module-level weak-value table keyed by the already-interned children, so
equal terms are the same object.  Equality and hashing are therefore the
built-in identity ones.  The table is not locked: elements are built in one
thread.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
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


class FinSet:
    """A finite set of elements, stored sorted and duplicate free."""

    __slots__ = ("elements", "_members")

    def __init__(self, elements: Iterable[Element]):
        # dict.fromkeys keeps the input order, so an already sorted input
        # (a fin_limit apex) costs the sort one linear pass.
        elems = tuple(sorted(dict.fromkeys(elements), key=_sort_key))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_members", frozenset(elems))

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._members

    def __eq__(self, other):
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"FinSet({list(self.elements)!r})"


EMPTY = FinSet(())
SINGLETON = FinSet((STAR,))


def atoms(*names: str) -> FinSet:
    return FinSet(Atom(n) for n in names)


class FinFunction:
    """A total function between finite sets, given by an explicit table."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinSet, cod: FinSet, table: dict):
        if table.keys() != dom._members:
            missing = dom._members - table.keys()
            extra = table.keys() - dom._members
            raise ValueError(
                f"function table mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        if not cod._members.issuperset(table.values()):
            x, y = next((x, y) for x, y in table.items() if y not in cod._members)
            raise ValueError(f"value {y!r} of {x!r} not in codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", dict(table))

    def __call__(self, x: Element) -> Element:
        return self.table[x]

    def __eq__(self, other):
        return (
            isinstance(other, FinFunction)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(sorted(self.table.items()))))

    def __repr__(self):
        return f"FinFunction({self.dom!r}, {self.cod!r}, {self.table!r})"

    @staticmethod
    def identity(s: FinSet) -> "FinFunction":
        return FinFunction(s, s, {x: x for x in s})

    @staticmethod
    def constant(dom: FinSet, cod: FinSet, value: Element) -> "FinFunction":
        return FinFunction(dom, cod, {x: value for x in dom})

    def compose(self, other: "FinFunction") -> "FinFunction":
        """self after other."""
        if other.cod != self.dom:
            raise ValueError("composition type mismatch")
        return FinFunction(other.dom, self.cod, {x: self.table[y] for x, y in other.table.items()})

    def image(self) -> FinSet:
        return FinSet(self.table.values())

    def is_injective(self) -> bool:
        return len(set(self.table.values())) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table.values()) == set(self.cod.elements)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "FinFunction":
        if not self.is_bijective():
            raise ValueError("not a bijection")
        return FinFunction(self.cod, self.dom, {y: x for x, y in self.table.items()})

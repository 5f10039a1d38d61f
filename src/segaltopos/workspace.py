"""Deterministic JSON serialization of workspaces: an index category plus
named presheaves, morphisms, category objects, and maps to check.

Same value => byte-identical text: elements are encoded canonically, all
dictionary keys are sorted, and tables are keyed by the compact JSON of the
encoded element.
"""

from __future__ import annotations

import json

from .elements import Atom, Element, Fam, FinFunction, FinSet, Tup
from .fincat import DEFAULT_BOUND, FiniteCategory, join_problems
from .topos import NatTrans, Presheaf, Topos
from .segal import CategoryObject, CategoryObjectError, composable_pairs

FORMAT_VERSION = 1


class WorkspaceError(ValueError):
    pass


class NestingError(WorkspaceError):
    """The input nests deeper than the decoder can recurse."""


def parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise NestingError("JSON nested too deeply") from None


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(data, kind, where: str):
    """data itself, when it is a JSON value of the given kind."""
    if not isinstance(data, kind):
        raise WorkspaceError(f"{where}: expected {_KINDS[kind]}, got {data!r}")
    return data


def _field(data: dict, key: str, kind, where: str):
    if key not in data:
        raise WorkspaceError(f"{where}: missing {key!r}")
    return _expect(data[key], kind, f"{where}.{key}")


# ---------------------------------------------------------------------------
# element codec


def encode_element(e: Element):
    if isinstance(e, Atom):
        return ["a", e.name]
    if isinstance(e, Tup):
        return ["t", [encode_element(x) for x in e.items]]
    if isinstance(e, Fam):
        return ["f", [[encode_element(k), encode_element(v)] for k, v in e.entries]]
    raise WorkspaceError(f"not an element: {e!r}")


def decode_element(data) -> Element:
    try:
        return _decode_element(data)
    except RecursionError:
        raise NestingError("an element is nested too deeply") from None


def _decode_element(data) -> Element:
    if not isinstance(data, list) or len(data) != 2:
        raise WorkspaceError(f"bad element encoding: {data!r}")
    tag, body = data
    if tag not in ("a", "t", "f"):
        raise WorkspaceError(f"bad element tag: {tag!r}")
    if tag == "a":
        return Atom(_expect(body, str, "atom name"))
    if tag == "t":
        return Tup(_decode_element(x) for x in _expect(body, list, "tuple items"))
    entries = []
    for kv in _expect(body, list, "family entries"):
        if not isinstance(kv, list) or len(kv) != 2:
            raise WorkspaceError(f"bad family entry: {kv!r}")
        entries.append((_decode_element(kv[0]), _decode_element(kv[1])))
    try:
        return Fam(entries)
    except ValueError as exc:
        raise WorkspaceError(str(exc)) from exc


def element_key(e: Element) -> str:
    return json.dumps(encode_element(e), separators=(",", ":"))


def decode_key(s: str) -> Element:
    try:
        data = parse_json(s)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"bad element key: {s!r}") from exc
    return decode_element(data)


def _encode_table(f: FinFunction) -> dict:
    return {element_key(k): encode_element(v) for k, v in f.table.items()}


def _decode_table(dom: FinSet, cod: FinSet, data: dict) -> FinFunction:
    table = {
        decode_key(k): decode_element(v)
        for k, v in _expect(data, dict, "function table").items()
    }
    try:
        return FinFunction(dom, cod, table)
    except ValueError as exc:
        raise WorkspaceError(str(exc)) from exc


def encode_category(C: FiniteCategory) -> dict:
    return {
        "objects": [encode_element(o) for o in C.objects],
        "morphisms": [encode_element(m) for m in C.morphisms],
        "src": _encode_table(C.src),
        "tgt": _encode_table(C.tgt),
        "identity": _encode_table(C.identity),
        "comp": sorted(
            (
                [encode_element(g), encode_element(f), encode_element(h)]
                for (g, f), h in C.comp.items()
            ),
        ),
    }


def decode_category(data: dict) -> FiniteCategory:
    where = "index"
    _expect(data, dict, where)
    objs = FinSet(decode_element(o) for o in _field(data, "objects", list, where))
    mors = FinSet(decode_element(m) for m in _field(data, "morphisms", list, where))
    src = _decode_table(mors, objs, _field(data, "src", dict, where))
    tgt = _decode_table(mors, objs, _field(data, "tgt", dict, where))
    idf = _decode_table(objs, mors, _field(data, "identity", dict, where))
    comp = {}
    for entry in _field(data, "comp", list, where):
        if not isinstance(entry, list) or len(entry) != 3:
            raise WorkspaceError(f"bad composition entry: {entry!r}")
        g, f, h = map(decode_element, entry)
        if (g, f) in comp:
            # keeping either entry would make the category depend on their order
            raise WorkspaceError(f"{where}.comp: composite of {g!r} after {f!r} listed twice")
        comp[(g, f)] = h
    return FiniteCategory(objs, mors, src, tgt, idf, comp)


def encode_presheaf(X: Presheaf) -> dict:
    return {
        "at": {
            element_key(c): [encode_element(x) for x in s] for c, s in X.at.items()
        },
        "restrict": {
            element_key(u): _encode_table(f) for u, f in X.restrict.items()
        },
    }


def decode_presheaf(T: Topos, data: dict) -> Presheaf:
    where = "presheaf"
    _expect(data, dict, where)
    at = {
        decode_key(c): FinSet(decode_element(x) for x in _expect(xs, list, "presheaf set"))
        for c, xs in _field(data, "at", dict, where).items()
    }
    idx = T.index
    restrict = {}
    for k, table in _field(data, "restrict", dict, where).items():
        u = decode_key(k)
        if u not in idx.morphisms:
            raise WorkspaceError(f"restriction along unknown morphism {u!r}")
        if idx.tgt(u) not in at or idx.src(u) not in at:
            raise WorkspaceError(f"restriction along {u!r} has no set at an endpoint")
        restrict[u] = _decode_table(at[idx.tgt(u)], at[idx.src(u)], table)
    return Presheaf(T, at, restrict)


def encode_nat_trans(f: NatTrans) -> dict:
    return {element_key(c): _encode_table(g) for c, g in f.component.items()}


def decode_nat_trans(dom: Presheaf, cod: Presheaf, data: dict) -> NatTrans:
    component = {}
    for k, table in _expect(data, dict, "components").items():
        c = decode_key(k)
        if c not in dom.at or c not in cod.at:
            raise WorkspaceError(f"component at {c!r} has no set at an endpoint")
        component[c] = _decode_table(dom.at[c], cod.at[c], table)
    return NatTrans(dom, cod, component)


# ---------------------------------------------------------------------------
# workspace


class Workspace:
    """A topos and named structures in it, each added by name."""

    __slots__ = (
        "topos", "presheaves", "morphisms", "morphism_ends", "category_objects",
        "category_object_refs", "maps",
    )

    def __init__(self, topos: Topos):
        self.topos = topos
        self.presheaves = {}
        self.morphisms = {}  # name -> NatTrans
        self.morphism_ends = {}  # name -> (dom, cod) names
        self.category_objects = {}  # name -> CategoryObject
        self.category_object_refs = {}  # name -> ref dict
        self.maps = {}  # alias -> morphism name

    def add_presheaf(self, name: str, X: Presheaf):
        # a name is bound once: morphisms and category objects refer to it
        if name in self.presheaves and self.presheaves[name] != X:
            raise WorkspaceError(f"presheaf {name!r} is already bound")
        self.presheaves[name] = X

    def add_morphism(self, name: str, f: NatTrans, dom_name: str, cod_name: str):
        if name in self.morphisms and self.morphisms[name] != f:
            raise WorkspaceError(f"morphism {name!r} is already bound")
        if self.presheaves.get(dom_name) != f.dom or self.presheaves.get(cod_name) != f.cod:
            raise WorkspaceError(f"morphism {name!r} endpoints do not match named presheaves")
        self.morphisms[name] = f
        self.morphism_ends[name] = (dom_name, cod_name)

    def add_category_object(self, name: str, C: CategoryObject, refs: dict):
        """Add C and its parts.  refs names them: {'C0': presheaf name,
        'C1': presheaf name, 's'/'t'/'e': morphism names}.  A part whose
        name is free is added under it.  A name already bound, or given to
        two parts, must hold an equal part; otherwise this raises
        WorkspaceError and adds nothing."""
        # each part and, for a morphism, the parts at its ends
        ends = {"C0": None, "C1": None, "s": ("C1", "C0"), "t": ("C1", "C0"), "e": ("C0", "C1")}
        if refs.keys() != ends.keys():
            raise WorkspaceError(f"category object {name!r}: refs must name C0, C1, s, t and e")
        held = {}  # (is a morphism, name) -> what the name is bound to, or given first
        for part, at in ends.items():
            key, X = (at is not None, refs[part]), getattr(C, part)
            store = self.morphisms if key[0] else self.presheaves
            if held.setdefault(key, store.get(refs[part], X)) != X:
                raise WorkspaceError(f"category object {name!r}: {refs[part]!r} does not hold its {part}")
        for part, at in ends.items():
            if at is None:
                self.presheaves.setdefault(refs[part], getattr(C, part))
            elif refs[part] not in self.morphisms:
                self.add_morphism(refs[part], getattr(C, part), refs[at[0]], refs[at[1]])
        self.category_objects[name] = C
        self.category_object_refs[name] = dict(refs)

    def add_map(self, alias: str, morphism_name: str):
        if morphism_name not in self.morphisms:
            raise WorkspaceError(f"unknown morphism {morphism_name!r}")
        self.maps[alias] = morphism_name

    def validate(self) -> list[str]:
        """The laws each presheaf and morphism breaks.  The names need no
        check: the add_* methods bind each name once, and only to what it
        must hold."""
        report = []
        for name, X in self.presheaves.items():
            report.extend(f"presheaf {name}: {p}" for p in X.validate())
        for name, f in self.morphisms.items():
            report.extend(f"morphism {name}: {p}" for p in f.validate())
        return report


def encode_workspace(w: Workspace) -> dict:
    cats = {}
    for name, C in w.category_objects.items():
        refs = w.category_object_refs[name]
        cats[name] = {
            "C0": refs["C0"],
            "C1": refs["C1"],
            "s": refs["s"],
            "t": refs["t"],
            "e": refs["e"],
            "m": encode_nat_trans(C.m),
        }
    return {
        "format": FORMAT_VERSION,
        "bound": w.topos.bound,
        "index": encode_category(w.topos.index),
        "presheaves": {n: encode_presheaf(X) for n, X in w.presheaves.items()},
        "morphisms": {
            n: {
                "dom": w.morphism_ends[n][0],
                "cod": w.morphism_ends[n][1],
                "component": encode_nat_trans(f),
            }
            for n, f in w.morphisms.items()
        },
        "category_objects": cats,
        "maps": dict(w.maps),
    }


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise WorkspaceError("invalid workspace: " + join_problems(problems))


def decode_workspace(data: dict) -> Workspace:
    """Decode and validate a workspace.  Any defect of the input, from a
    wrong JSON shape to a failed law, raises WorkspaceError; an oversized
    intermediate raises ResourceBoundError."""
    _expect(data, dict, "workspace")
    if data.get("format") != FORMAT_VERSION:
        raise WorkspaceError(f"unsupported format {data.get('format')!r}")
    index = decode_category(data.get("index"))
    bound = data.get("bound", DEFAULT_BOUND)
    # A JSON integer decodes to exactly int; true and false decode to bool.
    if type(bound) is not int or bound < 0:
        raise WorkspaceError(f"bad bound {bound!r}: expected a natural number")
    try:
        T = Topos(index, bound)
    except ValueError as exc:
        raise WorkspaceError(str(exc)) from exc
    w = Workspace(T)
    presheaves = _expect(data.get("presheaves", {}), dict, "presheaves")
    for name in sorted(presheaves):
        w.add_presheaf(name, decode_presheaf(T, presheaves[name]))
    morphisms = _expect(data.get("morphisms", {}), dict, "morphisms")
    for name in sorted(morphisms):
        where = f"morphism {name!r}"
        entry = _expect(morphisms[name], dict, where)
        dom_name = _field(entry, "dom", str, where)
        cod_name = _field(entry, "cod", str, where)
        dom = w.presheaves.get(dom_name)
        cod = w.presheaves.get(cod_name)
        if dom is None or cod is None:
            raise WorkspaceError(f"morphism {name!r} references unknown presheaves")
        f = decode_nat_trans(dom, cod, _field(entry, "component", dict, where))
        w.add_morphism(name, f, dom_name, cod_name)
    maps = _expect(data.get("maps", {}), dict, "maps")
    for alias in sorted(maps):
        w.add_map(alias, _expect(maps[alias], str, f"map {alias!r}"))
    # Presheaves and morphisms are checked before any limit is built on
    # them, so a failed law is reported rather than breaking the limit.
    _raise_problems(w.validate())
    category_objects = _expect(data.get("category_objects", {}), dict, "category objects")
    for name in sorted(category_objects):
        where = f"category object {name!r}"
        entry = _expect(category_objects[name], dict, where)
        refs = {k: _field(entry, k, str, where) for k in ("C0", "C1", "s", "t", "e")}
        try:
            C0 = w.presheaves[refs["C0"]]
            C1 = w.presheaves[refs["C1"]]
            s = w.morphisms[refs["s"]]
            t = w.morphisms[refs["t"]]
            e = w.morphisms[refs["e"]]
        except KeyError as exc:
            raise WorkspaceError(f"{where}: unresolved {exc}") from exc
        if not (s.dom == t.dom == e.cod == C1 and s.cod == t.cod == e.dom == C0):
            raise WorkspaceError(f"{where}: s, t or e has the wrong endpoints")
        cone = composable_pairs(T, C0, C1, s, t, 2)
        m = decode_nat_trans(cone.apex, C1, _field(entry, "m", dict, where))
        try:
            C = CategoryObject(T, C0, C1, s, t, e, cone, m)
        except CategoryObjectError as exc:
            _raise_problems([f"category object {name}: {p}" for p in exc.problems])
        w.add_category_object(name, C, refs)
    return w


def dumps_workspace(w: Workspace) -> str:
    return json.dumps(encode_workspace(w), sort_keys=True, indent=1) + "\n"


def loads_workspace(text: str) -> Workspace:
    return decode_workspace(parse_json(text))

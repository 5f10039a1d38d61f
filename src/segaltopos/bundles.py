"""Builders for the bundled corpus workspaces (finite sets, C2-sets,
S3-sets, and the topos of maps-of-sets over the walking arrow)."""

from __future__ import annotations

from .elements import Atom, FinFunction, FinSet
from .corpus import (
    c2_topos,
    corpus_categories,
    finset_presheaf,
    s3_natural_action,
    s3_topos,
    sierpinski_topos,
)
from .segal import category_object_from_finite_category
from .topos import (
    NatTrans,
    Presheaf,
    constant_presheaf,
    finset_topos,
    terminal,
    unique_to_terminal,
    yoneda,
)
from .workspace import Workspace


def _add_terminal(w: Workspace, name: str = "point") -> Presheaf:
    one = terminal(w.topos)
    w.add_presheaf(name, one)
    return one


def _add_unique(w: Workspace, alias: str, src_name: str, point_name: str = "point"):
    f = unique_to_terminal(w.presheaves[src_name])
    w.add_morphism(alias, f, src_name, point_name)
    return f


def build_finset_workspace() -> Workspace:
    T = finset_topos()
    w = Workspace(T)
    star = Atom("*")
    empty = finset_presheaf([])
    one = finset_presheaf(["x"])
    two = finset_presheaf(["0", "1"])
    three = finset_presheaf(["0", "1", "2"])
    for name, X in (("empty", empty), ("one", one), ("two", two), ("three", three)):
        w.add_presheaf(name, X)

    def func(dom_name, cod_name, mapping):
        dom, cod = w.presheaves[dom_name], w.presheaves[cod_name]
        table = {Atom(a): Atom(b) for a, b in mapping.items()}
        return NatTrans(dom, cod, {star: FinFunction(dom.at[star], cod.at[star], table)})

    w.add_morphism("empty_to_empty", func("empty", "empty", {}), "empty", "empty")
    w.add_morphism("empty_to_one", func("empty", "one", {}), "empty", "one")
    w.add_morphism("id_one", func("one", "one", {"x": "x"}), "one", "one")
    w.add_morphism("id_two", func("two", "two", {"0": "0", "1": "1"}), "two", "two")
    w.add_morphism("one_into_two", func("one", "two", {"x": "1"}), "one", "two")
    w.add_morphism("fold_two", func("two", "one", {"0": "x", "1": "x"}), "two", "one")
    w.add_morphism(
        "empty_into_two", func("empty", "two", {}), "empty", "two"
    )
    for alias, mname in (
        ("u_empty", "empty_to_empty"),
        ("u_empty_point", "empty_to_one"),
        ("u_point", "id_one"),
        ("u_sub", "one_into_two"),
        ("not_univalent_id", "id_two"),
        ("not_univalent_fold", "fold_two"),
    ):
        w.add_map(alias, mname)

    # the two-element group as a category object of finite sets
    cat = category_object_from_finite_category(corpus_categories()["c2"])
    w.add_presheaf("c2_objects", cat.C0)
    w.add_presheaf("c2_morphisms", cat.C1)
    w.add_morphism("c2_s", cat.s, "c2_morphisms", "c2_objects")
    w.add_morphism("c2_t", cat.t, "c2_morphisms", "c2_objects")
    w.add_morphism("c2_e", cat.e, "c2_objects", "c2_morphisms")
    w.add_category_object(
        "c2_cat",
        cat,
        {"C0": "c2_objects", "C1": "c2_morphisms", "s": "c2_s", "t": "c2_t", "e": "c2_e"},
    )
    chain = category_object_from_finite_category(corpus_categories()["chain2"])
    w.add_presheaf("chain2_objects", chain.C0)
    w.add_presheaf("chain2_morphisms", chain.C1)
    w.add_morphism("chain2_s", chain.s, "chain2_morphisms", "chain2_objects")
    w.add_morphism("chain2_t", chain.t, "chain2_morphisms", "chain2_objects")
    w.add_morphism("chain2_e", chain.e, "chain2_objects", "chain2_morphisms")
    w.add_category_object(
        "chain2_cat",
        chain,
        {
            "C0": "chain2_objects",
            "C1": "chain2_morphisms",
            "s": "chain2_s",
            "t": "chain2_t",
            "e": "chain2_e",
        },
    )
    return w


def build_c2_workspace() -> Workspace:
    T = c2_topos()
    w = Workspace(T)
    star = Atom("*")
    free = yoneda(T, star)
    two_free, injections = _two_copies(free)
    w.add_presheaf("free", free)
    w.add_presheaf("two_free", two_free)
    w.add_presheaf("fixed2", constant_presheaf(T, FinSet([Atom("a"), Atom("b")])))
    _add_terminal(w)
    w.add_morphism("orbit_inclusion", injections[0], "free", "two_free")
    _add_unique(w, "free_to_point", "free")
    _add_unique(w, "fixed2_to_point", "fixed2")
    w.add_map("free_over_point", "free_to_point")
    w.add_map("fixed2_over_point", "fixed2_to_point")
    return w


def _two_copies(X: Presheaf):
    from .corpus import coproduct

    return coproduct([X, X])


def build_s3_workspace() -> Workspace:
    T = s3_topos()
    w = Workspace(T)
    w.add_presheaf("natural3", s3_natural_action())
    _add_terminal(w)
    _add_unique(w, "action", "natural3")
    w.add_map("natural_action", "action")
    return w


def build_sierpinski_workspace() -> Workspace:
    T = sierpinski_topos()
    w = Workspace(T)
    y1 = yoneda(T, Atom("1"))  # value 1 at the open point, singleton at 1
    w.add_presheaf("open_point", y1)
    _add_terminal(w)
    _add_unique(w, "open_to_point", "open_point")
    w.add_map("open_over_point", "open_to_point")
    return w


BUNDLES = {
    "finset": build_finset_workspace,
    "c2": build_c2_workspace,
    "s3": build_s3_workspace,
    "sierpinski": build_sierpinski_workspace,
}


def bundle_names() -> list[str]:
    return sorted(BUNDLES)


def build_bundle(name: str) -> Workspace:
    try:
        return BUNDLES[name]()
    except KeyError:
        raise ValueError(f"unknown bundle {name!r}") from None

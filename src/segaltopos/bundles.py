"""Builders for the bundled corpus workspaces (finite sets, C2-sets,
S3-sets, and the topos of maps-of-sets over the walking arrow)."""

from __future__ import annotations

from .elements import Atom, FinSet
from .corpus import (
    c2_topos,
    coproduct,
    corpus_categories,
    finset_function,
    finset_presheaf,
    s3_natural_action,
    s3_topos,
    sierpinski_topos,
)
from .segal import category_object_from_finite_category
from .topos import (
    constant_presheaf,
    finset_topos,
    terminal,
    unique_to_terminal,
    yoneda,
)
from .workspace import Workspace


def _add_terminal(w: Workspace):
    w.add_presheaf("point", terminal(w.topos))


def _add_unique(w: Workspace, alias: str, src_name: str):
    w.add_morphism(alias, unique_to_terminal(w.presheaves[src_name]), src_name, "point")


def build_finset_workspace() -> Workspace:
    T = finset_topos()
    w = Workspace(T)
    for name, points in (("empty", []), ("one", ["x"]), ("two", ["0", "1"]), ("three", ["0", "1", "2"])):
        w.add_presheaf(name, finset_presheaf(points))
    for name, dom, cod, mapping in (
        ("empty_to_empty", "empty", "empty", {}),
        ("empty_to_one", "empty", "one", {}),
        ("id_one", "one", "one", {"x": "x"}),
        ("id_two", "two", "two", {"0": "0", "1": "1"}),
        ("one_into_two", "one", "two", {"x": "1"}),
        ("fold_two", "two", "one", {"0": "x", "1": "x"}),
        ("empty_into_two", "empty", "two", {}),
    ):
        w.add_morphism(name, finset_function(w.presheaves[dom], w.presheaves[cod], mapping), dom, cod)
    for alias, mname in (
        ("u_empty", "empty_to_empty"),
        ("u_empty_point", "empty_to_one"),
        ("u_point", "id_one"),
        ("u_sub", "one_into_two"),
        ("not_univalent_id", "id_two"),
        ("not_univalent_fold", "fold_two"),
    ):
        w.add_map(alias, mname)

    # the two-element group and the poset 0 <= 1 as category objects of
    # finite sets
    w.add_category_object(
        "c2_cat",
        category_object_from_finite_category(corpus_categories()["c2"]),
        {"C0": "c2_objects", "C1": "c2_morphisms", "s": "c2_s", "t": "c2_t", "e": "c2_e"},
    )
    w.add_category_object(
        "chain2_cat",
        category_object_from_finite_category(corpus_categories()["chain2"]),
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
    two_free, injections = coproduct([free, free])
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


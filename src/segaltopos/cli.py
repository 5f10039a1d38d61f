"""Command-line interface: load a workspace, run checks, emit reports.

Reports are deterministic: the same workspace file produces byte-identical
output on every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .fincat import ResourceBoundError
from .segal import isomorphisms, nerve_level_sizes, nerve_truncation, segal_check
from .topos import is_iso, is_mono
from .univalence import (
    check_mono_classification,
    enumerate_univalent,
    is_finset_topos,
    is_univalent,
    nerve_of_map,
    pullback_square_homs,
)
from .workspace import NestingError, Workspace, WorkspaceError, decode_workspace, parse_json


class CliError(Exception):
    pass


def _bundled():
    return resources.files("segaltopos").joinpath("data")


def bundle_names() -> list[str]:
    """The bundled workspaces, one per ``data/<name>.json``: the CLI reads
    them as files and never imports the builders that wrote them."""
    return sorted(p.name.removesuffix(".json") for p in _bundled().iterdir() if p.name.endswith(".json"))


def _load_workspace(arg: str, bound: int | None) -> Workspace:
    if arg in bundle_names():
        text = _bundled().joinpath(f"{arg}.json").read_text()
    else:
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read workspace {arg!r}: {exc}")
        except UnicodeDecodeError as exc:
            raise CliError(f"workspace {arg!r}: not UTF-8 at byte {exc.start}")
    try:
        data = parse_json(text)
        if bound is not None and isinstance(data, dict):
            data["bound"] = bound
        return decode_workspace(data)
    except json.JSONDecodeError as exc:
        raise CliError(f"workspace {arg!r}: parse error at line {exc.lineno}, column {exc.colno}")
    except NestingError as exc:
        raise CliError(f"workspace {arg!r}: {exc}")


def _require(w: Workspace, kind: str, name: str):
    store = {
        "presheaf": w.presheaves,
        "morphism": w.morphisms,
        "category object": w.category_objects,
        "map": w.maps,
    }[kind]
    if name not in store:
        raise CliError(f"no {kind} named {name!r}; known: {sorted(store)}")
    return store[name]


def _map_morphism(w: Workspace, name: str):
    if name in w.maps:
        return w.morphisms[w.maps[name]]
    return _require(w, "morphism", name)


# ---------------------------------------------------------------------------
# commands: each returns (report dict, ok flag)


def cmd_validate(w: Workspace, args):
    # Decoding checked every structure: a workspace with problems exits 2
    # before any command runs.
    report = {
        "command": "validate",
        "presheaves": sorted(w.presheaves),
        "morphisms": sorted(w.morphisms),
        "category_objects": sorted(w.category_objects),
        "maps": sorted(w.maps),
        "problems": [],
        "ok": True,
    }
    return report, True


def cmd_check_segal(w: Workspace, args):
    C = _require(w, "category object", args.name)
    trunc = nerve_truncation(C)
    witness = segal_check(trunc)
    report = {
        "command": "check-segal",
        "name": args.name,
        "level_sizes": {str(n): trunc.level[n].total_size() for n in range(4)},
        "segal": witness.holds,
        "ok": witness.holds,
    }
    return report, witness.holds


def cmd_check_complete(w: Workspace, args):
    C = _require(w, "category object", args.name)
    eq = isomorphisms(C)
    report = {
        "command": "check-complete",
        "name": args.name,
        "equivalences": eq.carrier.total_size(),
        "objects": C.C0.total_size(),
        "complete": is_iso(eq.s0_lift),
        "ok": True,
    }
    return report, True


def cmd_nerve(w: Workspace, args):
    p = _map_morphism(w, args.name)
    nerve = nerve_of_map(p)
    report = {
        "command": "nerve",
        "name": args.name,
        "level_sizes": {str(n): v for n, v in nerve_level_sizes(nerve.cat).items()},
        "fiberwise_maps": nerve.M.total.total_size(),
        "ok": True,
    }
    return report, True


def cmd_check_univalent(w: Workspace, args):
    p = _map_morphism(w, args.name)
    r = is_univalent(p, name=args.name)
    ok = r.oracle_agrees is not False
    report = {
        "command": "check-univalent",
        "name": args.name,
        "univalent": r.univalent,
        "mono": r.mono,
        "level_sizes": {str(n): v for n, v in r.level_sizes.items()},
        "equivalence_carrier": r.carrier_sizes,
        "oracle": r.oracle,
        "oracle_agrees": r.oracle_agrees,
        "ok": ok,
    }
    return report, ok


def _enumerate(w: Workspace, args):
    if not is_finset_topos(w.topos):
        raise CliError(f"{args.command} needs a workspace over the one-point index")
    return enumerate_univalent(w.topos, args.max_e, args.max_b)


def cmd_enumerate_univalent(w: Workspace, args):
    found = _enumerate(w, args)
    report = {
        "command": "enumerate-univalent",
        "max_e": args.max_e,
        "max_b": args.max_b,
        "count": len(found),
        "fiber_signatures": [list(sig) for sig, _ in found],
        "ok": True,
    }
    return report, True


def cmd_poset(w: Workspace, args):
    found = _enumerate(w, args)
    counts = {}
    poset_ok = True
    for sig2, p2 in found:
        for sig1, p1 in found:
            n = len(pullback_square_homs(p2, p1))
            counts[f"{list(sig2)}->{list(sig1)}"] = n
            poset_ok = poset_ok and n <= 1
    report = {
        "command": "poset",
        "count": len(found),
        "square_counts": counts,
        "at_most_one_square_each": poset_ok,
        "ok": poset_ok,
    }
    return report, poset_ok


def cmd_classify(w: Workspace, args):
    m = _map_morphism(w, args.name)
    if not is_mono(m):
        raise CliError(f"{args.name!r} is not a mono")
    verdict = check_mono_classification(m)
    report = {
        "command": "classify",
        "name": args.name,
        "univalent": verdict.left,
        "characteristic_map_mono": verdict.right,
        "biconditional_holds": verdict.agrees,
        "ok": verdict.agrees,
    }
    return report, verdict.agrees


# ---------------------------------------------------------------------------
# entry point


def natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segaltopos",
        description="Internal-category checks in finite presheaf toposes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_name=False, bounds=False):
        p.add_argument("--workspace", required=True, help="bundle name or JSON path")
        p.add_argument("--bound", type=natural, default=None, help="intermediate-size guardrail")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if needs_name:
            p.add_argument("name")
        if bounds:
            p.add_argument("--max-e", type=natural, default=2)
            p.add_argument("--max-b", type=natural, default=2)

    common(sub.add_parser("validate", help="validate every structure in the workspace"))
    common(sub.add_parser("check-segal", help="nerve a category object and check the chain-splitting condition"), needs_name=True)
    common(sub.add_parser("check-complete", help="check that every isomorphism of a category object is an identity"), needs_name=True)
    common(sub.add_parser("nerve", help="build the fiberwise-map category of a map"), needs_name=True)
    common(sub.add_parser("check-univalent", help="decide univalence of a named map"), needs_name=True)
    common(sub.add_parser("enumerate-univalent", help="list univalent maps of finite sets within bounds"), bounds=True)
    common(sub.add_parser("poset", help="count pullback squares between enumerated univalent maps"), bounds=True)
    common(sub.add_parser("classify", help="characteristic map of a mono and the univalence biconditional"), needs_name=True)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "check-segal": cmd_check_segal,
    "check-complete": cmd_check_complete,
    "nerve": cmd_nerve,
    "check-univalent": cmd_check_univalent,
    "enumerate-univalent": cmd_enumerate_univalent,
    "poset": cmd_poset,
    "classify": cmd_classify,
}


def _emit(report: dict, as_json: bool, out=None):
    out = out or sys.stdout
    if as_json:
        out.write(json.dumps(report, sort_keys=True, indent=1) + "\n")
    else:
        for key in sorted(report):
            out.write(f"{key}: {json.dumps(report[key], sort_keys=True)}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        w = _load_workspace(args.workspace, args.bound)
        report, ok = _COMMANDS[args.command](w, args)
    except (CliError, WorkspaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound exceeded in {exc.stage}: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

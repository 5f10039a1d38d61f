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


def _category_object(w: Workspace, args):
    if args.name not in w.category_objects:
        raise CliError(f"no category object named {args.name!r}; known: {sorted(w.category_objects)}")
    return w.category_objects[args.name]


def _map(w: Workspace, args):
    """The morphism a map alias or a morphism name names."""
    name = w.maps.get(args.name, args.name)
    if name not in w.morphisms:
        raise CliError(f"no morphism named {name!r}; known: {sorted(w.morphisms)}")
    return w.morphisms[name]


def _sweep(w: Workspace, args):
    if not is_finset_topos(w.topos):
        raise CliError(f"{args.command} needs a workspace over the one-point index")
    return enumerate_univalent(w.topos, args.max_e, args.max_b)


# ---------------------------------------------------------------------------
# commands: each takes what its argument names and returns (its report
# fields, ok flag); main adds the command, the name and the flag


def cmd_validate(w: Workspace, args):
    # Decoding checked every structure: a workspace with problems exits 2
    # before any command runs.
    report = {
        "presheaves": sorted(w.presheaves),
        "morphisms": sorted(w.morphisms),
        "category_objects": sorted(w.category_objects),
        "maps": sorted(w.maps),
        "problems": [],
    }
    return report, True


def cmd_check_segal(C, args):
    trunc = nerve_truncation(C)
    witness = segal_check(trunc)
    report = {
        "level_sizes": {str(n): trunc.level[n].total_size() for n in range(4)},
        "segal": witness.holds,
    }
    return report, witness.holds


def cmd_check_complete(C, args):
    eq = isomorphisms(C)
    report = {
        "equivalences": eq.carrier.total_size(),
        "objects": C.C0.total_size(),
        "complete": is_iso(eq.s0_lift),
    }
    return report, True


def cmd_nerve(p, args):
    nerve = nerve_of_map(p)
    report = {
        "level_sizes": {str(n): v for n, v in nerve_level_sizes(nerve.cat).items()},
        "fiberwise_maps": nerve.M.total.total_size(),
    }
    return report, True


def cmd_check_univalent(p, args):
    r = is_univalent(p, name=args.name)
    report = {
        "univalent": r.univalent,
        "mono": r.mono,
        "level_sizes": {str(n): v for n, v in r.level_sizes.items()},
        "equivalence_carrier": r.carrier_sizes,
        "oracle": r.oracle,
        "oracle_agrees": r.oracle_agrees,
    }
    return report, r.oracle_agrees is not False


def cmd_enumerate_univalent(found, args):
    report = {
        "max_e": args.max_e,
        "max_b": args.max_b,
        "count": len(found),
        "fiber_signatures": [list(sig) for sig, _ in found],
    }
    return report, True


def cmd_poset(found, args):
    counts = {}
    poset_ok = True
    for sig2, p2 in found:
        for sig1, p1 in found:
            n = len(pullback_square_homs(p2, p1))
            counts[f"{list(sig2)}->{list(sig1)}"] = n
            poset_ok = poset_ok and n <= 1
    report = {
        "count": len(found),
        "square_counts": counts,
        "at_most_one_square_each": poset_ok,
    }
    return report, poset_ok


def cmd_classify(m, args):
    if not is_mono(m):
        raise CliError(f"{args.name!r} is not a mono")
    verdict = check_mono_classification(m)
    report = {
        "univalent": verdict.left,
        "characteristic_map_mono": verdict.right,
        "biconditional_holds": verdict.agrees,
    }
    return report, verdict.agrees


# name -> (handler, help, what the argument names: None for nothing, or
# the function that finds it in the workspace)
COMMANDS = {
    "validate": (cmd_validate, "validate every structure in the workspace", None),
    "check-segal": (cmd_check_segal, "nerve a category object and check the chain-splitting condition", _category_object),
    "check-complete": (cmd_check_complete, "check that every isomorphism of a category object is an identity", _category_object),
    "nerve": (cmd_nerve, "build the fiberwise-map category of a map", _map),
    "check-univalent": (cmd_check_univalent, "decide univalence of a named map", _map),
    "enumerate-univalent": (cmd_enumerate_univalent, "list univalent maps of finite sets within bounds", _sweep),
    "poset": (cmd_poset, "count pullback squares between enumerated univalent maps", _sweep),
    "classify": (cmd_classify, "characteristic map of a mono and the univalence biconditional", _map),
}


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
    for command, (_, text, find) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--workspace", required=True, help="bundle name or JSON path")
        p.add_argument("--bound", type=natural, default=None, help="intermediate-size guardrail")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if find is _sweep:
            p.add_argument("--max-e", type=natural, default=2)
            p.add_argument("--max-b", type=natural, default=2)
        elif find is not None:
            p.add_argument("name")
    return parser


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
    handler, _, find = COMMANDS[args.command]
    try:
        w = _load_workspace(args.workspace, args.bound)
        fields, ok = handler(w if find is None else find(w, args), args)
    except (CliError, WorkspaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound exceeded in {exc.stage}: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, **fields, "ok": ok}
    if "name" in args:
        report["name"] = args.name
    _emit(report, args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

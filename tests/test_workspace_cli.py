import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import segaltopos

from segaltopos.bundles import BUNDLES
from segaltopos.cli import bundle_names as cli_bundle_names, main
from segaltopos.corpus import finset_presheaf, finset_function
from segaltopos.elements import Atom, Fam, STAR, Tup
from segaltopos.workspace import (
    Workspace,
    WorkspaceError,
    decode_element,
    decode_key,
    decode_workspace,
    dumps_workspace,
    element_key,
    encode_element,
    encode_workspace,
    loads_workspace,
)


def elements():
    base = st.sampled_from([Atom("a"), Atom("b"), STAR, Atom("x0")])

    def extend(inner):
        tup = st.lists(inner, max_size=3).map(Tup)
        fam = st.dictionaries(inner, inner, max_size=3).map(
            lambda d: Fam(d.items())
        )
        return tup | fam

    return st.recursive(base, extend, max_leaves=8)


class TestElementCodec:
    @given(elements())
    def test_round_trip(self, e):
        assert decode_element(encode_element(e)) == e

    @given(elements())
    def test_key_round_trip(self, e):
        assert decode_key(element_key(e)) == e

    @given(elements(), elements())
    def test_keys_injective(self, x, y):
        assert (element_key(x) == element_key(y)) == (x == y)

    def test_bad_encodings_rejected(self):
        for bad in (["a"], ["q", "x"], "a", ["t", [["a"]]]):
            with pytest.raises(WorkspaceError):
                decode_element(bad)


class TestWorkspaceSerialization:
    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_round_trip_byte_identical(self, name, bundled_workspaces):
        w = bundled_workspaces[name]
        text = dumps_workspace(w)
        again = dumps_workspace(loads_workspace(text))
        assert text == again

    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_bundled_data_files_match_builders(self, name, bundled_workspaces):
        ref = resources.files("segaltopos").joinpath("data", f"{name}.json")
        assert ref.is_file()
        assert ref.read_text() == dumps_workspace(bundled_workspaces[name])

    def test_cli_bundles_are_the_builders_and_the_data_files(self):
        data = Path(segaltopos.__file__).resolve().parent / "data"
        assert cli_bundle_names() == sorted(BUNDLES) == sorted(p.stem for p in data.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(BUNDLES))
    def test_bundles_validate(self, name, bundled_workspaces):
        assert bundled_workspaces[name].validate() == []

    def test_unsupported_format_rejected(self):
        data = encode_workspace(BUNDLES["finset"]())
        data["format"] = 99
        with pytest.raises(WorkspaceError):
            decode_workspace(data)

    def test_unknown_presheaf_reference_rejected(self):
        data = encode_workspace(BUNDLES["finset"]())
        data["morphisms"]["id_one"]["dom"] = "missing"
        with pytest.raises(WorkspaceError):
            decode_workspace(data)

    def test_broken_component_rejected(self):
        data = encode_workspace(BUNDLES["finset"]())
        comp = data["morphisms"]["id_two"]["component"]
        (ckey,) = comp
        table = comp[ckey]
        keys = sorted(table)
        # make the table non-total by dropping one entry
        del table[keys[0]]
        with pytest.raises((WorkspaceError, ValueError)):
            decode_workspace(data)

    def test_add_morphism_checks_endpoints(self):
        w = BUNDLES["finset"]()
        one = finset_presheaf(["x"])
        two = finset_presheaf(["0", "1"])
        f = finset_function(one, two, {"x": "0"})
        with pytest.raises(WorkspaceError):
            w.add_morphism("bad", f, "two", "one")

    def test_a_bound_name_keeps_what_it_holds(self):
        # morphisms name "two" and a map names "fold_two": each may be
        # added again only as it is
        w = BUNDLES["finset"]()
        w.add_presheaf("two", finset_presheaf(["0", "1"]))
        with pytest.raises(WorkspaceError, match="presheaf 'two' is already bound"):
            w.add_presheaf("two", finset_presheaf(["0", "1", "2"]))
        with pytest.raises(WorkspaceError, match="morphism 'fold_two' is already bound"):
            w.add_morphism("fold_two", w.morphisms["id_two"], "two", "two")
        assert dumps_workspace(w) == dumps_workspace(BUNDLES["finset"]())

    def test_add_category_object_checks_its_part_names(self):
        # chain2_cat under the names of c2_cat's parts, under its own with
        # s and t swapped, and with s and t under one free name: each name
        # holds another part, so nothing is added (a file written with them
        # would not decode)
        w = BUNDLES["finset"]()
        chain2 = w.category_objects["chain2_cat"]
        own = w.category_object_refs["chain2_cat"]
        swapped = {**own, "s": own["t"], "t": own["s"]}
        one_name = {**own, "s": "ends", "t": "ends"}
        for refs, part in ((w.category_object_refs["c2_cat"], "C0"), (swapped, "s"), (one_name, "t")):
            with pytest.raises(WorkspaceError, match=f"'{refs[part]}' does not hold its {part}$"):
                w.add_category_object("mixed", chain2, refs)
        with pytest.raises(WorkspaceError, match="refs must name C0, C1, s, t and e"):
            w.add_category_object("mixed", chain2, {})
        assert "mixed" not in w.category_objects and "ends" not in w.morphisms
        # under free names its parts are added, and the file decodes again
        w.add_category_object("copy", chain2, {k: f"copy_{k}" for k in own})
        assert w.morphism_ends["copy_e"] == ("copy_C0", "copy_C1")
        text = dumps_workspace(w)
        assert dumps_workspace(loads_workspace(text)) == text

    def test_add_map_requires_known_morphism(self):
        w = BUNDLES["finset"]()
        with pytest.raises(WorkspaceError):
            w.add_map("alias", "missing")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each command's --json report and exit code, keyed by its arguments
CLI_GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "cli_golden.json").read_text())


class TestCli:
    def test_validate(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--workspace", "finset")
        assert code == 0
        assert '"ok": true' in out or "ok: true" in out

    @pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
    def test_text_report_is_the_json_report_line_by_line(self, capsys, key):
        # without --json each field is one "key: compact JSON" line, in key order
        want = CLI_GOLDEN[key]
        report = json.loads(want["stdout"]) if want["stdout"] else {}
        lines = "".join(f"{k}: {json.dumps(v, sort_keys=True)}\n" for k, v in sorted(report.items()))
        code, out, _ = run_cli(capsys, *key.split())
        assert (code, out) == (want["exit"], lines)

    def test_check_segal(self, capsys):
        code, out, _ = run_cli(capsys, "check-segal", "--workspace", "finset", "c2_cat")
        assert code == 0
        assert "segal: true" in out

    def test_check_complete(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-complete", "--workspace", "finset", "chain2_cat"
        )
        assert code == 0
        assert "complete: true" in out

    def test_check_univalent_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-univalent", "--workspace", "finset", "--json", "u_sub"
        )
        assert code == 0
        report = json.loads(out)
        assert report["univalent"] is True
        assert report["oracle_agrees"] is True

    def test_check_univalent_negative_still_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-univalent", "--workspace", "finset", "--json", "not_univalent_fold"
        )
        assert code == 0
        report = json.loads(out)
        assert report["univalent"] is False
        assert report["oracle_agrees"] is True

    def test_nerve(self, capsys):
        code, out, _ = run_cli(
            capsys, "nerve", "--workspace", "finset", "--json", "u_sub"
        )
        assert code == 0
        report = json.loads(out)
        # the nerve of a subobject of a two-point set is the walking arrow
        assert report["level_sizes"] == {"0": 2, "1": 3, "2": 4, "3": 5}

    def test_enumerate_univalent(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate-univalent",
            "--workspace",
            "finset",
            "--json",
            "--max-e",
            "2",
            "--max-b",
            "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["fiber_signatures"] == [[], [0], [0, 1], [1]]

    def test_poset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poset",
            "--workspace",
            "finset",
            "--json",
            "--max-e",
            "2",
            "--max-b",
            "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["at_most_one_square_each"] is True

    def test_classify(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--workspace", "finset", "--json", "one_into_two"
        )
        assert code == 0
        assert json.loads(out)["biconditional_holds"] is True

    def test_classify_rejects_non_mono(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--workspace", "finset", "fold_two")
        assert code == 2
        assert "not a mono" in err

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(
            capsys, "check-univalent", "--workspace", "finset", "missing"
        )
        assert code == 2
        assert "missing" in err

    def test_missing_workspace_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "validate", "--workspace", str(tmp_path / "nope.json")
        )
        assert code == 2

    def test_malformed_workspace_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", "--workspace", str(path))
        assert code == 2
        assert "parse error" in err

    def test_bad_workspace_exits_two(self, capsys, tmp_path):
        data = encode_workspace(BUNDLES["finset"]())
        data["format"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--workspace", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "format 99" in err

    @pytest.mark.parametrize("command", ["enumerate-univalent", "poset"])
    def test_enumeration_over_other_index_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--workspace", "c2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "one-point index" in err

    @pytest.mark.parametrize("flag", ["--max-e", "--max-b"])
    def test_negative_enumeration_bound_exits_two(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate-univalent", "--workspace", "finset", flag, "-1"])
        assert exc.value.code == 2
        assert "natural number" in capsys.readouterr().err

    def test_negative_bound_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-univalent", "--workspace", "finset", "--bound", "-1", "u_sub"])
        assert exc.value.code == 2
        assert "natural number" in capsys.readouterr().err

    def test_tiny_bound_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys, "check-univalent", "--workspace", "finset", "--bound", "2", "u_sub"
        )
        assert code == 3

    @pytest.mark.parametrize(
        "bound,stage",
        [(2, "fin_limit"), (10, "dependent_product"), (3, "sieves"), (10, "fiber_signatures"), (20, "composable_pairs")],
    )
    def test_bound_error_names_its_stage(self, capsys, bound, stage):
        # a case for each stage a command can stop in
        argv = {
            "fin_limit": ["check-univalent", "--workspace", "finset", "u_sub"],
            "dependent_product": ["check-univalent", "--workspace", "s3", "natural_action"],
            "sieves": ["classify", "--workspace", "c2", "orbit_inclusion"],
            "fiber_signatures": ["enumerate-univalent", "--workspace", "finset", "--max-e", "3", "--max-b", "3"],
            "composable_pairs": ["poset", "--workspace", "finset", "--max-e", "3", "--max-b", "3"],
        }[stage]
        code, out, err = run_cli(capsys, *argv, "--bound", str(bound))
        assert code == 3
        assert out == ""
        assert err.startswith(f"resource bound exceeded in {stage}: intermediate size ")
        assert err.rstrip().endswith(f"exceeds bound {bound}")

    def test_fin_limit_reports_the_size_of_the_limit(self, capsys):
        # not_univalent_fold's first limit is c2_cat's four composable pairs
        code, out, err = run_cli(capsys, "check-univalent", "--workspace", "finset", "--bound", "1", "not_univalent_fold")
        assert (code, out) == (3, "")
        assert err == "resource bound exceeded in fin_limit: intermediate size 4 exceeds bound 1\n"

    @pytest.mark.parametrize("command", ["enumerate-univalent", "poset"])
    def test_enumeration_keeps_the_bound(self, capsys, command):
        # the largest limit the sweep builds is the 795 composable pairs of
        # (0, 0, 3), within the bound, so the report is that of the
        # default bound; the bound's stops are pinned by the test above
        sizes = ("--workspace", "finset", "--max-e", "3", "--max-b", "3")
        bounded = run_cli(capsys, command, *sizes, "--bound", "1000")
        assert bounded[0] == 0 and bounded[2] == ""
        assert bounded == run_cli(capsys, command, *sizes)

    @pytest.mark.parametrize(
        "command,max_e,max_b,stage,size",
        [
            # 2001 signatures of empty fibers, whose composable pairs are
            # counted before any map is built: 101 points have 101^3
            ("enumerate-univalent", "0", "2000", "composable_pairs", 1030301),
            # counted before any is listed
            ("enumerate-univalent", "200", "200", "fiber_signatures", 7907315441458917),
            ("poset", "200", "200", "fiber_signatures", 7907315441458917),
        ],
        ids=["many-empty-fibers", "many-signatures", "many-signatures-poset"],
    )
    def test_a_large_sweep_exits_three(self, capsys, command, max_e, max_b, stage, size):
        code, out, err = run_cli(
            capsys, command, "--workspace", "finset", "--max-e", max_e, "--max-b", max_b
        )
        assert (code, out) == (3, "")
        assert err == f"resource bound exceeded in {stage}: intermediate size {size} exceeds bound 1000000\n"

    def test_workspace_from_file(self, capsys, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(dumps_workspace(BUNDLES["finset"]()))
        code, out, _ = run_cli(
            capsys, "check-univalent", "--workspace", str(path), "--json", "u_point"
        )
        assert code == 0
        assert json.loads(out)["univalent"] is True

    def test_output_deterministic_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "check-univalent", "--workspace", "finset", "--json", "u_sub"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_parallel_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--workspace", "finset", "--parallel", "2"])
        assert exc.value.code == 2

    def test_c2_bundle_univalence(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-univalent", "--workspace", "c2", "--json", "free_over_point"
        )
        assert code == 0
        assert json.loads(out)["univalent"] is False

    def test_sierpinski_bundle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-univalent",
            "--workspace",
            "sierpinski",
            "--json",
            "open_over_point",
        )
        assert code == 0
        report = json.loads(out)
        assert report["univalent"] is True


# ---------------------------------------------------------------------------
# the exit-code contract on malformed workspace files

SRC = str(Path(segaltopos.__file__).resolve().parent.parent)
FINSET_DATA = json.loads(
    resources.files("segaltopos").joinpath("data", "finset.json").read_text()
)


def _leaves(data, path=()):
    """(path, value) of every scalar or empty container in a JSON value."""
    if isinstance(data, dict) and data:
        for k, v in data.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(data, list) and data:
        for i, v in enumerate(data):
            yield from _leaves(v, path + (i,))
    else:
        yield path, data


FINSET_LEAVES = list(_leaves(FINSET_DATA))


def _mutated(path, value):
    data = copy.deepcopy(FINSET_DATA)
    node = data
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return data


def _with_index_objects_five():
    data = copy.deepcopy(FINSET_DATA)
    data["index"] = {"objects": 5}
    return data



DEEP_JSON = "[" * 100_000 + "]" * 100_000


def deep_element_workspace() -> str:
    """The c2 bundle with an element 420 ["t", [...]] levels deep: valid
    JSON, on which the element decoder, not the parser, runs out of stack."""
    data = json.loads(resources.files("segaltopos").joinpath("data", "c2.json").read_text())
    element = ["a", "x"]
    for _ in range(420):
        element = ["t", [element]]
    data["presheaves"]["fixed2"]["at"]['["a","*"]'].append(element)
    return json.dumps(data)


def _swap_s_and_e(data):
    cat = data["category_objects"]["c2_cat"]
    cat["s"], cat["e"] = cat["e"], cat["s"]


# a family that sends the key k to two values
DUPLICATE_KEY_FAMILY = ["f", [[["a", "k"], ["a", "v"]], [["a", "k"], ["a", "w"]]]]


class TestWorkspaceInputContract:
    @pytest.mark.parametrize(
        "data,extra",
        [([], []), ([], ["--bound", "5"]), (_with_index_objects_five(), [])],
        ids=["empty-list", "empty-list-bound", "index-objects-five"],
    )
    def test_malformed_file_exits_two_without_traceback(self, tmp_path, data, extra):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "segaltopos.cli", "validate", "--workspace", str(path), *extra],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", sorted(FINSET_DATA["presheaves"]))
    def test_set_at_unknown_stage_exits_two(self, capsys, tmp_path, name):
        data = copy.deepcopy(FINSET_DATA)
        data["presheaves"][name]["at"]['["a","junk"]'] = [["a", "z1"]]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data))
        for argv in (["validate"], ["check-univalent", "u_sub"], ["nerve", "one_into_two"]):
            command, *names = argv
            code, out, err = run_cli(capsys, command, "--workspace", str(path), *names)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "not an index object" in err

    @pytest.mark.parametrize("bound", [True, 1.7, "12", -5])
    def test_bound_must_be_a_natural_number(self, bound):
        data = copy.deepcopy(FINSET_DATA)
        data["bound"] = bound
        with pytest.raises(WorkspaceError, match="bad bound"):
            decode_workspace(data)

    def test_integer_bound_is_kept(self):
        data = copy.deepcopy(FINSET_DATA)
        data["bound"] = 123456
        assert decode_workspace(data).topos.bound == 123456

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(FINSET_LEAVES),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-2, 6),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=3),
            st.sampled_from([v for _, v in FINSET_LEAVES]),
            st.lists(st.sampled_from(["a", "t", "f", "*", "0"]), max_size=3),
            st.just({}),
        ),
    )
    def test_single_leaf_mutation_keeps_exit_contract(self, leaf, value):
        path, _ = leaf
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws.json"
            ws.write_text(json.dumps(_mutated(path, value)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["validate", "--workspace", str(ws)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")

    @pytest.mark.parametrize(
        "bundle,name", [("c2", "free_over_point"), ("sierpinski", "open_over_point")]
    )
    def test_every_field_replaced_keeps_exit_contract(self, tmp_path, bundle, name):
        # the value of every object member of the bundle, containers
        # included, in turn replaced by a value of each JSON type
        text = resources.files("segaltopos").joinpath("data", f"{bundle}.json").read_text()
        ws = tmp_path / "ws.json"
        checked = 0
        for path in _field_paths(json.loads(text)):
            for value in (None, 7, "zz", [], {}, -1, 1.5, True):
                data = json.loads(text)
                node = data
                for k in path[:-1]:
                    node = node[k]
                node[path[-1]] = value
                ws.write_text(json.dumps(data))
                for argv in (["validate"], ["check-univalent", name]):
                    command, *names = argv
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = main([command, "--workspace", str(ws), *names])
                        except Exception as exc:
                            raise AssertionError(f"{command} with {path} = {value!r}") from exc
                    assert code in (0, 1, 2, 3), (command, path, value)
                    assert "Traceback" not in err.getvalue()
                    if code == 2:
                        assert err.getvalue().startswith("error: "), (command, path, value)
                    checked += 1
                    if code == 2:
                        # the workspace did not load, and check-univalent
                        # loads it the same way
                        break
        assert checked > 400

    def test_missing_restriction_is_reported(self, tmp_path):
        data = json.loads(resources.files("segaltopos").joinpath("data", "c2.json").read_text())
        data["presheaves"]["fixed2"]["restrict"] = {}
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--workspace", str(ws)]) == 2
        assert err.getvalue().startswith("error: invalid workspace: ")
        assert "morphism fixed2_to_point: no restriction along Atom('e') in the domain" in err.getvalue()

    def test_category_object_breaking_a_law_exits_two(self, capsys, tmp_path):
        # c2_cat with "g after e" = e: e is no left unit, so the Cayley
        # representation sends (e, g) and (g, g) to composites that their
        # factors' representations do not compose to
        data = copy.deepcopy(FINSET_DATA)
        table = data["category_objects"]["c2_cat"]["m"]['["a","*"]']
        table['["t",[["a","e"],["a","*"],["a","g"]]]'] = ["a", "e"]
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--workspace", str(ws))
        assert (code, out) == (2, "")
        assert err == (
            "error: invalid workspace: category object c2_cat: composition fails at Atom('*') on "
            "(Atom('e'),Atom('g')): its rep is not rep f2 after rep f1; category object c2_cat: "
            "composition fails at Atom('*') on (Atom('g'),Atom('g')): its rep is not rep f2 after rep f1\n"
        )

    @pytest.mark.parametrize(
        "path,value,line",
        [
            (
                # e(0) = the arrow 0 -> 1
                ("morphisms", "chain2_e", "component", '["a","*"]', '["a","0"]'),
                ["t", [["a", "0"], ["a", "1"]]],
                "identity of Atom('0') has wrong endpoints at Atom('*')",
            ),
            (
                # m(id 0, 0 -> 1) = id 0, which does not end at 1
                ("category_objects", "chain2_cat", "m", '["a","*"]', '["t",[["t",[["a","0"],["a","0"]]],["a","0"],["t",[["a","0"],["a","1"]]]]]'),
                ["t", [["a", "0"], ["a", "0"]]],
                "comp(Tup([Atom('0'), Atom('1')]),Tup([Atom('0'), Atom('0')])) has wrong endpoints at Atom('*')",
            ),
        ],
        ids=["identity-ends", "composite-ends"],
    )
    def test_category_object_breaking_an_endpoint_axiom_exits_two(self, capsys, tmp_path, path, value, line):
        # chain2_cat, the poset 0 <= 1, with one value of e or m changed:
        # the line names the object or the pair whose ends are wrong
        data = copy.deepcopy(FINSET_DATA)
        node = data
        for key in path[:-1]:
            node = node[key]
        assert path[-1] in node
        node[path[-1]] = value
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--workspace", str(ws))
        assert (code, out) == (2, "")
        assert err == f"error: invalid workspace: category object chain2_cat: {line}\n"

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_composite_listed_twice_exits_two(self, capsys, tmp_path, first):
        # the c2 bundle with a second, different value for e after e, before
        # or after the first: neither order may decide which one counts
        data = json.loads(resources.files("segaltopos").joinpath("data", "c2.json").read_text())
        comp = data["index"]["comp"]
        comp.insert(0 if first else len(comp), [["a", "e"], ["a", "e"], ["a", "g"]])
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--workspace", str(ws))
        assert (code, out) == (2, "")
        assert err == "error: index.comp: composite of Atom('e') after Atom('e') listed twice\n"

    @pytest.mark.parametrize(
        "mutate,line",
        [
            (
                lambda d: d["index"]["comp"][0].pop(),
                "bad composition entry: [['t', [['a', 'id'], ['a', '*']]], ['t', [['a', 'id'], ['a', '*']]]]",
            ),
            (
                lambda d: d["presheaves"]["c2_objects"]["restrict"].update({'["a","zz"]': {}}),
                "restriction along unknown morphism Atom('zz')",
            ),
            (
                lambda d: d["morphisms"]["c2_e"]["component"].update({'["a","junk"]': {}}),
                "component at Atom('junk') has no set at an endpoint",
            ),
            (_swap_s_and_e, "category object 'c2_cat': s, t or e has the wrong endpoints"),
            (
                lambda d: d["presheaves"]["c2_objects"]["at"]['["a","*"]'].append(DUPLICATE_KEY_FAMILY),
                "duplicate family key Atom('k')",
            ),
            (
                lambda d: d["presheaves"]["c2_objects"]["at"].update({"not json": []}),
                "bad element key: 'not json'",
            ),
        ],
        ids=["comp-not-a-triple", "unknown-morphism", "unknown-stage", "c2-cat-s-e-swapped", "duplicate-family-key", "key-not-json"],
    )
    def test_decode_error_is_one_line(self, capsys, tmp_path, mutate, line):
        # the finset bundle with one defect that the decoder meets before
        # any law is checked: exit 2 and the one line that names it
        data = copy.deepcopy(FINSET_DATA)
        mutate(data)
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--workspace", str(ws))
        assert (code, out) == (2, "")
        assert err == f"error: {line}\n"
        assert "Traceback" not in err

    def test_invalid_index_category_error_is_the_same_under_every_hash_seed(self, tmp_path):
        # the c2 bundle with e after e = g: rep e sends both arrows to g,
        # so it is not the identity, and every composite fails; the line
        # lists them in the order of the arrows, whatever the hash seed
        data = json.loads(resources.files("segaltopos").joinpath("data", "c2.json").read_text())
        for entry in data["index"]["comp"]:
            if entry[:2] == [["a", "e"], ["a", "e"]]:
                entry[2] = ["a", "g"]
        ws = tmp_path / "ws.json"
        ws.write_text(json.dumps(data))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "segaltopos.cli", "validate", "--workspace", str(ws)],
                env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                capture_output=True,
                timeout=60,
            )
            for seed in ("1", "2")
        ]
        assert [(proc.returncode, proc.stdout) for proc in runs] == [(2, b"")] * 2
        fails = "composition fails on ({}): its rep is not rep f2 after rep f1"
        pairs = ["Atom('e'),Atom('e')", "Atom('e'),Atom('g')", "Atom('g'),Atom('e')", "Atom('g'),Atom('g')"]
        line = "; ".join(["unit law fails to follow: rep of Atom('e') is not the identity"] + [fails.format(p) for p in pairs])
        assert runs[0].stderr == runs[1].stderr == f"error: invalid index category: {line}\n".encode()

    def test_non_utf8_file_exits_two(self, tmp_path):
        ws = tmp_path / "ws.json"
        ws.write_bytes(b"\xff\xfe{")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--workspace", str(ws)]) == 2
        assert err.getvalue() == f"error: workspace {str(ws)!r}: not UTF-8 at byte 0\n"

    def test_deeply_nested_json_exits_two(self, tmp_path):
        ws = tmp_path / "ws.json"
        ws.write_text(DEEP_JSON)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--workspace", str(ws)]) == 2
        assert err.getvalue() == f"error: workspace {str(ws)!r}: JSON nested too deeply\n"

    def test_deeply_nested_element_exits_two(self, tmp_path):
        ws = tmp_path / "ws.json"
        ws.write_text(deep_element_workspace())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--workspace", str(ws)]) == 2
        assert err.getvalue() == f"error: workspace {str(ws)!r}: an element is nested too deeply\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (DEEP_JSON, "JSON nested too deeply"),
            (deep_element_workspace(), "an element is nested too deeply"),
        ],
        ids=["json", "element"],
    )
    def test_deep_nesting_is_a_workspace_error(self, text, message):
        with pytest.raises(WorkspaceError) as exc:
            loads_workspace(text)
        assert str(exc.value) == message


def _field_paths(data, path=()):
    """The path of every member of every object inside a JSON value."""
    if isinstance(data, list):
        for i, v in enumerate(data):
            yield from _field_paths(v, path + (i,))
    elif isinstance(data, dict):
        for k, v in data.items():
            yield path + (k,)
            yield from _field_paths(v, path + (k,))


# ---------------------------------------------------------------------------
# what a CLI process imports

GOLDEN = json.loads((Path(SRC).parent / "perfbench" / "cli_golden.json").read_text())
# Runs the CLI module as `python -m` does, then writes to stderr which of
# the given modules, ones the command has no use for, it loaded.
COLD_START = """
import runpy, sys
try:
    runpy.run_module("segaltopos.cli", run_name="__main__", alter_sys=True)
finally:
    unused = {unused!r}
    sys.stderr.write("loaded:" + "".join(" " + m for m in unused if m in sys.modules))
"""


def _cold_start(key: str, unused: tuple) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", COLD_START.format(unused=unused), *key.split(), "--json"],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("key", ["check-univalent --workspace finset u_sub", "validate --workspace c2"])
def test_cli_process_loads_no_dataclasses_and_no_builders(key):
    unused = ("dataclasses", "segaltopos.bundles", "segaltopos.corpus")
    proc = _cold_start(key, unused)
    assert proc.stderr.endswith("loaded:")
    assert (proc.stdout, proc.returncode) == (GOLDEN[key]["stdout"], GOLDEN[key]["exit"])


def test_a_sweep_that_does_not_fork_loads_no_pickle_or_signal():
    # the sweep decides its maps in a plain loop, in this process
    key = "poset --workspace finset --max-e 2 --max-b 2"
    proc = _cold_start(key, ("pickle", "signal"))
    assert proc.stderr.endswith("loaded:")
    assert (proc.stdout, proc.returncode) == (GOLDEN[key]["stdout"], GOLDEN[key]["exit"])

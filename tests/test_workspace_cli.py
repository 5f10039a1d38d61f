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

from segaltopos.bundles import build_bundle, bundle_names
from segaltopos.cli import main
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
    @pytest.mark.parametrize("name", bundle_names())
    def test_round_trip_byte_identical(self, name, bundled_workspaces):
        w = bundled_workspaces[name]
        text = dumps_workspace(w)
        again = dumps_workspace(loads_workspace(text))
        assert text == again

    @pytest.mark.parametrize("name", bundle_names())
    def test_bundled_data_files_match_builders(self, name, bundled_workspaces):
        ref = resources.files("segaltopos").joinpath("data", f"{name}.json")
        assert ref.is_file()
        assert ref.read_text() == dumps_workspace(bundled_workspaces[name])

    @pytest.mark.parametrize("name", bundle_names())
    def test_bundles_validate(self, name, bundled_workspaces):
        assert bundled_workspaces[name].validate() == []

    def test_unsupported_format_rejected(self):
        data = encode_workspace(build_bundle("finset"))
        data["format"] = 99
        with pytest.raises(WorkspaceError):
            decode_workspace(data)

    def test_unknown_presheaf_reference_rejected(self):
        data = encode_workspace(build_bundle("finset"))
        data["morphisms"]["id_one"]["dom"] = "missing"
        with pytest.raises(WorkspaceError):
            decode_workspace(data)

    def test_broken_component_rejected(self):
        data = encode_workspace(build_bundle("finset"))
        comp = data["morphisms"]["id_two"]["component"]
        (ckey,) = comp
        table = comp[ckey]
        keys = sorted(table)
        # make the table non-total by dropping one entry
        del table[keys[0]]
        with pytest.raises((WorkspaceError, ValueError)):
            decode_workspace(data)

    def test_add_morphism_checks_endpoints(self):
        w = build_bundle("finset")
        one = finset_presheaf(["x"])
        two = finset_presheaf(["0", "1"])
        f = finset_function(one, two, {"x": "0"})
        with pytest.raises(WorkspaceError):
            w.add_morphism("bad", f, "two", "one")

    def test_add_map_requires_known_morphism(self):
        w = build_bundle("finset")
        with pytest.raises(WorkspaceError):
            w.add_map("alias", "missing")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_validate(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--workspace", "finset")
        assert code == 0
        assert '"ok": true' in out or "ok: true" in out

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
        data = encode_workspace(build_bundle("finset"))
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

    @pytest.mark.parametrize("bound,stage", [(2, "fin_limit"), (5, "associativity")])
    def test_bound_error_names_its_stage(self, capsys, bound, stage):
        code, out, err = run_cli(
            capsys, "check-univalent", "--workspace", "finset", "--bound", str(bound), "u_sub"
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"resource bound exceeded in {stage}: intermediate size ")
        assert err.rstrip().endswith(f"exceeds bound {bound}")

    def test_workspace_from_file(self, capsys, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(dumps_workspace(build_bundle("finset")))
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

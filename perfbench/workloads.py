"""Workload definitions: inputs, one operation, and the check of its output.

Each workload object has ``setup()`` (imports are done by then; decode or
build the inputs), ``op(i)`` (one timed operation, returning its raw
output) and ``check(i, out)`` (a list of problems, empty when the output
is right).  Checks run outside the timed region.

The package is imported from ``src/`` of the checkout this file sits in,
so the benchmark runs without installing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from segaltopos.corpus import finset_function, finset_presheaf  # noqa: E402
from segaltopos.univalence import (  # noqa: E402
    enumerate_univalent,
    fiber_oracle_univalent,
    is_univalent,
)
from segaltopos.workspace import decode_workspace  # noqa: E402

GOLDEN_PATH = HERE / "cli_golden.json"

# The largest sweep the pipeline decides within criterion 01's 60 s gate.
SWEEP_MAX_E = 3
SWEEP_MAX_B = 3
SWEEP_EXPECTED = [(), (0,), (0, 1), (1,)]

# Hand computation (ROADMAP item 4): Iso(X, X) of the natural S3-set is
# Sym(3) under conjugation, so the equivalence carrier has 6 elements and
# X -> 1 is not univalent.
S3_EXPECTED = {
    "univalent": False,
    "mono": False,
    "level_sizes": {0: 1, 1: 27, 2: 729, 3: 19683},
    "carrier_sizes": {"Atom('*')": 6},
}

# Small-bundle CLI commands.  Every entry finishes in well under a second;
# the two exit-2 entries keep the usage-error path in the mix.
CLI_MENU = [
    ["validate", "--workspace", "finset"],
    ["validate", "--workspace", "c2"],
    ["validate", "--workspace", "sierpinski"],
    ["check-segal", "--workspace", "finset", "c2_cat"],
    ["check-segal", "--workspace", "finset", "chain2_cat"],
    ["check-complete", "--workspace", "finset", "c2_cat"],
    ["check-complete", "--workspace", "finset", "chain2_cat"],
    ["nerve", "--workspace", "finset", "u_sub"],
    ["nerve", "--workspace", "finset", "not_univalent_fold"],
    ["nerve", "--workspace", "c2", "free_over_point"],
    ["nerve", "--workspace", "sierpinski", "open_over_point"],
    ["check-univalent", "--workspace", "finset", "u_sub"],
    ["check-univalent", "--workspace", "finset", "not_univalent_fold"],
    ["check-univalent", "--workspace", "finset", "not_univalent_id"],
    ["check-univalent", "--workspace", "finset", "u_empty_point"],
    ["check-univalent", "--workspace", "c2", "free_over_point"],
    ["check-univalent", "--workspace", "c2", "fixed2_over_point"],
    ["check-univalent", "--workspace", "sierpinski", "open_over_point"],
    ["classify", "--workspace", "finset", "one_into_two"],
    ["classify", "--workspace", "finset", "empty_into_two"],
    ["classify", "--workspace", "sierpinski", "open_to_point"],
    ["classify", "--workspace", "c2", "orbit_inclusion"],
    ["classify", "--workspace", "finset", "fold_two"],
    ["check-univalent", "--workspace", "finset", "no_such_map"],
    ["poset", "--workspace", "finset", "--max-e", "2", "--max-b", "2"],
]
CLI_BUNDLES = ["finset", "c2", "sierpinski"]
CLI_TIMEOUT_S = 60


class InProcess:
    """Workloads whose operations run in this process."""

    in_process = True

    def peak_rss_mib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "this process"


def load_bundle(name: str):
    """Decode a bundled workspace the way the CLI does."""
    text = resources.files("segaltopos").joinpath("data", f"{name}.json").read_text()
    return decode_workspace(json.loads(text))


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_argv(argv: list[str]) -> list[str]:
    return argv + ["--json"]


def sweep_signatures(max_e: int, max_b: int) -> list[tuple]:
    """Every fiber signature enumerate_univalent considers: non-decreasing
    tuples of at most max_b fiber sizes summing to at most max_e."""
    out = []

    def build(prefix, remaining_b, remaining_e):
        out.append(tuple(prefix))
        if remaining_b == 0:
            return
        start = prefix[-1] if prefix else 0
        for size in range(start, remaining_e + 1):
            build(prefix + [size], remaining_b - 1, remaining_e - size)

    build([], max_b, max_e)
    return sorted(out)


def oracle_verdict(signature: tuple) -> bool:
    """fiber_oracle_univalent on a map of finite sets with these fibers."""
    es = {f"e{i}_{j}": f"b{i}" for i, n in enumerate(signature) for j in range(n)}
    E = finset_presheaf(sorted(es))
    B = finset_presheaf([f"b{i}" for i in range(len(signature))])
    return fiber_oracle_univalent(finset_function(E, B, es))


class FinsetSweep(InProcess):
    """enumerate_univalent over FinSet with |E|, |B| <= 3: 18 maps."""

    name = "finset_sweep"

    def __init__(self, seed: int, expected=None):
        self.expected = SWEEP_EXPECTED if expected is None else expected
        self.signatures = sweep_signatures(SWEEP_MAX_E, SWEEP_MAX_B)
        self.maps_per_op = len(self.signatures)
        # Computed before any tracing starts, so the check's own oracle
        # calls stay out of the per-layer figures.
        self.oracle = {sig: oracle_verdict(sig) for sig in self.signatures}

    def setup(self):
        # The same input as `segaltopos enumerate-univalent --workspace finset`.
        self.topos = load_bundle("finset").topos

    def op(self, i):
        return enumerate_univalent(self.topos, SWEEP_MAX_E, SWEEP_MAX_B)

    def check(self, i, out):
        found = [sig for sig, _ in out]
        problems = []
        if found != list(self.expected):
            problems.append(f"signatures {found} != expected {list(self.expected)}")
        by_oracle = [sig for sig in self.signatures if self.oracle[sig]]
        if found != by_oracle:
            problems.append(f"pipeline {found} disagrees with fiber oracle {by_oracle}")
        return problems


class S3Action(InProcess):
    """is_univalent on the natural S3 action over the point."""

    name = "s3_action"
    maps_per_op = 1

    def __init__(self, seed: int, expected=None):
        self.expected = S3_EXPECTED if expected is None else expected

    def setup(self):
        w = load_bundle("s3")
        self.p = w.morphisms[w.maps["natural_action"]]

    def op(self, i):
        return is_univalent(self.p, name="natural_action")

    def check(self, i, out):
        got = {
            "univalent": out.univalent,
            "mono": out.mono,
            "level_sizes": out.level_sizes,
            "carrier_sizes": out.carrier_sizes,
        }
        return [
            f"{k}: {got[k]!r} != expected {v!r}"
            for k, v in self.expected.items()
            if got[k] != v
        ]


class CliMix:
    """A seeded order of fresh `segaltopos ... --json` processes.

    The seed only orders the commands: each round runs every menu entry
    once, in an order drawn from the seed.  With ``in_process`` the same
    command list runs through ``cli.main`` in this process instead.
    """

    name = "cli_mix"
    maps_per_op = 0  # not every command decides a map

    def __init__(self, seed: int, expected=None, in_process: bool = False):
        self.rng = random.Random(seed)
        self.expected = expected
        self.in_process = in_process
        self.order = []
        self.child_rss = []

    def setup(self):
        # What every CLI process does before its command: import the CLI
        # and decode the workspace it names.
        from segaltopos import cli  # noqa: F401

        for name in CLI_BUNDLES:
            load_bundle(name)
        if self.expected is None:
            self.expected = json.loads(GOLDEN_PATH.read_text())
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def command(self, i) -> list[str]:
        while len(self.order) <= i:
            round_ = list(CLI_MENU)
            self.rng.shuffle(round_)
            self.order.extend(round_)
        return self.order[i]

    def op(self, i):
        argv = cli_argv(self.command(i))
        if self.in_process:
            return run_cli_in_process(argv)
        stdout, code, rss = run_cli_process(argv, self.env)
        self.child_rss.append(rss)
        return stdout, code

    def peak_rss_mib(self):
        return max(self.child_rss, default=0.0), f"n={len(self.child_rss)} processes, max"

    def check(self, i, out):
        stdout, code = out
        want = self.expected[cli_key(self.command(i))]
        problems = []
        if code != want["exit"]:
            problems.append(f"exit {code} != expected {want['exit']}")
        if stdout != want["stdout"]:
            problems.append("stdout differs from the expected report")
        return [f"{cli_key(self.command(i))}: {p}" for p in problems]


def run_cli_process(argv: list[str], env: dict):
    """Run one CLI process; return (stdout text, exit code, peak RSS MiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "segaltopos.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    )
    # A watchdog instead of communicate(timeout=...): communicate reaps the
    # child, and wait4 below needs to reap it to read its peak RSS.
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return stdout.decode(), proc.returncode, usage.ru_maxrss / 1024


def run_cli_in_process(argv: list[str]):
    """Run cli.main in this process; return (stdout text, exit code)."""
    from segaltopos import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    return buf.getvalue(), code


WORKLOADS = {w.name: w for w in (FinsetSweep, CliMix, S3Action)}

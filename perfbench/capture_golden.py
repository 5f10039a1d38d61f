"""Write cli_golden.json: the exit code and stdout of every cli_mix command.

The expected outputs are those of the commit the benchmark was defined on;
the program must keep reproducing them byte for byte.  Re-run this only on
purpose, when a report format is meant to change:

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import os

from workloads import CLI_MENU, GOLDEN_PATH, SRC, cli_argv, cli_key, run_cli_process


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = {}
    for argv in CLI_MENU:
        stdout, code, _ = run_cli_process(cli_argv(argv), env)
        golden[cli_key(argv)] = {"exit": code, "stdout": stdout}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()

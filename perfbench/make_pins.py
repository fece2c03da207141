#!/usr/bin/env python3
"""Write ``pins.json``: the outputs every benchmark op is checked against.

Run from the repository root on a commit whose outputs are known good:

    python3 perfbench/make_pins.py

Each op runs once through ``ringlab.cli.main``.  Analyze reports are made
with ``--no-cache``, so a pinned report is what an uncached
``harness.analyze`` returns.  Regenerate only when a change alters output on
purpose, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def output(cli, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())


def main() -> int:
    cli = run.import_ringlab().cli
    pins = {"prop": {}, "analyze": {}, "verify": {}}
    for ops in run.WORKLOADS.values():
        for op in ops:
            table = pins[op["kind"]]
            if op["key"] in table:
                continue
            if op["kind"] == "prop":
                rc, got = output(cli, op["argv"])
                table[op["key"]] = {"rc": rc, "holds": got["holds"],
                                    "witness": got["witness"]}
            elif op["kind"] == "analyze":
                argv = op["argv"][:-1] + ["--no-cache"]
                rc, table[op["key"]] = output(cli, argv)
            else:
                rc, table[op["key"]] = output(cli, op["argv"])
            print(f"pinned {op['kind']} {op['key']} (exit {rc})",
                  file=sys.stderr)
    fingerprints = {pins["analyze"][e]["fingerprint"]
                    for e in run.ANALYZE_CACHED}
    if len(fingerprints) != len(run.ANALYZE_CACHED):
        raise SystemExit("analyze-cached has expressions with equal tables; "
                         "the cache would return the wrong name")
    with open(run.PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

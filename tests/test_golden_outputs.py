"""The ``radical``, ``ideals``, ``verify`` and order-4096 ``prop`` outputs,
checked against recorded goldens.

``radical`` prints the maximal left ideals, ``radical --json`` the radicals
and ``ideals --json`` the full lattices, so a change in how any of them is
computed shows here as a changed byte.  The ``prop`` goldens pin triple
scans at the largest order ringlab builds, and the per-element predicates
and whole ``analyze`` reports on rings above order 256, where the
benchmark's pins stop.  The ``verify`` goldens pin the whole rule suite,
including the corpus entries skipped by name at small caps.  Each golden
is the exit code, the length and the SHA-256 of stdout; the lattices of
``T(4, Z(2))`` alone print 436 kB.  To record them again after a
deliberate change of output::

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ringlab import cli

GOLDENS = Path(__file__).with_name("golden_outputs.json")

Z2_8 = ("Prod(Prod(Prod(Z(2), Z(2)), Prod(Z(2), Z(2))), "
        "Prod(Prod(Z(2), Z(2)), Prod(Z(2), Z(2))))")
RINGS = ["Z(4)", "T(3, Z(2))", "T(4, Z(2))", "M(2, Z(2))", "M(3, Z(2))",
         "WSC(0)", "Z(1)", Z2_8]
COMMANDS = [["radical"], ["radical", "--json"], ["ideals", "--json"]]
#: Triple scans at MAX_ORDER = 4096: two that hold, so every a is scanned,
#: and one with a witness at a = 1.
SCANS = [["prop", "nj_symmetric", "T(3, Z(4))", "--json"],
         ["prop", "weak_symmetric", "T(3, Z(4))", "--json"],
         ["prop", "nj_symmetric", "M(2, Z(8))", "--json"]]
#: Rings with late and early witnesses of exchange, J-quasipolarity and
#: semiperiodicity, and one (order 1024) where they are full scans.
PER_ELEMENT = ["T(4, Z(2))", "M(2, Z(5))", "M(2, Z(3))", "Z(6)"]
REPORTS = ([["prop", p, expr, "--json"] for expr in PER_ELEMENT
            for p in ("exchange", "j_quasipolar", "semiperiodic")]
           + [["analyze", "--json", "--no-cache", expr]
              for expr in PER_ELEMENT])
#: The ideal-theoretic predicates where each fails with a nontrivial
#: witness (order 1024), commutativity's witness and a whole report at
#: order 4096.
IDEAL_THEORETIC = ([["prop", p, "Prod(M(2, Z(4)), Z(4))", "--json"]
                    for p in ("melt", "left_quasi_duo", "right_quasi_duo")]
                   + [["prop", "commutative", "T(3, Z(4))", "--json"],
                      ["analyze", "--json", "--no-cache", "T(3, Z(4))"]])

#: The rule suite at the default cap, at a cap that skips two corpus
#: entries and at one that skips sixteen, and its text table.
VERIFY = [["verify", "--json"], ["verify", "--json", "--max-order", "64"],
          ["verify", "--json", "--max-order", "8"], ["verify"]]


def _argvs() -> list:
    return ([cmd + [expr] for expr in RINGS for cmd in COMMANDS] + SCANS
            + REPORTS + IDEAL_THEORETIC + VERIFY)


def _run(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    text = out.getvalue().encode()
    return {"argv": argv, "exit": rc, "bytes": len(text),
            "sha256": hashlib.sha256(text).hexdigest()}


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_output_matches_golden(argv):
    goldens = {tuple(g["argv"]): g for g in json.loads(GOLDENS.read_text())}
    assert _run(argv) == goldens[tuple(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDENS.write_text(json.dumps([_run(a) for a in _argvs()], indent=1)
                       + "\n")

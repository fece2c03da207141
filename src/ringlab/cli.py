"""Command-line front end.

Subcommands: analyze, prop, radical, verify, search, ideals. Exit codes:
0 success (property holds / no rule failures), 1 property fails or a rule
failed, 2 usage, parse, size or other bad-argument errors.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from .core import (MAX_ORDER, BadArgumentError, RingError, SizeError,
                   canonical_fingerprint, mask_indices)
from . import cache as cache_mod
from . import exprs
from . import harness
from . import invariants as inv
from . import properties as props


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a versioned machine-readable report")
    p.add_argument("--max-order", type=int, default=MAX_ORDER, metavar="N",
                   help="size cap for constructed rings (default %(default)s; "
                        "WSC(n) grows fast: WSC(1) already has order 1024)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="cache directory, read by analyze, prop --json and "
                        "ideals --json (default $RINGLAB_CACHE or "
                        "~/.cache/ringlab)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read or write the cache (analyze's reports, "
                        "and the expression index of analyze, prop --json "
                        "and ideals --json)")
    p.add_argument("--threads", type=int, metavar="N",
                   default=os.cpu_count() or 1,
                   help="ignored, and kept for existing callers: every "
                        "command runs in one thread")


# built once per process; building it took about 1.5 ms of every main() call
@functools.lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Construct finite rings from combinator expressions, "
                    "compute radicals and ideal lattices, decide ring-class "
                    "properties, and verify the structural rule suite.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full report for one ring")
    p.add_argument("expr")
    _global_flags(p)

    p = subs.add_parser("prop", help="decide one property (exit 0 iff holds)")
    p.add_argument("name", help="property name, e.g. nj_symmetric")
    p.add_argument("expr")
    _global_flags(p)

    p = subs.add_parser("radical", help="radicals and maximal ideals")
    p.add_argument("expr")
    _global_flags(p)

    p = subs.add_parser("verify", help="run the structural rule suite")
    p.add_argument("--corpus", metavar="FILE", default=None,
                   help="expression list, one per line; '#' comments; a "
                        "'random seed=N count=M' line adds seeded rings")
    p.add_argument("--rules", metavar="LIST", default=None,
                   help="comma-separated rule ids, e.g. R1,R24")
    _global_flags(p)

    p = subs.add_parser("search",
                        help="hunt for a ring meeting hypotheses but not a "
                             "conclusion")
    p.add_argument("--hyp", required=True, metavar="P1,P2",
                   help="comma-separated hypothesis property names")
    p.add_argument("--not", dest="negated", required=True, metavar="Q",
                   help="conclusion property to violate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="max rings to examine (default: corpus size)")
    _global_flags(p)

    p = subs.add_parser("ideals", help="one-sided and two-sided ideal lattices")
    p.add_argument("expr")
    p.add_argument("--cap", type=int, default=inv.DEFAULT_LATTICE_CAP,
                   help="abort lattice enumeration beyond this many ideals")
    _global_flags(p)

    return parser


def _emit(obj: dict) -> None:
    sys.stdout.write(cache_mod._dumps(obj) + "\n")


def _open_cache(args):
    if args.no_cache:
        return None
    return cache_mod.ReportCache(args.cache)


class _ExpressionIndex:
    """The expression index entry for args.expr (parsed as tree) under
    args.max_order, for the commands that print a fingerprint: ``analyze``
    reads the report the entry names, ``prop --json`` and ``ideals --json``
    the fingerprint itself.  Without a cache, or for an expression that
    reads a file, whose text does not fix its ring, there is no entry and
    nothing is written."""

    def __init__(self, cache, args, tree):
        self.cache = None if exprs._reads_files(tree) else cache
        self.key = (args.expr, args.max_order)
        self.entry = (None if self.cache is None
                      else self.cache._index_get(*self.key))

    def report(self):
        """The cached report of the ring the entry names, under that name,
        or None."""
        if self.entry is None:
            return None
        fp, name = self.entry
        # on a miss the caller builds the ring and harness.analyze looks it
        # up again, which counts the miss
        report = self.cache.get(fp, valid=harness._is_report,
                                count_miss=False)
        return None if report is None else harness._renamed(report, name)

    def memoize(self, R) -> None:
        """Give R the entry's fingerprint when the entry names R, so that
        R's tables are never hashed."""
        if self.entry is not None and self.entry[1] == R.name:
            R._fingerprint = self.entry[0]

    def record(self, R) -> None:
        """Write R's entry unless the entry read already holds it, hashing
        R unless its fingerprint is memoized.  An entry that cannot be
        written is skipped: it changes no output and no exit code."""
        if self.cache is None:
            return
        fingerprint = canonical_fingerprint(R)
        if self.entry == (fingerprint, R.name):
            return
        try:
            self.cache._index_put(*self.key, fingerprint, R.name)
        except OSError:
            pass


def _cmd_analyze(args) -> int:
    # parsed first, so a syntax error exits 2 whatever the cache holds
    tree = exprs.parse(args.expr)
    cache = _open_cache(args)
    index = _ExpressionIndex(cache, args, tree)
    report = index.report()
    if report is None:
        R = exprs.evaluate(tree, max_order=args.max_order)
        report = harness.analyze(R, cache=cache)
        index.record(R)
    if args.json:
        sys.stdout.write(cache._text(report) if cache is not None
                         else cache_mod._dumps(report) + "\n")
        return 0
    print(f"ring        {report['ring']}")
    print(f"order       {report['order']}")
    print(f"fingerprint {report['fingerprint']}")
    rad = report["radicals"]
    for key in ("jacobson", "upper_nil", "lower_nil"):
        print(f"{key:<12}{rad[key]}")
    print(f"{'units':<12}{rad['units']}")
    print(f"{'idempotents':<12}{rad['idempotents']}")
    print("properties:")
    for name in sorted(report["properties"]):
        v = report["properties"][name]
        mark = "yes" if v["holds"] else "no "
        extra = f"  witness {v['witness']}" if v["witness"] else ""
        print(f"  {name:<18}{mark}{extra}")
    return 0


def _cmd_prop(args) -> int:
    tree = exprs.parse(args.expr)
    R = exprs.evaluate(tree, max_order=args.max_order)
    if args.json:
        index = _ExpressionIndex(_open_cache(args), args, tree)
        index.memoize(R)
        verdict = props.check_property(R, args.name)
        out = verdict.to_dict()
        out["ring"] = R.name
        out["fingerprint"] = canonical_fingerprint(R)
        index.record(R)
        _emit(out)
    else:
        verdict = props.check_property(R, args.name)
        state = "holds" if verdict.holds else "fails"
        print(f"{args.name} {state} on {R.name}")
        if verdict.witness:
            print(f"witness: {verdict.witness}")
    return 0 if verdict.holds else 1


def _cmd_radical(args) -> int:
    R = exprs.build(args.expr, max_order=args.max_order)
    report = inv.radical_report(R)
    if args.json:
        _emit(report.to_dict())
        return 0
    d = report.to_dict()
    for key in ("jacobson", "upper_nil", "lower_nil", "units", "nilpotents",
                "idempotents", "center"):
        print(f"{key:<12}{d[key]}")
    maximal = inv.maximal_left_ideals(R)
    print(f"maximal left ideals: {[mask_indices(m) for m in maximal]}")
    return 0


def _load_corpus_file(path: str, max_order: int) -> harness.Corpus:
    rings = []
    skipped = []
    extra = []
    try:
        with open(path) as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise BadArgumentError(
            f"cannot read corpus file {path!r}: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("random"):
            try:
                pairs = [kv.split("=", 1) for kv in line.split()[1:]]
                opts = dict(pairs)
                seed, count = int(opts.get("seed", 0)), int(opts["count"])
                if (count < 0 or len(opts) < len(pairs)
                        or opts.keys() - {"seed", "count"}):
                    raise ValueError
            except (KeyError, ValueError):
                raise BadArgumentError(
                    f"{path}:{lineno}: expected 'random seed=N count=M' "
                    f"with M >= 0, got {line!r}") from None
            extra.extend(harness.random_corpus(seed, count,
                                               max_order=max_order))
            continue
        try:
            rings.append(exprs.build(line, max_order=max_order))
        except (exprs.ExprError, SizeError) as e:
            skipped.append((f"{path}:{lineno} {line}", str(e)))
    rings.extend(extra)
    return harness.Corpus(rings, skipped)


def _cmd_verify(args) -> int:
    if args.corpus:
        corpus = _load_corpus_file(args.corpus, args.max_order)
    else:
        corpus = harness.default_corpus(max_order=args.max_order)
    rules = harness.rule_catalog()
    if args.rules is not None:
        wanted = {rid.strip() for rid in args.rules.split(",")
                  if rid.strip()}
        if not wanted:
            raise BadArgumentError(f"--rules names no rule: {args.rules!r}")
        known = {r.id for r in rules}
        bad = wanted - known
        if bad:
            raise BadArgumentError(f"unknown rule ids: {sorted(bad)}")
        rules = [r for r in rules if r.id in wanted]
    report = harness.run_rules(corpus, rules)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.table())
        for name, reason in report.corpus_skipped:
            print(f"skipped corpus entry {name}: {reason}")
    failures = report.failures()
    for entry in failures:
        sys.stderr.write(harness.diagnostic_dump(corpus, entry) + "\n")
    return 1 if failures else 0


def _cmd_search(args) -> int:
    hyps = [h.strip() for h in args.hyp.split(",") if h.strip()]
    if not hyps:
        raise BadArgumentError(f"--hyp names no property: {args.hyp!r}")
    result = harness.search_counterexample(hyps, args.negated,
                                           budget=args.budget, seed=args.seed,
                                           max_order=args.max_order)
    if args.json:
        out = {"format": "search v1", "hypotheses": hyps,
               "negated_conclusion": args.negated, "examined": result.examined}
        if result.ring is None:
            out["ring"] = None
        else:
            out["ring"] = result.ring.name
            out["fingerprint"] = canonical_fingerprint(result.ring)
            out["verdicts"] = {k: v.to_dict()
                               for k, v in result.verdicts.items()}
        _emit(out)
    elif result.ring is None:
        print(f"exhausted after {result.examined} rings")
    else:
        print(f"found {result.ring.name} after {result.examined} rings")
        for name, v in sorted(result.verdicts.items()):
            state = "holds" if v.holds else "fails"
            extra = f"  witness {v.witness}" if v.witness else ""
            print(f"  {name:<18}{state}{extra}")
    return 0 if result.ring is not None else 1


def _cmd_ideals(args) -> int:
    tree = exprs.parse(args.expr)
    R = exprs.evaluate(tree, max_order=args.max_order)

    def lattices():
        return (inv.all_left_ideals(R, cap=args.cap),
                inv.all_right_ideals(R, cap=args.cap),
                inv.all_two_sided_ideals(R, cap=args.cap))
    if args.json:
        index = _ExpressionIndex(_open_cache(args), args, tree)
        index.memoize(R)
        left, right, two = lattices()
        fingerprint = canonical_fingerprint(R)
        index.record(R)
        _emit({"format": "ideals v1", "ring": R.name, "order": R.order,
               "fingerprint": fingerprint,
               "left": [mask_indices(m) for m in sorted(left.ideals)],
               "right": [mask_indices(m) for m in sorted(right.ideals)],
               "two_sided": [mask_indices(m) for m in sorted(two.ideals)],
               "truncated": left.truncated or right.truncated or two.truncated})
        return 0
    left, right, two = lattices()
    for title, lat in (("left", left), ("right", right), ("two-sided", two)):
        note = " (truncated)" if lat.truncated else ""
        print(f"{title} ideals: {len(lat.ideals)}{note}")
        for m in sorted(lat.ideals):
            print(f"  {mask_indices(m)}")
    return 0


# glibc's mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.lru_cache(maxsize=None)
def _keep_freed_tables() -> None:
    """Let glibc reuse the memory of one command's tables in the next.

    By default glibc maps each table of 128 KiB and up afresh until one of
    that size is freed, and gives the top of its heap back to the system
    when more than twice the largest freed one is free there.  A process
    that runs command after command (the benchmark, a notebook) so faulted
    the pages of nearly every order-1024 table in again: about 5,300 page
    faults and 7-12 ms of system time in each scan-ladder pass of seven
    commands.  Blocks under 32 MiB (glibc's own ceiling for the moving
    threshold) now always come from the heap, and up to 64 MiB of it stays
    mapped.  Peak memory is unchanged: that is the largest live set.  A C
    library without mallopt keeps its defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_COMMANDS = {"analyze": _cmd_analyze, "prop": _cmd_prop,
             "radical": _cmd_radical, "verify": _cmd_verify,
             "search": _cmd_search, "ideals": _cmd_ideals}


def main(argv=None) -> int:
    _keep_freed_tables()
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (exprs.ExprError, RingError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

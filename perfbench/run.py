#!/usr/bin/env python3
"""ringlab benchmark: closed-loop workloads through ``ringlab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client on one thread sends each op only after the previous one returned.
An op is one ``ringlab.cli.main(argv)`` call; the program receives only the
argument vector.  The seed shuffles op order within each pass.  Whole passes
run until about ``--seconds`` have been measured (at least one pass).

Every op is checked against the pinned outputs in ``pins.json`` (made by
``make_pins.py``).  A mismatch, traceback or timeout counts as a failed op.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same passes with every layer wrapped from outside (see
``tracing.py``) and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Result details and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"

SETUP_REPS = 16              # half before the first pass, half after the last
# One client on one thread.  numpy's BLAS pool is never used by ringlab, but
# starting it at import spreads cold-start time on a busy two-core host.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
OP_TIMEOUT_S = 90.0
RUN_LIMIT_S = 165.0          # no op may run past this point of the run

# Sizes keep each pass near 6-10 s, so a 30 s run holds several passes.
SCAN_LADDER = [
    ("nj_symmetric", "Prod(T(3, Z(2)), Z(4))"),
    ("weak_symmetric", "Prod(T(3, Z(2)), Z(4))"),
    ("gws", "Prod(WSC(0), Z(8))"),
    ("symmetric", "Prod(Z(32), Z(32))"),
    ("semicommutative", "Prod(Z(32), Z(32))"),
    ("nj_symmetric", "Prod(M(2, Z(2)), T(2, Z(4)))"),
    ("weak_symmetric", "Prod(M(2, Z(2)), T(2, Z(4)))"),
]
BUILD_LADDER = [
    ("nj_symmetric", "M(2, Z(5))"),
    ("commutative", "T(2, Z(8))"),
    ("domain", "CD(3, Z(4))"),
    ("commutative", "SkewTrunc(Z(4), id, 4)"),
    ("symmetric", "WSC(1)"),
    ("nj_symmetric", "M(2, Z(4))"),
]
ANALYZE_CACHED = ["Z(4)", "Z(2)", "T(3, Z(2))", "WSC(0)", "CD(4, Z(2))",
                  "M(2, Z(4))", "CD(3, Prod(Z(2), Z(2)))",
                  "SkewTrunc(Prod(Z(2), Z(2)), swap, 4)", "T(2, Z(4))"]
# Pairs with equal tables under different names.  The report cache returns
# the name stored first, so on the seed the later name of each pair fails.
ANALYZE_ALIASES = ["Z(4)", "Quo(Z(8), gen(4))", "Z(2)", "Prod(Z(2), Z(1))"]
SMOKE_PROPS = [("nj_symmetric", "M(2, Z(2))"), ("symmetric", "Z(4)")]
SMOKE_ANALYZE = ["Z(3)"]


def prop_op(name: str, expr: str) -> dict:
    return {"kind": "prop", "key": f"{name} {expr}",
            "argv": ["prop", name, expr, "--json"]}


def analyze_op(expr: str) -> dict:
    return {"kind": "analyze", "key": expr,
            "argv": ["analyze", expr, "--json", "--cache"]}


VERIFY_OP = {"kind": "verify", "key": "verify",
             "argv": ["verify", "--json", "--threads", "1"]}

# Each analyze expression runs twice per pass against a fresh cache
# directory: the first run misses and writes, the second hits and reads.
WORKLOADS = {
    "verify": [VERIFY_OP],
    "scan-ladder": [prop_op(p, e) for p, e in SCAN_LADDER],
    # not in BENCHMARK.json: its Python table building moved 24-37 % between
    # runs of the same code as the host's load changed, past any bound; its
    # traced per-layer numbers still isolate constructions._build
    "build-ladder": [prop_op(p, e) for p, e in BUILD_LADDER],
    "analyze-cached": [analyze_op(e) for e in ANALYZE_CACHED] * 2,
    # not in BENCHMARK.json: fails on the seed (cache returns the first
    # stored name); kept runnable so the defect stays measured
    "analyze-aliases": [analyze_op(e) for e in ANALYZE_ALIASES] * 2,
    # not in BENCHMARK.json: a few cheap ops for the smoke test
    "smoke": ([prop_op(p, e) for p, e in SMOKE_PROPS]
              + [analyze_op(e) for e in SMOKE_ANALYZE] * 2),
}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# Checks against pinned outputs
# ---------------------------------------------------------------------------

def check_prop(rc: int, out: str, pin: dict):
    got = json.loads(out)
    seen = {"rc": rc, "holds": got["holds"], "witness": got["witness"]}
    if seen != pin:
        return f"expected {pin}, got {seen}"
    return None


def check_analyze(rc: int, out: str, pin: dict):
    if rc != 0:
        return f"exit code {rc}"
    got = json.loads(out)
    if got != pin:
        diff = sorted(k for k in set(got) | set(pin)
                      if got.get(k) != pin.get(k))
        return f"report differs from uncached analyze in {diff}"
    return None


def check_verify(rc: int, out: str, pin: dict):
    """Entries must equal the pin; a pinned ``skipped`` may now be decided."""
    if rc != 0:
        return f"exit code {rc}"
    got = json.loads(out)
    if got["corpus_skipped"] != pin["corpus_skipped"]:
        return "corpus_skipped differs"
    if len(got["entries"]) != len(pin["entries"]):
        return (f"{len(got['entries'])} entries, "
                f"expected {len(pin['entries'])}")
    for g, p in zip(got["entries"], pin["entries"]):
        if g["status"] == "fail":
            return f"{g['rule']} fails on {g['ring']}"
        if g == p:
            continue
        same_job = all(g[k] == p[k] for k in ("rule", "ring", "fingerprint"))
        if not (same_job and p["status"] == "skipped"
                and g["status"] in ("pass", "vacuous")):
            return (f"{p['rule']} on {p['ring']}: "
                    f"{p['status']} -> {g['status']}")
    return None


CHECKS = {"prop": check_prop, "analyze": check_analyze,
          "verify": check_verify}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def import_ringlab():
    """Import ringlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import ringlab
        import ringlab.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import ringlab from {SRC}: {e}")
    if Path(ringlab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: ringlab imported from "
                         f"{ringlab.__file__}, not from {SRC}")
    return ringlab


def measure_setup(reps: int) -> list:
    """Cold start of the program: a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import ringlab.cli"]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_op(cli, argv: list, limit: float):
    """One closed-loop op: (latency, exit code, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except OpTimeout:
        rc, error = None, f"timeout after {limit:.0f} s"
    except Exception:
        rc, error = None, traceback.format_exc()
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, rc, out.getvalue(), error


def run_pass(cli, ops: list, pins: dict, tracer, pass_no: int, run_t0: float):
    """Run ``ops`` in order; check outputs after the last one returns."""
    cache_dir = WORK / f"cache-{os.getpid()}-{pass_no}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    seen = set()
    records = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        argv = list(op["argv"])
        if op["kind"] == "analyze":
            argv.append(str(cache_dir))
        op_id = f"{pass_no}.{i}"
        if tracer is not None:
            tracer.op = op_id
        limit = min(OP_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - run_t0))
        if limit <= 0:
            latency, rc, out, error = 0.0, None, "", "run time limit reached"
        else:
            latency, rc, out, error = run_op(cli, argv, limit)
        cached = op["key"] in seen if op["kind"] == "analyze" else None
        seen.add(op["key"])
        records.append({"op": op_id, "key": op["key"], "kind": op["kind"],
                        "hit": cached, "latency_s": latency, "rc": rc,
                        "out": out, "error": error})
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    bytes_written = sum(p.stat().st_size for p in cache_dir.glob("*.json"))
    shutil.rmtree(cache_dir, ignore_errors=True)
    for r in records:
        out = r.pop("out")
        if r["error"] is None:
            pin = pins[r["kind"]].get(r["key"])
            if pin is None:
                r["error"] = "no pinned output"
            else:
                try:
                    r["error"] = CHECKS[r["kind"]](r["rc"], out, pin)
                except (ValueError, KeyError, TypeError) as e:
                    r["error"] = f"unreadable output: {e!r}"
    return wall, bytes_written, records


def tail(values: list) -> tuple:
    """The 90th percentile and the number of values beyond it."""
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def machine(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_pins() -> dict:
    with open(PINS) as f:
        return json.load(f)


def prepare():
    """Import ringlab and set up this process to run ops; returns ringlab."""
    os.environ.update(ONE_THREAD)
    ringlab = import_ringlab()
    WORK.mkdir(exist_ok=True)
    os.environ["RINGLAB_CACHE"] = str(WORK / "cache-default")
    signal.signal(signal.SIGALRM, _alarm)
    return ringlab


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run; returns (result line, details)."""
    bench = spec()
    ringlab = prepare()
    cli = ringlab.cli
    pins = load_pins()

    # set-up samples are split around the passes, so that a slow spell of
    # the host during one part of the run moves only some of them
    setup = [] if trace else measure_setup(SETUP_REPS // 2)
    tracer = None
    if trace:
        import tracing
        span_cost = tracing.span_cost()
        tracer = tracing.Tracer()
        tracer.install(ringlab)

    rng = random.Random(seed)
    passes = []                  # (wall, bytes written, records)
    target = 1
    run_t0 = time.perf_counter()
    while len(passes) < target:
        ops = list(WORKLOADS[workload])
        rng.shuffle(ops)
        passes.append(run_pass(cli, ops, pins, tracer, len(passes), run_t0))
        if len(passes) == 1:
            target = max(1, round(seconds / passes[0][0]))

    if not trace:
        setup += measure_setup(SETUP_REPS - len(setup))

    records = [r for p in passes for r in p[2]]
    latencies = [r["latency_s"] for r in records]
    by_op = {}                   # analyze hits and misses are separate ops
    for r in records:
        by_op.setdefault((r["key"], r["hit"]), []).append(r["latency_s"])
    failures = [r for r in records if r["error"] is not None]
    # Each op of the list counts once, at its median over the passes.  The
    # pass count follows machine speed, so percentiles of the raw samples
    # moved between op types from run to run: a plain median of an even op
    # count averaged the slowest sample of one op with the fastest of the
    # next, and the p90 of 12 or 18 samples fell on different ops.  An op's
    # fastest pass spread more than its median: fast runs got more passes,
    # so their minimum was lower still.
    op_medians = [statistics.median(v) for v in by_op.values()]
    tail_value, tail_beyond = tail(op_medians)
    hits = [r["latency_s"] for r in records if r["hit"]]
    misses = [r["latency_s"] for r in records if r["hit"] is False]
    walls = [p[0] for p in passes]
    problems = []

    if trace:
        metrics = layer_metrics(tracer, len(passes), latencies, hits, misses,
                                sum(p[1] for p in passes), span_cost)
        coverage = metrics["trace_self_coverage"]
        if not 0.95 <= coverage <= 1.0 + 1e-9:
            problems.append(f"layer self times cover {coverage:.4f} of the "
                            f"traced op time")
        declared = bench["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_medians),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: computed metrics {sorted(metrics)} do "
                         f"not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    details = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "machine": machine(seed),
        "passes": len(passes), "samples": len(records),
        "pass_wall_s": walls, "setup_runs_s": setup,
        "op_tail": {"percentile": 90, "ops": len(op_medians),
                    "beyond": tail_beyond, "samples": len(records)},
        "fail_ratio": len(failures) / len(records),
        "miss_p50_s": median_or_zero(misses),
        "hit_p50_s": median_or_zero(hits),
        "cache_samples": {"miss": len(misses), "hit": len(hits)},
        "problems": problems,
        "failures": [{k: r[k] for k in ("op", "key", "rc", "error")}
                     for r in failures],
        "ops": [{k: r[k] for k in ("op", "key", "hit", "latency_s", "rc")}
                for r in records],
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(WORK / f"result-{stem}.json", "w") as f:
        json.dump({"result": result, "details": details}, f, indent=1)
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{stem}.jsonl")
    return result, details


INVARIANT_FNS = ("units_bool", "nilpotents_bool", "idempotents_bool",
                 "center_bool", "jacobson_bool", "all_left_ideals",
                 "all_right_ideals", "all_two_sided_ideals",
                 "maximal_left_ideals", "maximal_right_ideals",
                 "is_essential_left_ideal", "lower_nilradical",
                 "upper_nilradical")
RULE_IDS = tuple(f"R{i}" for i in range(1, 28))


def layer_metrics(tr, n_passes: int, latencies: list, hits: list,
                  misses: list, bytes_written: int, span_cost: float) -> dict:
    """Per-layer metrics from a traced run, per pass where they add up."""
    from tracing import CONSTRUCTIONS, LAYERS, STATUSES
    from ringlab.properties import PROPERTY_CHECKS

    def per(v):
        return v / n_passes

    def incl(qual):
        return per(tr.incl_s.get(qual, 0.0))

    c = tr.counts
    m = {f"{layer}.self_s": per(tr.self_s[layer]) for layer in
         ("cli", "exprs", "constructions", "invariants", "properties",
          "harness")}
    m["core.canonical_fingerprint_s"] = incl("core.canonical_fingerprint")
    m["constructions.cells"] = per(c["cells"])
    m["constructions.cells_per_s"] = (c["cells"] / tr.self_s["constructions"]
                                      if tr.self_s["constructions"] else 0.0)
    for fn in CONSTRUCTIONS:
        m[f"constructions.{fn}_s"] = incl(f"constructions.{fn}")
    for name, fn in PROPERTY_CHECKS.items():
        m[f"properties.{name}_s"] = incl(f"properties.{fn.__name__}")
    m["properties.triples"] = per(c["triples"])
    m["properties.triples_per_s"] = (c["triples"] / tr.self_s["properties"]
                                     if tr.self_s["properties"] else 0.0)
    m["properties.calls"] = per(c["calls"])
    m["properties.evaluations"] = per(c["evaluations"])
    m["properties.memo_hit_ratio"] = (1 - c["evaluations"] / c["calls"]
                                      if c["calls"] else 0.0)
    for fn in INVARIANT_FNS:
        m[f"invariants.{fn}_s"] = incl(f"invariants.{fn}")
    m["invariants.ideals_enumerated"] = per(c["ideals"])
    m["harness.default_corpus_s"] = incl("harness.default_corpus")
    for rid in RULE_IDS:
        m[f"harness.rule.{rid}_s"] = incl(f"harness.rule.{rid}")
    for status in STATUSES:
        m[f"harness.entries.{status}"] = per(tr.entries[status])
    m["cache.get_s"] = incl("cache.get")
    m["cache.put_s"] = incl("cache.put")
    m["cache.hits"] = per(c["hits"])
    m["cache.misses"] = per(c["misses"])
    lookups = c["hits"] + c["misses"]
    m["cache.hit_ratio"] = c["hits"] / lookups if lookups else 0.0
    m["cache.bytes_written"] = per(bytes_written)
    m["cache.miss_op_p50_s"] = median_or_zero(misses)
    m["cache.hit_op_p50_s"] = median_or_zero(hits)
    op_time = sum(latencies)
    m["trace_overhead_ratio"] = len(tr.spans) * span_cost / op_time
    m["trace_self_coverage"] = sum(tr.self_s[layer]
                                   for layer in LAYERS) / op_time
    return m


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload of BENCHMARK.json in its own process, as a table."""
    ok = True
    print(f"{'workload':<16}{'metric':<34}{'value':>14}  unit")
    for w in spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               w["name"], "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']:<16}run failed with exit code "
                  f"{proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{w['name']:<16}{'correct':<34}{str(result['correct']):>14}  "
              f"{result['failed']}/{result['attempted']} failed")
        for name, m in result["metrics"].items():
            print(f"{w['name']:<16}{name:<34}{m['value']:>14.6g}  {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, details = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    summary = {k: details[k] for k in ("machine", "passes", "samples",
                                       "op_tail", "fail_ratio", "miss_p50_s",
                                       "hit_p50_s", "cache_samples",
                                       "problems")}
    print("# details " + json.dumps(summary))
    for f in details["failures"][:10]:
        print(f"# failed op {f['op']} {f['key']}: "
              f"{f['error'].strip().splitlines()[-1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

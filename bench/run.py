"""The npscensus benchmark: CLI workloads, checked verdicts, per-layer timing.

Run from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  sweep     verify-formulas --max-n 6 --max-order 1200
  oneshot   42 separate invocations in a seeded order: forty nps / present
            queries drawn from the seed, one verify-theorems --max-n 6
            --corpus data/bucket_groups.json, and one census on a corpus
            drawn from the seed

Every child is the real CLI (`python3 -m npscensus.cli`, with `--jobs 1`
where the subcommand has it) run from src/ of this checkout, one at a time
(a closed loop with one client), under a wall-time and an RLIMIT_AS ceiling
of its own.  A pass runs the workload's queries once; passes repeat while
the next one is expected to end within --seconds, and there is at least
one.  Before each pass, set-up is measured SETUP_PER_PASS times as a fresh
interpreter that only imports npscensus.cli, so the set-up samples spread
over the whole run.

--trace 0 reports the end-to-end metrics.  Times are CPU seconds (user +
system, from wait4) of the children: on a shared host a child's wall time
also holds the time it waited for a CPU that another tenant held, which
measures the scheduler, not the program.  The wall-time figures are printed
beside them, and kept in the report, but are not the result's metrics.
  cpu_s              median over passes of the CPU time of one pass, all
                     its children, interpreter start and import included
  setup_s            median over the run of the CPU time of a child that
                     starts the interpreter and imports npscensus.cli
  peak_rss_mb        highest peak RSS of any child in the run, known-defect
                     children left out (their peak is in the report as
                     known_defect_peak_rss_mb: C(20000) runs up to the
                     ceiling)
  query_cpu_p50_ms   median CPU time of all queries of the run
  query_cpu_tail_ms  mean of the percentiles p80 to p100 of the CPU time
                     of all queries of the run, each interpolated between
                     neighbouring samples: the upper fifth of the
                     distribution.  A single high percentile is not steady
                     here: the slow oneshot queries are a dozen distinct
                     fixed costs, so p90 picks one of them and jumps
                     between runs of the same code.  Two
                     oneshot passes make 84 queries, with 17 at or beyond
                     p80; a sweep run makes about seven.
and, not in the result: wall_s (median pass, first spawn to last exit),
setup_wall_s, query_p50_ms and query_tail_ms, the same figures in wall time.
A sweep pass takes about 8 s and a oneshot pass about 20 s, so a run of 58 s
makes six or two: long enough to average over the swings in CPU speed of a
shared host.
--trace 1 alternates untraced and traced passes (traced children run
bench/trace_child.py) and reports the per-layer metrics of layers.py, as
medians over the traced passes, plus trace.overhead_s: the median traced
pass minus the median untraced pass.

Each verdict is checked against reference.json.  `attempted` counts
verdicts and `failed` the wrong ones; error_rate is failed / attempted.
Queries marked as known defects still count as failed; `correct` is false
when any other verdict is wrong.  The last line of stdout is the result
object; the lines above it are the report, and the spans of the traced
passes are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as W
from child import MEMORY_CEILING_BYTES, ChildResult, run_child
from layers import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PER_PASS = 5
# children still running at this point are cut, so a run ends within 180 s
RUN_DEADLINE_S = 160.0
REQUIRED = ("BENCHMARK.json", "src/npscensus/cli.py", "data/bucket_groups.json")


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    cpu_latencies_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    known_defect_peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known_failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "NPS_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(queries: list[W.Query], env: dict, workdir: Path, traced: bool,
             deadline: float) -> PassResult:
    out = PassResult()
    spans_path = workdir / "spans.json"
    start = time.perf_counter()
    for q in queries:
        out.attempted += q.verdicts
        left = deadline - time.perf_counter()
        if left <= 0:
            fails = [f"{q.label[:80]}: not run, the run's deadline passed"] * q.verdicts
        else:
            argv = [sys.executable, "-m", "npscensus.cli", *q.args]
            if traced:
                spans_path.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans_path),
                        *q.args]
            r = run_child(argv, env, min(q.ceiling_s, left), workdir, ROOT)
            out.latencies_s.append(r.elapsed_s)
            out.cpu_latencies_s.append(r.cpu_s)
            if q.known_defect:
                out.known_defect_peak_rss_mb = max(out.known_defect_peak_rss_mb, r.peak_rss_mb)
            else:
                out.peak_rss_mb = max(out.peak_rss_mb, r.peak_rss_mb)
            fails = q.check(r)[: q.verdicts]
            if traced and spans_path.exists():
                out.spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        (out.known_failures if q.known_defect else out.failures).extend(fails)
    out.wall_s = time.perf_counter() - start
    out.cpu_s = sum(out.cpu_latencies_s)
    return out


def setup_child(code: str, env: dict, workdir: Path, deadline: float) -> ChildResult:
    r = run_child([sys.executable, "-c", code], env,
                  min(30.0, deadline - time.perf_counter()), workdir, ROOT)
    if r.returncode != 0:
        raise SystemExit(f"bench: set-up child failed: {r.stderr.strip()[-300:]}")
    return r


def check_import(env: dict, workdir: Path, deadline: float) -> None:
    """Fail unless npscensus loads from this checkout."""
    where = setup_child("import npscensus.cli as c; print(c.__file__)", env, workdir,
                        deadline).stdout.strip()
    if not where.startswith(str(ROOT / "src")):
        raise SystemExit(f"bench: npscensus loads from {where}, not from {ROOT / 'src'}")


def summary(values: list[float]) -> dict:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    out = {"median": values[0], "q1": values[0], "q3": values[0],
           "min": min(values), "max": max(values), "samples": len(values)}
    if len(values) > 1:
        out["q1"], out["median"], out["q3"] = statistics.quantiles(values, n=4)
    return out


def tail(latencies: list[float]) -> tuple[float, dict]:
    """The mean of the upper fifth of the latency distribution: of the
    percentiles p80, p81, .., p100, each interpolated between neighbouring
    samples; and how many samples lie at or beyond p80."""
    if len(latencies) == 1:
        return latencies[0], {"percentiles": "p80-p100", "beyond": 1}
    upper = statistics.quantiles(latencies, n=100, method="inclusive")[79:] + [max(latencies)]
    return statistics.mean(upper), {"percentiles": "p80-p100",
                                    "beyond": sum(x >= upper[0] for x in latencies)}


# the wall-time figures printed beside the metrics, with their units
WALL_UNITS = {"wall_s": "s", "setup_wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms"}


def end_to_end(passes: list[PassResult], setup: list[ChildResult]) -> tuple[dict, dict]:
    """The end-to-end metrics and the wall-time figures, and their summaries."""
    cpu_ms = [t * 1000 for p in passes for t in p.cpu_latencies_s]
    wall_ms = [t * 1000 for p in passes for t in p.latencies_s]
    samples = {
        "cpu_s": [p.cpu_s for p in passes],
        "setup_s": [r.cpu_s for r in setup],
        "query_cpu_p50_ms": cpu_ms,
        "query_cpu_tail_ms": cpu_ms,
        "wall_s": [p.wall_s for p in passes],
        "setup_wall_s": [r.elapsed_s for r in setup],
        "query_p50_ms": wall_ms,
        "query_tail_ms": wall_ms,
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    detail = {k: summary(v) for k, v in samples.items()}
    for name, xs in (("query_cpu_tail_ms", cpu_ms), ("query_tail_ms", wall_ms)):
        values[name], where = tail(xs)
        detail[name].update(where)
    values["peak_rss_mb"] = max([r.peak_rss_mb for r in setup] + [p.peak_rss_mb for p in passes])
    children = len(setup) + sum(len(p.latencies_s) for p in passes)
    defect_rss = max(p.known_defect_peak_rss_mb for p in passes)
    detail["peak_rss_mb"] = {"max": values["peak_rss_mb"], "samples": children,
                             "known_defect_peak_rss_mb": defect_rss}
    return values, detail


def per_layer(untraced: list[PassResult], traced: list[PassResult]) -> tuple[dict, dict]:
    per_pass = [layer_metrics(p.spans, p.wall_s) for p in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        p.wall_s for p in untraced)
    detail = {k: summary([m[k] for m in per_pass]) for k in per_pass[0]}
    return values, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} missing: run from a full checkout", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    ref = W.load_reference()
    env = child_env()

    deadline = time.perf_counter() + RUN_DEADLINE_S
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        workdir = Path(tmp)
        queries, input_bytes = W.build_queries(args.workload, args.seed, ref, workdir)
        check_import(env, workdir, deadline)
        setup: list[ChildResult] = []
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            setup += [setup_child("import npscensus.cli", env, workdir, deadline)
                      for _ in range(SETUP_PER_PASS)]
            untraced.append(run_pass(queries, env, workdir, False, deadline))
            if args.trace:
                traced.append(run_pass(queries, env, workdir, True, deadline))
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds or now >= deadline:
                break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    known = [f for p in passes for f in p.known_failures]
    failed = len(failures) + len(known)
    if args.trace:
        values, detail = per_layer(untraced, traced)
        names = [m["name"] for m in declared["per_layer"]]
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps([p.spans for p in traced]), encoding="utf-8")
        wall_figures = []
    else:
        values, detail = end_to_end(untraced, setup)
        names = [m["name"] for m in declared["end_to_end"]]
        wall_figures = list(WALL_UNITS)
        units.update(WALL_UNITS)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "queries_per_pass": len(queries),
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "child_memory_ceiling_mb": MEMORY_CEILING_BYTES >> 20,
        "child_wall_ceiling_s": sorted({q.ceiling_s for q in queries}),
        "run_deadline_s": RUN_DEADLINE_S,
        "error_rate": failed / attempted,
        "known_defects": sorted({q.known_defect for q in queries if q.known_defect}),
        "known_defect_failures": sorted(set(known)),
        "unexpected_failures": failures[:20],
        "metrics": {k: dict(detail.get(k, {}), unit=units[k]) for k in names},
        "wall_time": {k: dict(detail[k], unit=units[k]) for k in wall_figures},
    }
    print(json.dumps(report, indent=1))
    for k in names + wall_figures:
        print(f"{k}: {values[k]:.6g} {units[k]}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6g} verdicts")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

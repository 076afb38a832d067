"""Steadiness check: run every workload on ten or more seeds and report spreads.

    python3 bench/steady.py [--runs 10] [--compare .bench_out/steady-OLD.json]

Each run is `bench/run.py --trace 0` for BENCHMARK.json's run_seconds, seeds
1 .. runs, every workload of BENCHMARK.json, workloads interleaved.  For each
workload and end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
beside the metric's bound and the bound the spread supports: three times
the spread, at most 0.25.  Bounds in BENCHMARK.json are set from that rule.
With --compare it also prints, per metric, how much worse this set's median
is than the earlier set's, as a share of the earlier median.

It exits 1 when a spread exceeds its bound, or a median is worse than the
compared one by more than the bound.  The raw
results are kept in .bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]

    raw: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            raw[w].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)

    previous = json.loads(args.compare.read_text()) if args.compare else None
    ok = True
    print(f"{'workload':9} {'metric':14} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'3x':>6} {'drift':>7}")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in raw[w]]
            med, q1, q3, sp = spread(values)
            line = (f"{w:9} {name:14} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                    f"{sp:7.4f} {bound:6.3f} {min(0.25, 3 * sp):6.3f}")
            if sp > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif sp > bound / 3:
                line += "  spread over a third of the bound"
            if previous and w in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[w])
                drift = (med - old) / old * (1 if m["better"] == "lower" else -1)
                line += f" {drift:7.4f}"
                if drift > bound:
                    ok = False
                    line += "  WORSE BY MORE THAN THE BOUND"
            print(line)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    print(f"raw results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from child import ChildResult, run_child  # noqa: E402
from npscensus import EXACT, expected_nps, parse_spec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REF = W.load_reference()


def fake(stdout: str, returncode: int = 0, stderr: str = "") -> ChildResult:
    return ChildResult(("fake",), returncode, stdout, stderr, 0.1, 10.0, False, 0.1)


def sweep_output(ref: dict) -> str:
    rows = [{"label": r["label"], "order": r["order"], "computed": r["computed"],
             "status": r["status"]} for r in ref["sweep"]["rows"]]
    return json.dumps({"rows": rows, "summary": {"fail": 0, "rows": len(rows)}})


def census_output(names: list[str], ref: dict) -> str:
    rows = []
    for w in W.census_expected_rows(names, ref):
        if w["status"] == "rejected":
            rows.append({"name": w["name"], "order": "", "exponent": "", "s": "", "ps": "",
                         "nps": "", "status": "error: closure exceeds cap 600 (degree 7)"})
        else:
            rows.append(w)
    errors = sum(r["status"] != "ok" for r in rows)
    return json.dumps({"rows": rows, "summary": {"entries": len(rows), "errors": errors}})


# -- a corrupted verdict or a wrong exit code is counted -------------------


def test_sweep_check_counts_a_corrupted_verdict_and_a_wrong_exit():
    good = sweep_output(REF)
    assert W.check_sweep(fake(good), REF) == []
    doc = json.loads(good)
    doc["rows"][5]["computed"] += 1
    assert len(W.check_sweep(fake(json.dumps(doc)), REF)) == 1
    assert len(W.check_sweep(fake(good, returncode=1), REF)) == 1
    crashed = W.check_sweep(fake("", returncode=1, stderr="MemoryError"), REF)
    assert len(crashed) == len(REF["sweep"]["rows"]) + 1


def test_census_check_counts_corrupted_rows_and_exit():
    names = W.census_draw(3)
    good = census_output(names, REF)
    assert W.check_census(fake(good, returncode=2), names, REF) == []
    doc = json.loads(good)
    ok_row = next(r for r in doc["rows"] if r["status"] == "ok")
    ok_row["s"] += 1
    assert len(W.check_census(fake(json.dumps(doc), returncode=2), names, REF)) == 1
    assert len(W.check_census(fake(good, returncode=0), names, REF)) == 1


def test_classify_check_counts_a_corrupted_row():
    c = REF["classify"]
    rows = [dict(r) for r in c["rows"]]
    summary = {"fail": 0, "distinctness_ok": True, "corpus_unmatched": 0,
               "distinctness": c["distinctness"], "corpus": c["corpus"]}
    good = json.dumps({"rows": rows, "summary": summary})
    assert W.check_classify(fake(good), REF) == []
    rows[0]["computed"] = 99
    summary["corpus"] = c["corpus"][1:]
    bad = W.check_classify(fake(json.dumps({"rows": rows, "summary": summary})), REF)
    assert len(bad) == 2


def test_oneshot_checks_exit_codes_and_answers():
    plan = W.oneshot_plan(5, REF)
    nps = next(it for it in plan if it["kind"] == "nps")
    g = REF["groups"][nps["group"]]
    out = (f"group: {nps['group']}\norder: {g['order']}\nexponent: {g['exponent']}\n"
           f"subgroups: {g['s']}\npower subgroups: {g['ps']}\nnonpower subgroups: {g['nps']}\n")
    assert W.check_query(fake(out), nps, REF) == []
    assert len(W.check_query(fake(out.replace(f"nonpower subgroups: {g['nps']}",
                                              "nonpower subgroups: 0")), nps, REF)) == 1
    assert len(W.check_query(fake(out, returncode=1), nps, REF)) == 1
    over = next(it for it in plan if it["kind"] == "over_cap")
    named = "order 1500 exceeds lattice cap 600 (raise --max-order)\n"
    assert W.check_query(fake("", 2, named), over, REF) == []
    assert len(W.check_query(fake("", 2, "cap exceeded\n"), over, REF)) == 1
    assert len(W.check_query(fake("", 1, "MemoryError\n"), over, REF)) == 1


def test_a_wrong_reference_raises_the_error_rate_of_a_real_pass(tmp_path):
    ref = copy.deepcopy(REF)
    item = {"kind": "nps", "args": ["nps", "Q(8)"], "group": "Q(8)"}
    query = W.Query(("nps", "Q(8)"), 1, lambda r: W.check_query(r, item, ref), ceiling_s=30.0)
    env = run.child_env()
    good = run.run_pass([query], env, tmp_path, False, deadline=float("inf"))
    assert (good.attempted, good.failures) == (1, [])
    ref["groups"]["Q(8)"]["nps"] += 1
    bad = run.run_pass([query], env, tmp_path, False, deadline=float("inf"))
    assert (bad.attempted, len(bad.failures)) == (1, 1)


def test_children_run_under_a_time_and_a_memory_ceiling(tmp_path):
    env = run.child_env()
    hang = run_child([sys.executable, "-c", "import time; time.sleep(30)"], env, 0.5,
                     tmp_path, ROOT)
    assert hang.timed_out and hang.returncode != 0 and hang.elapsed_s < 5
    hog = run_child([sys.executable, "-c", "b = bytearray(1 << 30)"], env, 30.0, tmp_path, ROOT)
    assert not hog.timed_out and hog.returncode == 1 and "MemoryError" in hog.stderr
    item = {"kind": "over_cap", "args": ["nps", "C(20000)"], "order": 20000}
    assert W.check_query(hang, item, REF) and W.check_query(hog, item, REF)


def test_peak_rss_leaves_out_known_defect_children(tmp_path):
    item = {"kind": "over_cap", "args": ["nps", "C(20000)"], "order": 20000}
    query = W.Query(("nps", "C(20000)"), 1, lambda r: W.check_query(r, item, REF),
                    ceiling_s=30.0, known_defect="dies with MemoryError")
    p = run.run_pass([query], run.child_env(), tmp_path, False, deadline=float("inf"))
    assert (p.attempted, p.failures, len(p.known_failures)) == (1, [], 1)
    assert p.peak_rss_mb == 0 and p.known_defect_peak_rss_mb > 400


# -- inputs come from the seed alone --------------------------------------


def test_same_seed_same_bytes_and_other_seeds_differ():
    assert W.census_corpus(7, REF) == W.census_corpus(7, REF)
    assert W.plan_bytes(W.oneshot_plan(7, REF)) == W.plan_bytes(W.oneshot_plan(7, REF))
    assert W.census_corpus(7, REF)[1] != W.census_corpus(8, REF)[1]
    assert W.plan_bytes(W.oneshot_plan(7, REF)) != W.plan_bytes(W.oneshot_plan(8, REF))


def test_oneshot_plan_shape_is_the_same_for_every_seed():
    shape = Counter(it["kind"] for it in W.oneshot_plan(0, REF))
    assert sum(shape.values()) == 40
    for seed in range(20):
        plan = W.oneshot_plan(seed, REF)
        assert Counter(it["kind"] for it in plan) == shape
        assert sum("known_defect" in it for it in plan) == 1
        for it in plan:
            if it["kind"] == "big_present":
                assert 1000 <= it["order"] <= 2000


def test_census_relabelling_keeps_each_generator_a_permutation():
    entries = json.loads(W.census_corpus(11, REF)[1])
    for e in entries:
        for g in e["generators"]:
            assert sorted(g) == list(range(e["degree"]))


# -- the reference does not drift from its independent sources -----------


def test_catalog_backed_reference_values_match_the_catalog():
    for row in REF["sweep"]["rows"]:
        if row["nps_source"] == "catalog":
            exp = expected_nps(parse_spec(row["label"]))
            assert exp.kind == EXACT and exp.value == row["computed"], row["label"]
    for name, g in REF["groups"].items():
        if g.get("nps_source") == "catalog":
            spec = name.split(" on ")[0]  # natural permutation groups
            assert expected_nps(parse_spec(spec)).value == g["nps"], name


# -- the traced run reports every per-layer metric -------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "oneshot", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one pass, and a traced one with --trace 1: C(20000) fails in each
    assert result["correct"] and result["failed"] == 1 + trace
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        m = result["metrics"]
        assert m["corpus.rejected"]["value"] == 2
        assert m["lattice.subgroups"]["value"] > 2825


def test_layer_metrics_cover_every_declared_layer_metric(tmp_path):
    spans = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), "verify-theorems",
         "--k-max", "3", "--corpus", "data/bucket_groups.json"],
        cwd=ROOT, env=run.child_env(), capture_output=True, check=True, timeout=120,
    )
    doc = json.loads(spans.read_text())
    assert doc["untraced"] == []
    metrics = run.layer_metrics([doc], doc["end_s"])
    names = {m["name"] for m in DECLARED["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == names
    for key in ("build.calls", "coset.calls", "iso.calls", "power.calls", "lattice.subgroups"):
        assert metrics[key] > 0, key
    assert metrics["lattice.self_s"] == pytest.approx(
        metrics["lattice.busy_s"] - metrics["power.busy_s"])


# -- the declaration meets the benchmark contract -------------------------


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 12) < 3420


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds",
         "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout.strip() == ""

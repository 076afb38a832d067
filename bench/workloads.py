"""The two benchmark workloads: their inputs and the checks on their verdicts.

Inputs come from the seed alone (`random.Random` seeded with a string is
stable across Python versions) and from the frozen inputs in
reference.json, never from the program under test, so every commit is
measured on the same bytes.  Each check compares the CLI's output with
reference values, most of which do not come from the lattice code; see
make_reference.py for where each value comes from.

A query is one CLI invocation.  A pass runs a workload's queries once, one
child process at a time.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from child import ChildResult

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The CLI's default lattice cap; every workload runs under it except the
# sweep, which raises it to 1200 as the paper's extended verification.
LATTICE_CAP = 600

# ---------------------------------------------------------------------------
# census: a corpus drawn per seed.  Each stratum holds members of similar
# cost (measured in-process on the seed commit), so seeds differ in which
# groups they hold but hardly in total work.  Left out for cost: D(600),
# about 28 s in counts; Alt(6) on 6 points, about 6 s; C(2)^7, about 20 s.

CENSUS_STRATA: tuple[tuple[str, int, tuple[str, ...]], ...] = (
    # (why, how many to take, members)
    ("largest table and largest lattice, always", 2,
     ("C(600)", "C(2)xC(2)xC(2)xC(2)xC(2)xC(2)")),
    ("lattice about 0.25 s", 1, ("D(120)", "D(128)", "Sym(5) on 5 points")),
    ("lattice about 0.33 s", 1, ("D(132)", "D(136)", "M(7)", "D(150)")),
    ("lattice about 0.06 s", 3,
     ("D(6)xC(2)xC(2)xC(2)", "C(8)xC(8)xC(2)", "C(3)xC(3)xC(3)xC(2)xC(2)",
      "C(3)xC(3)xC(3)xC(3)", "D(72)", "D(80)")),
    ("order 240-343, small lattice", 2,
     ("A(4)", "M(3,7)", "Q(8)xC(2)xC(3)xC(5)", "B1(3,3)")),
    ("order 4-64, cheap", 8,
     ("C(4)", "D(8)", "Q(8)", "Q(16)", "Q(32)", "M(4,2)", "M(3,3)", "M(3)",
      "SL23", "C3Q8", "Sym(4) on 4 points", "D(12)", "C(2)xC(4)", "C(3)xC(9)",
      "Gn(2,3)", "A(1)", "F(1,7)", "D(16)xC(2)", "C(4)xC(4)xC(2)")),
    ("closure passes the cap: must come back as error rows", 2,
     ("Sym(6) on 6 points", "Sym(7) on 7 points", "Alt(7) on 7 points",
      "Sym(8) on 8 points")),
)

# ---------------------------------------------------------------------------
# oneshot: forty small separate invocations per pass, plus the two batch
# queries of build_queries.  Each kind has a fixed number of queries, and the
# costly kinds draw their size from a fixed band per slot, so the latency
# distribution has the same shape for every seed.

ONESHOT_NPS_POOL = (
    "D(8)", "Q(8)", "Q(16)", "Q(32)", "S(16)", "S(32)", "M(4,2)", "M(5,2)",
    "M(3,3)", "M(4,3)", "M(3)", "M(5)", "SL23", "C3Q8", "Sym(4)", "Alt(4)",
    "A(2)", "Gn(2,3)", "Gn(3,5)", "F(1,7)", "F(2,13)", "B1(2,3)", "B2(2,3)",
    "X(1,5)", "D(6)xC(2)", "Q(8)xC(3)", "C(2)xC(2)xC(3)", "D(10)xC(2)",
)
ONESHOT_NPS_TAKE = 16
# presented group = checked group
ONESHOT_ISO_YES_POOL = (
    "Q(8)", "Q(16)", "D(8)", "D(10)", "M(4,2)", "M(3,3)", "M(3)", "Gn(2,3)",
    "A(1)", "C3Q8", "B2(2,3)", "F(1,7)", "S(16)",
)
ONESHOT_ISO_YES_TAKE = 7
# (presented, checked): same order, different catalog nps, so "no" is
# known without the isomorphism code
ONESHOT_ISO_NO_POOL = (
    ("Q(8)", "D(8)"), ("D(8)", "Q(8)"), ("Q(16)", "D(16)"), ("D(16)", "S(16)"),
    ("M(4,2)", "D(16)"), ("M(3)", "M(3,3)"), ("M(3,3)", "M(3)"),
    ("C3Q8", "SL23"), ("A(1)", "D(12)"),
)
ONESHOT_ISO_NO_TAKE = 5
# presentations of order 1000-2000: enumerated, then rejected by the cap
ONESHOT_BIG_PRESENTATION_BANDS = (1000, 1200, 1400, 1600, 1800)
# family specs over the cap: rejected after the table is built
ONESHOT_OVER_CAP_BANDS = (900, 1000, 1100, 1200, 1300, 1400)
BAND_WIDTH = 20
# A known defect: the table for C(20000) is built before the cap check and
# dies with MemoryError under the memory ceiling instead of exiting 2.
ONESHOT_DEFECT_SPEC = "C(20000)"


@dataclass(frozen=True)
class Query:
    """One CLI invocation, how many verdicts it carries and how to check it."""

    args: tuple[str, ...]
    verdicts: int
    check: Callable[[ChildResult], list[str]] = field(compare=False)
    ceiling_s: float
    known_defect: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.args)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# input generation


def census_draw(seed: int) -> list[str]:
    rng = random.Random(f"census:{seed}")
    names: list[str] = []
    for _, take, members in CENSUS_STRATA:
        names += rng.sample(members, take)
    rng.shuffle(names)
    return names


def _relabel(gens: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Conjugate each generator by the point permutation i -> perm[i]."""
    out = []
    for g in gens:
        h = [0] * len(g)
        for i, gi in enumerate(g):
            h[perm[i]] = perm[gi]
        out.append(h)
    return out


def census_corpus(seed: int, ref: dict) -> tuple[list[str], bytes]:
    """Entry names and corpus file bytes; the points of every entry are
    relabelled by a seeded permutation, so the program sees new tables."""
    rng = random.Random(f"census-labels:{seed}")
    names = census_draw(seed)
    entries = []
    for name in names:
        inp = ref["census_inputs"][name]
        perm = list(range(inp["degree"]))
        rng.shuffle(perm)
        entries.append(
            {
                "name": name,
                "degree": inp["degree"],
                "generators": _relabel(inp["generators"], perm),
            }
        )
    return names, (json.dumps(entries, separators=(",", ":")) + "\n").encode()


def _band(rng: random.Random, base: int, even: bool) -> int:
    n = base + rng.randrange(BAND_WIDTH + 1)
    return n - n % 2 if even else n


def big_presentation(order: int, dihedral: bool) -> str:
    if dihedral:
        return f"a, b | a^2 = 1, b^{order // 2} = 1, a^-1 b a = b^-1"
    return f"a | a^{order} = 1"


def oneshot_plan(seed: int, ref: dict) -> list[dict]:
    """The seeded query list as plain data: kind, CLI args, and expectations."""
    rng = random.Random(f"oneshot:{seed}")
    pres = ref["presentations"]
    plan: list[dict] = []
    for spec in rng.sample(ONESHOT_NPS_POOL, ONESHOT_NPS_TAKE):
        plan.append({"kind": "nps", "args": ["nps", spec], "group": spec})
    for spec in rng.sample(ONESHOT_ISO_YES_POOL, ONESHOT_ISO_YES_TAKE):
        plan.append({"kind": "iso", "args": ["present", pres[spec], "--iso-check", spec],
                     "group": spec, "check": spec, "same": True})
    for shown, other in rng.sample(ONESHOT_ISO_NO_POOL, ONESHOT_ISO_NO_TAKE):
        plan.append({"kind": "iso", "args": ["present", pres[shown], "--iso-check", other],
                     "group": shown, "check": other, "same": False})
    # odd slots are dihedral, whose order must be even
    for i, base in enumerate(ONESHOT_BIG_PRESENTATION_BANDS):
        order = _band(rng, base, even=i % 2 == 1)
        plan.append({"kind": "big_present",
                     "args": ["present", big_presentation(order, dihedral=i % 2 == 1)],
                     "order": order})
    for i, base in enumerate(ONESHOT_OVER_CAP_BANDS):
        order = _band(rng, base, even=i % 2 == 1)
        spec = f"D({order})" if i % 2 else f"C({order})"
        plan.append({"kind": "over_cap", "args": ["nps", spec], "order": order})
    plan.append({"kind": "over_cap", "args": ["nps", ONESHOT_DEFECT_SPEC], "order": 20000,
                 "known_defect": "nps C(20000) builds its 20000x20000 table before the cap "
                 "check and dies with MemoryError (exit 1) instead of exiting 2"})
    rng.shuffle(plan)
    return plan


def plan_bytes(plan: list[dict]) -> bytes:
    return (json.dumps(plan, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# verdict checks.  Each returns one message per wrong verdict.


def _exit_failure(result: ChildResult, expected: int) -> str | None:
    if result.timed_out:
        return "hit the time ceiling"
    if "MemoryError" in result.stderr:
        return f"hit the memory ceiling (exit {result.returncode})"
    if result.returncode != expected:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {result.returncode}, expected {expected}: {tail[0][:160]}"
    return None


def _json_report(result: ChildResult) -> dict | None:
    try:
        doc = json.loads(result.stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "rows" in doc and "summary" in doc else None


def _compare_rows(got: list[dict], want: list[dict], key: str, fields: tuple[str, ...]) -> list[str]:
    """Row-by-row comparison of the fields a reference row has; a missing,
    extra or differing row is wrong."""
    out = []
    by_key = {r.get(key): r for r in got}
    for w in want:
        g = by_key.get(w[key])
        if g is None:
            out.append(f"{w[key]}: row missing")
            continue
        bad = [f"{f}={g.get(f)!r} (want {w[f]!r})" for f in fields
               if f in w and g.get(f) != w[f]]
        if bad:
            out.append(f"{w[key]}: " + ", ".join(bad))
    want_keys = {w[key] for w in want}
    out += [f"{r.get(key)}: unexpected row" for r in got if r.get(key) not in want_keys]
    if len(got) != len(by_key):
        out.append("duplicate rows")
    return out


def check_sweep(result: ChildResult, ref: dict) -> list[str]:
    want = ref["sweep"]["rows"]
    fail = _exit_failure(result, 0)
    doc = _json_report(result)
    if doc is None:
        return [f"sweep: {fail or 'no JSON report'}"] * (len(want) + 1)
    out = _compare_rows(doc["rows"], want, "label", ("order", "computed", "status"))
    summary = doc["summary"]
    if fail or summary.get("fail") != 0 or summary.get("rows") != len(want):
        out.append(f"sweep summary/exit: {fail or summary}")
    return out


def check_classify(result: ChildResult, ref: dict) -> list[str]:
    want = ref["classify"]
    total = len(want["rows"]) + len(want["distinctness"]) + len(want["corpus"]) + 1
    fail = _exit_failure(result, 0)
    doc = _json_report(result)
    if doc is None:
        return [f"classify: {fail or 'no JSON report'}"] * total
    out = _compare_rows(doc["rows"], want["rows"], "label", ("computed", "status"))
    summary = doc["summary"]
    for section in ("distinctness", "corpus"):
        got = summary.get(section) or []
        out += [f"{section}: {line!r} missing" for line in want[section] if line not in got]
        out += [f"{section}: unexpected {line!r}" for line in got if line not in want[section]]
    expected_summary = {"fail": 0, "distinctness_ok": True, "corpus_unmatched": 0}
    if fail or any(summary.get(k) != v for k, v in expected_summary.items()):
        out.append(f"classify summary/exit: {fail or {k: summary.get(k) for k in expected_summary}}")
    return out


def census_expected_rows(names: list[str], ref: dict) -> list[dict]:
    rows = []
    for name in names:
        g = ref["groups"][name]
        if g.get("rejected"):
            rows.append({"name": name, "status": "rejected"})
        else:
            rows.append({"name": name, **{k: g[k] for k in ("order", "exponent", "s", "ps", "nps")},
                         "status": "ok"})
    return rows


def check_census(result: ChildResult, names: list[str], ref: dict) -> list[str]:
    want = census_expected_rows(names, ref)
    rejected = sum(w["status"] == "rejected" for w in want)
    fail = _exit_failure(result, 2 if rejected else 0)
    doc = _json_report(result)
    if doc is None:
        return [f"census: {fail or 'no JSON report'}"] * (len(want) + 1)
    got = []
    for row in doc["rows"]:
        status = str(row.get("status", ""))
        if status.startswith("error:") and str(LATTICE_CAP) in status:
            row = {"name": row.get("name"), "status": "rejected"}
        got.append(row)
    fields = ("order", "exponent", "s", "ps", "nps", "status")
    out = _compare_rows(got, want, "name", fields)
    if [r.get("name") for r in doc["rows"]] != names:
        out.append("census rows out of corpus order")
    summary = doc["summary"]
    if fail or summary.get("errors") != rejected or summary.get("entries") != len(want):
        out.append(f"census summary/exit: {fail or summary}")
    return out


def _field(stdout: str, key: str) -> str | None:
    m = re.search(rf"^{re.escape(key)}: (.*)$", stdout, re.MULTILINE)
    return m.group(1).strip() if m else None


def check_query(result: ChildResult, item: dict, ref: dict) -> list[str]:
    """One verdict per query: right exit code, right counts, right answer."""
    kind = item["kind"]
    label = " ".join(item["args"][:2])[:80]
    if kind == "nps":
        g = ref["groups"][item["group"]]
        expected_exit = 0
        want = {"order": g["order"], "exponent": g["exponent"], "subgroups": g["s"],
                "power subgroups": g["ps"], "nonpower subgroups": g["nps"]}
    elif kind == "iso":
        g = ref["groups"][item["group"]]
        expected_exit = 0 if item["same"] else 1
        want = {"order": g["order"], "nonpower subgroups": g["nps"],
                f"isomorphic to {item['check']}": "yes" if item["same"] else "no"}
    elif kind == "big_present":
        expected_exit = 2
        want = {"order": item["order"]}
    else:  # over_cap
        expected_exit = 2
        want = {}
    fail = _exit_failure(result, expected_exit)
    if fail:
        return [f"{label}: {fail}"]
    bad = [f"{k}={_field(result.stdout, k)!r} (want {v})" for k, v in want.items()
           if _field(result.stdout, k) != str(v)]
    if expected_exit == 2 and f"cap {LATTICE_CAP}" not in result.stderr:
        bad.append(f"rejection does not name the cap: {result.stderr.strip()[-120:]!r}")
    return [f"{label}: " + ", ".join(bad)] if bad else []


# ---------------------------------------------------------------------------
# workloads


SWEEP_ARGS = ("verify-formulas", "--max-n", "6", "--max-order", "1200", "--jobs", "1",
              "--format", "json")
CLASSIFY_ARGS = ("verify-theorems", "--max-n", "6", "--corpus", "data/bucket_groups.json",
                 "--jobs", "1", "--format", "json")


WORKLOADS = ("sweep", "oneshot")


def build_queries(workload: str, seed: int, ref: dict, workdir: Path) -> tuple[list[Query], bytes]:
    """The queries of one pass, and the exact input bytes they were made from.

    oneshot runs the forty queries of oneshot_plan, one verify-theorems with
    the bucket corpus and one census of the seeded corpus, in a seeded order.
    """
    if workload == "sweep":
        return [Query(SWEEP_ARGS, len(ref["sweep"]["rows"]) + 1,
                      lambda r: check_sweep(r, ref), ceiling_s=90.0)], b""
    if workload == "oneshot":
        plan = oneshot_plan(seed, ref)
        queries = [
            Query(tuple(item["args"]), 1, (lambda r, it=item: check_query(r, it, ref)),
                  ceiling_s=30.0, known_defect=item.get("known_defect"))
            for item in plan
        ]
        c = ref["classify"]
        classify_verdicts = len(c["rows"]) + len(c["distinctness"]) + len(c["corpus"]) + 1
        names, corpus = census_corpus(seed, ref)
        path = workdir / f"census-{seed}.json"
        path.write_bytes(corpus)
        census_args = ("census", str(path), "--jobs", "1", "--format", "json")
        rng = random.Random(f"oneshot-batch:{seed}")
        for query in (
            Query(CLASSIFY_ARGS, classify_verdicts, lambda r: check_classify(r, ref),
                  ceiling_s=45.0),
            Query(census_args, len(names) + 1, lambda r: check_census(r, names, ref),
                  ceiling_s=45.0),
        ):
            queries.insert(rng.randrange(len(queries) + 1), query)
        return queries, plan_bytes(plan) + corpus
    raise ValueError(f"unknown workload {workload!r}")

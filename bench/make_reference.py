"""Regenerate reference.json: the frozen inputs and the expected verdicts.

Run from the repository root, on the commit whose outputs are to be
recorded (reference.json names it):

    PYTHONPATH=src python3 bench/make_reference.py

Where each expected value comes from (the "nps_source" of a group or row):

* "catalog": `catalog.expected_nps` when its kind is EXACT.
* "rank2": for C(p^a) x C(p^b), a <= b, the divisor sum
  `arith.subgroup_count_rank2(p, a, b)` minus the b + 1 power subgroups.
* "elementary": for (C_p)^n, n >= 3, the Gaussian-binomial total
  `arith.subgroup_count_elementary_abelian(p, n)` minus its 2 power
  subgroups (G and 1).
* "bucket": the classification bucket k that `catalog.instantiate_bucket`
  places the group in; also the expected value of every verify-theorems row.
* "recorded": taken from the lattice on the recorded commit, because no
  independent source exists.  This covers nps of the groups listed under
  "recorded_nps" in reference.json, the four lower-bound rows of the sweep
  (which must also meet their catalog bound), and exponent, s and ps of
  every group.  The distinctness and corpus lines of verify-theorems are
  recorded too; each corpus line must report the nps of its own bucket.

None of the first four touches `lattice`.  Orders come from
`families.expected_order`, or n! and n!/2 for the natural permutation
groups.  The script asserts that every recorded value agrees with every
independent one it has.

The inputs are frozen here as well: regular representations from
`corpus.entry_from_group` for the census pool, and the built-in
presentation text for the groups the oneshot workload presents.  Frozen
inputs keep every later commit measured on the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import workloads as W

ROOT = W.BENCH_DIR.parent

from npscensus import (  # noqa: E402
    EXACT,
    LOWER_BOUND,
    UNDER_REVIEW,
    build,
    builtin_presentation,
    counts,
    entry_from_group,
    expected_nps,
    expected_order,
    group_from_generators,
    instantiate_bucket,
    parse_spec,
)
from npscensus.arith import (  # noqa: E402
    factorize,
    is_prime,
    subgroup_count_elementary_abelian,
    subgroup_count_rank2,
)
from npscensus.families import UnknownFamilyError  # noqa: E402

STATUS = {EXACT: "pass", LOWER_BOUND: "lower_bound_ok", UNDER_REVIEW: "from_formula_under_review"}
NATURAL = re.compile(r"^(Sym|Alt)\((\d+)\) on \d+ points$")


def natural_generators(kind: str, n: int) -> list[list[int]]:
    if kind == "Sym":
        return [list(range(1, n)) + [0], [1, 0] + list(range(2, n))]
    gens = []
    for i in range(n - 2):
        perm = list(range(n))
        perm[i], perm[i + 1], perm[i + 2] = perm[i + 1], perm[i + 2], perm[i]
        gens.append(perm)
    return gens


def rank2_nps(label: str) -> int | None:
    m = re.fullmatch(r"C\((\d+)\)xC\((\d+)\)", label)
    if not m:
        return None
    x, y = sorted(int(v) for v in m.groups())
    fx, fy = factorize(x), factorize(y)
    if len(fx) != 1 or fx.keys() != fy.keys():
        return None
    (p,) = fx
    a, b = fx[p], fy[p]
    return subgroup_count_rank2(p, a, b) - (b + 1)


def elementary_nps(label: str) -> int | None:
    factors = re.findall(r"C\((\d+)\)", label)
    if "x".join(f"C({f})" for f in factors) != label or len(factors) < 3:
        return None
    if len(set(factors)) != 1 or not is_prime(int(factors[0])):
        return None
    return subgroup_count_elementary_abelian(int(factors[0]), len(factors)) - 2


def bucket_of() -> dict[str, int]:
    out = {}
    for k in range(14):
        for spec, _ in instantiate_bucket(k, 6, 600):
            out[str(spec)] = k
    return out


def independent_nps(label: str, buckets: dict[str, int]) -> tuple[int, str] | None:
    r2 = rank2_nps(label)
    if r2 is not None:
        return r2, "rank2"
    ea = elementary_nps(label)
    if ea is not None:
        return ea, "elementary"
    try:
        exp = expected_nps(parse_spec(label))
    except UnknownFamilyError:
        exp = None
    if exp is not None and exp.kind == EXACT:
        return int(exp.value), "catalog"
    if label in buckets:
        return buckets[label], "bucket"
    return None


def group_reference(name: str, buckets: dict[str, int]) -> tuple[dict, dict | None]:
    """Reference counts for one pool member, and its census input if any."""
    nat = NATURAL.match(name)
    if nat:
        kind, n = nat.group(1), int(nat.group(2))
        gens = natural_generators(kind, n)
        order = math.factorial(n) // (2 if kind == "Alt" else 1)
        inp = {"degree": n, "generators": gens}
        if order > W.LATTICE_CAP:
            return {"order": order, "rejected": True}, inp
        g = group_from_generators(n, gens, cap=W.LATTICE_CAP, label=name)
        indep = independent_nps(f"{kind}({n})", buckets)
    else:
        g = build(parse_spec(name), cap=100_000)
        order = expected_order(parse_spec(name))
        e = entry_from_group(name, g)
        inp = {"degree": e.degree, "generators": [list(p) for p in e.generators]}
        indep = independent_nps(name, buckets)
    assert g.order == order, name
    c = counts(g, cap=W.LATTICE_CAP)
    ref = {"order": order, "exponent": c.exponent, "s": c.s, "ps": c.ps, "nps": c.nps,
           "nps_source": "recorded"}
    if indep is not None:
        assert indep[0] == c.nps, (name, indep, c.nps)
        ref["nps_source"] = indep[1]
    return ref, inp


def run_cli(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "npscensus.cli", *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def sweep_reference(buckets: dict[str, int]) -> dict:
    doc = run_cli(*W.SWEEP_ARGS)
    rows = []
    for r in doc["rows"]:
        label = r["label"]
        spec = parse_spec(label)
        exp = expected_nps(spec)
        row = {"label": label, "order": expected_order(spec), "computed": r["computed"],
               "status": STATUS[exp.kind], "nps_source": "recorded"}
        indep = independent_nps(label, buckets)
        if exp.kind == LOWER_BOUND:
            assert r["computed"] >= exp.value, label
            row["nps_source"] = f"recorded; catalog lower bound {exp.value}"
        else:
            assert indep is not None and indep[0] == r["computed"], (label, indep)
            row["nps_source"] = indep[1]
        assert (r["order"], r["status"]) == (row["order"], row["status"]), label
        rows.append(row)
    return {"rows": rows}


def classify_reference() -> dict:
    doc = run_cli(*W.CLASSIFY_ARGS)
    rows = [
        {"label": str(spec), "computed": k, "status": "pass", "nps_source": "bucket"}
        for k in range(14)
        for spec, _ in instantiate_bucket(k, 6, 600)
    ]
    got = [(r["label"], r["computed"], r["status"]) for r in doc["rows"]]
    assert got == [(r["label"], r["computed"], r["status"]) for r in rows]
    corpus = doc["summary"]["corpus"]
    for line in corpus:
        m = re.match(r"k=(\d+): .*: nps=(\d+), ", line)
        assert m and m.group(1) == m.group(2), line
    return {"rows": rows, "distinctness": doc["summary"]["distinctness"], "corpus": corpus}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    buckets = bucket_of()
    names = [m for _, _, members in W.CENSUS_STRATA for m in members]
    names += list(W.ONESHOT_NPS_POOL) + list(W.ONESHOT_ISO_YES_POOL)
    names += [s for pair in W.ONESHOT_ISO_NO_POOL for s in pair]
    groups, census_inputs = {}, {}
    census_names = {m for _, _, members in W.CENSUS_STRATA for m in members}
    for name in dict.fromkeys(names):
        groups[name], inp = group_reference(name, buckets)
        if name in census_names:
            census_inputs[name] = inp
    for shown, other in W.ONESHOT_ISO_NO_POOL:
        a, b = groups[shown], groups[other]
        assert a["order"] == b["order"] and a["nps"] != b["nps"], (shown, other)
        assert "recorded" not in (a["nps_source"], b["nps_source"]), (shown, other)
    presented = set(W.ONESHOT_ISO_YES_POOL) | {s for s, _ in W.ONESHOT_ISO_NO_POOL}
    reference = {
        "recorded_commit": commit(),
        "recorded_nps": sorted(n for n, g in groups.items() if g.get("nps_source") == "recorded"),
        "groups": groups,
        "presentations": {s: builtin_presentation(parse_spec(s)).to_text() for s in sorted(presented)},
        "sweep": sweep_reference(buckets),
        "classify": classify_reference(),
        "census_inputs": census_inputs,
    }
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one line per permutation instead of one per point
    text = re.sub(r"\[\s+(-?\d+(?:,\s+-?\d+)*)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", "", m.group(1)) + "]", text)
    W.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {W.REFERENCE_PATH}; recorded nps: {reference['recorded_nps']}")


if __name__ == "__main__":
    main()

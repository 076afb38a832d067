"""Command-line surface.

Subcommands:
  nps              counts for one group given as a family spec (or a file
                   containing one)
  verify-formulas  sweep the closed-form count catalog against brute force
  verify-theorems  check the k = 0..13 classification lists
  census           per-entry counts for a JSON corpus of permutation groups
  present          coset-enumerate a presentation and count its subgroups

Exit codes: 0 all checks pass (under-review rows do not fail a run),
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import (
    EXACT,
    LOWER_BOUND,
    UNDER_REVIEW,
    ExpectedNps,
    expected_nps,
    instantiate_bucket,
    theorem_catalog,
)
from .core import CapExceeded, Group, Record, element_orders
from .corpus import CorpusEntry, CorpusError, load_corpus
from .coset import DEFAULT_MAX_COSETS, complete_coset_table, group_from_coset_table
from .families import (
    B1,
    B2,
    DIHEDRAL,
    EXTRASPECIAL,
    FFAMILY,
    GENERAL,
    GSHORT,
    MODULAR,
    QUATERNION,
    SEMIDIHEDRAL,
    SL23,
    SYM,
    XFAMILY,
    C3Q8,
    AFAMILY,
    FamilySpec,
    build,
    cyclic_spec,
    expected_order,
    product_spec,
    validate,
)
from .isomorphism import are_isomorphic
from .lattice import DEFAULT_LATTICE_CAP, CountSummary, counts
from .presentation import PresentationError, parse_presentation
from .specs import SpecError, parse_spec

if TYPE_CHECKING:
    from fractions import Fraction

PASS = "pass"
FAIL = "fail"
LOWER_OK = "lower_bound_ok"


class VerifyRecord(Record):
    label: str
    order: int
    expected: str
    kind: str
    computed: int
    status: str
    source: str


def _fmt_expected(value: int | Fraction) -> str:
    # int and Fraction both have a denominator
    if value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def _record(spec: FamilySpec, exp: ExpectedNps, computed: int) -> VerifyRecord:
    if exp.kind == EXACT:
        status = PASS if computed == exp.value else FAIL
    elif exp.kind == LOWER_BOUND:
        status = LOWER_OK if computed >= exp.value else FAIL
    else:
        status = UNDER_REVIEW
    return VerifyRecord(
        label=str(spec),
        order=expected_order(spec),
        expected=_fmt_expected(exp.value),
        kind=exp.kind,
        computed=computed,
        status=status,
        source=exp.source,
    )


# ---------------------------------------------------------------------------
# verify-formulas sweep


def _gn(n: int, qm_pairs: tuple[int, int]) -> FamilySpec:
    q, m = qm_pairs
    return FamilySpec(GSHORT, (n, q, m))


def formula_sweep(max_n: int = 4, max_order: int = DEFAULT_LATTICE_CAP) -> list[FamilySpec]:
    """The default catalog sweep, in fixed report order."""
    q8 = FamilySpec(QUATERNION, (8,))
    c2, c3 = cyclic_spec(2), cyclic_spec(3)
    specs: list[FamilySpec] = []
    specs += [FamilySpec(DIHEDRAL, (2**n,)) for n in range(3, 7)]
    specs += [FamilySpec(QUATERNION, (2**n,)) for n in range(3, 7)]
    specs += [FamilySpec(SEMIDIHEDRAL, (2**n,)) for n in range(4, 7)]
    specs += [FamilySpec(MODULAR, (n, 2)) for n in range(4, 8)]
    specs += [FamilySpec(MODULAR, (n, 3)) for n in range(3, 6)]
    specs += [FamilySpec(MODULAR, (3, 5))]
    specs += [FamilySpec(EXTRASPECIAL, (3,)), FamilySpec(EXTRASPECIAL, (5,))]
    for qm in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        specs += [_gn(n, qm) for n in range(1, max_n + 1)]
    specs += [FamilySpec(FFAMILY, (n, 7)) for n in (1, 2)]
    specs += [FamilySpec(FFAMILY, (n, 13)) for n in (1, 2)]
    specs += [FamilySpec(AFAMILY, (n,)) for n in (1, 2, 3)]
    # distinct-prime metacyclic spot checks
    specs += [
        FamilySpec(GENERAL, (2, 2, 5, 1), r=2),
        FamilySpec(GENERAL, (2, 3, 5, 1), r=2),
        FamilySpec(GENERAL, (5, 1, 11, 1), r=3),
        FamilySpec(GENERAL, (2, 1, 3, 2), r=-1),
        FamilySpec(GENERAL, (3, 1, 7, 1), r=2),
    ]
    # same-prime metacyclic instances sharing the abelian counts
    specs += [
        FamilySpec(GENERAL, (3, 1, 3, 1), r=4),
        FamilySpec(GENERAL, (3, 2, 3, 1), r=7),
        FamilySpec(GENERAL, (5, 1, 5, 1), r=6),
        FamilySpec(GENERAL, (3, 1, 3, 2), r=4),
        FamilySpec(GENERAL, (3, 2, 3, 2), r=4),
        FamilySpec(GENERAL, (5, 1, 5, 2), r=6),
    ]
    specs += [FamilySpec(B1, p) for p in ((2, 2), (2, 3), (3, 2))]
    specs += [FamilySpec(B2, p) for p in ((2, 2), (2, 3), (3, 2))]
    specs += [
        product_spec(_gn(1, (3, 1)), c3),
        product_spec(_gn(2, (3, 1)), c3),
        product_spec(_gn(1, (3, 1)), c3, c3),
        product_spec(q8, c2),
        product_spec(q8, c2, c2),
        FamilySpec(SL23, ()),
        FamilySpec(SYM, (4,)),
        FamilySpec(C3Q8, ()),
        product_spec(FamilySpec(DIHEDRAL, (6,)), c2),
        product_spec(FamilySpec(DIHEDRAL, (10,)), c2),
        product_spec(FamilySpec(DIHEDRAL, (14,)), c2),
        product_spec(FamilySpec(DIHEDRAL, (6,)), c2, c2),
        FamilySpec(XFAMILY, (1, 3)),
        FamilySpec(XFAMILY, (2, 3)),
        FamilySpec(XFAMILY, (3, 3)),
        FamilySpec(XFAMILY, (1, 5)),
        FamilySpec(XFAMILY, (2, 5)),
        FamilySpec(XFAMILY, (1, 7)),
    ]
    # rank-2 abelian p-groups: printed formula vs enumeration
    for p in (2, 3, 5):
        for n2 in range(1, 7):
            for n1 in range(1, n2 + 1):
                if p ** (n1 + n2) <= max_order:
                    specs.append(
                        product_spec(cyclic_spec(p**n1), cyclic_spec(p**n2))
                    )
    return [s for s in specs if expected_order(s) <= max_order]


def _release(*groups: Group) -> None:
    """Empty each group's cache.  A cached lattice refers back to its group,
    so otherwise a finished group is freed only by the cycle collector, and
    a run keeps several dead large tables alive at once."""
    for g in groups:
        g._cache.clear()


def _counts_and_release(g: Group, max_order: int) -> CountSummary:
    c = counts(g, cap=max_order)
    _release(g)
    return c


def _formula_worker(args: tuple[FamilySpec, int]) -> VerifyRecord:
    spec, max_order = args
    exp = expected_nps(spec)
    g = build(spec, cap=max_order)
    c = _counts_and_release(g, max_order)
    return _record(spec, exp, c.nps)


def _theorem_worker(args: tuple[int, FamilySpec, str, int]) -> VerifyRecord:
    k, spec, template, max_order = args
    g = build(spec, cap=max_order)
    c = _counts_and_release(g, max_order)
    return VerifyRecord(
        label=str(spec),
        order=g.order,
        expected=str(k),
        kind=EXACT,
        computed=c.nps,
        status=PASS if c.nps == k else FAIL,
        source=f"classification bucket k={k}: {template}",
    )


def _census_worker(args: tuple[CorpusEntry, int]) -> dict[str, object]:
    entry, max_order = args
    try:
        g = entry.group(cap=max_order)
        c = _counts_and_release(g, max_order)
        return {
            "name": entry.name,
            "order": g.order,
            "exponent": c.exponent,
            "s": c.s,
            "ps": c.ps,
            "nps": c.nps,
            "status": "ok",
        }
    except (CapExceeded, ValueError) as exc:
        return {
            "name": entry.name,
            "order": "",
            "exponent": "",
            "s": "",
            "ps": "",
            "nps": "",
            "status": f"error: {exc}",
        }


def _pmap(worker, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    # imported here: the pool pulls in multiprocessing, logging, pickle and
    # socket, which a one-process run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(worker, items))


# ---------------------------------------------------------------------------
# report output


_VERIFY_COLUMNS = ("label", "order", "expected", "kind", "computed", "status", "source")
_CENSUS_COLUMNS = ("name", "order", "exponent", "s", "ps", "nps", "status")


def _write_csv(out, columns, rows, comments: list[str]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row[c] for c in columns])
    out.write(buf.getvalue())
    for line in comments:
        out.write(f"# {line}\n")


def _write_json(out, rows, summary: dict) -> None:
    out.write(json.dumps({"rows": rows, "summary": summary}, indent=1, sort_keys=True))
    out.write("\n")


def _verify_rows_as_dicts(records: list[VerifyRecord]) -> list[dict]:
    return [
        {
            "label": r.label,
            "order": r.order,
            "expected": r.expected,
            "kind": r.kind,
            "computed": r.computed,
            "status": r.status,
            "source": r.source,
        }
        for r in records
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_nps(args) -> int:
    text = args.spec
    path = Path(text)
    if path.is_file():
        text = path.read_text(encoding="utf-8").strip()
    spec = parse_spec(text)
    err = validate(spec)
    if err:
        print(f"invalid spec {spec}: {err}", file=sys.stderr)
        return 2
    order = expected_order(spec)
    if order > args.max_order:
        print(
            f"order {order} exceeds lattice cap {args.max_order} "
            f"(raise --max-order)",
            file=sys.stderr,
        )
        return 2
    c = _counts_and_release(build(spec, cap=args.max_order), args.max_order)
    print(f"group: {spec}")
    print(f"order: {c.order}")
    print(f"exponent: {c.exponent}")
    print(f"subgroups: {c.s}")
    print(f"power subgroups: {c.ps}")
    print(f"nonpower subgroups: {c.nps}")
    return 0


def cmd_verify_formulas(args) -> int:
    specs = formula_sweep(max_n=args.max_n, max_order=args.max_order)
    records = _pmap(_formula_worker, [(s, args.max_order) for s in specs], args.jobs)
    rows = _verify_rows_as_dicts(records)
    n_fail = sum(r.status == FAIL for r in records)
    n_review = sum(r.status == UNDER_REVIEW for r in records)
    mismatched_reviews = sum(
        r.status == UNDER_REVIEW and r.expected != str(r.computed) for r in records
    )
    summary = {
        "rows": len(records),
        "pass": sum(r.status == PASS for r in records),
        "lower_bound_ok": sum(r.status == LOWER_OK for r in records),
        "under_review": n_review,
        "under_review_formula_mismatches": mismatched_reviews,
        "fail": n_fail,
    }
    if args.format == "json":
        _write_json(sys.stdout, rows, summary)
    else:
        comments = [f"{k}={v}" for k, v in sorted(summary.items())]
        _write_csv(sys.stdout, _VERIFY_COLUMNS, rows, comments)
    return 1 if n_fail else 0


def _minimal_instances(k: int, max_order: int) -> list[tuple[FamilySpec, str]]:
    out = []
    for member in theorem_catalog(k):
        if member.lowest_n is None:
            spec = member.make
        else:
            spec = member.make(member.lowest_n)
        if expected_order(spec) <= max_order:
            out.append((spec, member.template))
    return out


def _bucket_candidates_for_order(k: int, order: int) -> list[FamilySpec]:
    """Bucket members instantiated to hit a target order (for matching)."""
    out = []
    for member in theorem_catalog(k):
        if member.lowest_n is None:
            if expected_order(member.make) == order:
                out.append(member.make)
        else:
            n = member.lowest_n
            while True:
                spec = member.make(n)
                o = expected_order(spec)
                if o > order or n > 40:
                    break
                if o == order:
                    out.append(spec)
                n += 1
    return out


def cmd_verify_theorems(args) -> int:
    work = []
    for k in range(args.k_min, args.k_max + 1):
        for spec, template in instantiate_bucket(k, args.max_n, args.max_order):
            work.append((k, spec, template, args.max_order))
    records = _pmap(_theorem_worker, work, args.jobs)
    n_fail = sum(r.status == FAIL for r in records)

    # pairwise non-isomorphism at minimal parameters
    distinct_ok = True
    distinct_lines: list[str] = []
    for k in range(args.k_min, args.k_max + 1):
        minimal = _minimal_instances(k, args.max_order)
        groups = [(str(s), build(s, cap=args.max_order)) for s, _ in minimal]
        clashes = []
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if are_isomorphic(groups[i][1], groups[j][1], cap=args.max_order):
                    clashes.append(f"{groups[i][0]} ~ {groups[j][0]}")
        _release(*(g for _, g in groups))
        if clashes:
            distinct_ok = False
            distinct_lines.append(f"k={k}: isomorphic pair(s): " + "; ".join(clashes))
        else:
            distinct_lines.append(
                f"k={k}: {len(groups)} minimal members pairwise non-isomorphic"
            )

    # optional corpus completeness report
    corpus_lines: list[str] = []
    unmatched = 0
    if args.corpus:
        entries = load_corpus(args.corpus)
        for entry in entries:
            try:
                g = entry.group(cap=args.max_order)
                c = counts(g, cap=args.max_order)
            except (CapExceeded, ValueError) as exc:
                corpus_lines.append(f"{entry.name}: error: {exc}")
                continue
            k = c.nps
            if not args.k_min <= k <= args.k_max:
                _release(g)
                corpus_lines.append(f"{entry.name}: nps={k}, outside k range")
                continue
            if k == 0:
                ok = g.order in element_orders(g)
                _release(g)
                corpus_lines.append(
                    f"{entry.name}: nps=0, cyclic={'yes' if ok else 'NO'}"
                )
                if not ok:
                    unmatched += 1
                continue
            hit = None
            for cand in _bucket_candidates_for_order(k, g.order):
                other = build(cand, cap=args.max_order)
                same = are_isomorphic(g, other, cap=args.max_order)
                _release(other)
                if same:
                    hit = str(cand)
                    break
            _release(g)
            if hit:
                corpus_lines.append(f"{entry.name}: nps={k}, matches {hit}")
            else:
                unmatched += 1
                corpus_lines.append(
                    f"{entry.name}: nps={k}, NO bucket match (potential counterexample)"
                )

    rows = _verify_rows_as_dicts(records)
    summary = {
        "rows": len(records),
        "pass": sum(r.status == PASS for r in records),
        "fail": n_fail,
        "distinctness_ok": distinct_ok,
        "corpus_unmatched": unmatched,
    }
    if args.format == "json":
        summary["distinctness"] = distinct_lines
        summary["corpus"] = corpus_lines
        _write_json(sys.stdout, rows, summary)
    else:
        comments = [f"{k}={v}" for k, v in sorted(summary.items())]
        comments += [f"distinctness: {line}" for line in distinct_lines]
        comments += [f"corpus: {line}" for line in corpus_lines]
        _write_csv(sys.stdout, _VERIFY_COLUMNS, rows, comments)
    return 1 if (n_fail or not distinct_ok) else 0


def cmd_census(args) -> int:
    entries = load_corpus(args.corpus)
    rows = _pmap(_census_worker, [(e, args.max_order) for e in entries], args.jobs)
    hist: dict[int, int] = {}
    bad = 0
    for row in rows:
        if row["status"] == "ok":
            hist[row["nps"]] = hist.get(row["nps"], 0) + 1
        else:
            bad += 1
    summary = {
        "entries": len(rows),
        "errors": bad,
        "nps_histogram": {str(k): v for k, v in sorted(hist.items())},
    }
    if args.format == "json":
        _write_json(sys.stdout, rows, summary)
    else:
        comments = [f"entries={len(rows)}", f"errors={bad}"]
        comments += [f"nps={k}: {v}" for k, v in sorted(hist.items())]
        _write_csv(sys.stdout, _CENSUS_COLUMNS, rows, comments)
    return 2 if bad else 0


def cmd_present(args) -> int:
    text = args.presentation
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8").strip()
    pres = parse_presentation(text)
    table = complete_coset_table(pres, max_cosets=args.max_cosets)
    order = table.num_cosets
    print(f"presentation: {pres.to_text()}")
    print(f"order: {order}")
    if order > args.max_order:
        print(
            f"order {order} exceeds lattice cap {args.max_order}; "
            f"skipping subgroup counts",
            file=sys.stderr,
        )
        return 2
    g = group_from_coset_table(table)
    try:
        c = counts(g, cap=args.max_order)
        print(f"exponent: {c.exponent}")
        print(f"subgroups: {c.s}")
        print(f"power subgroups: {c.ps}")
        print(f"nonpower subgroups: {c.nps}")
        if args.iso_check:
            spec = parse_spec(args.iso_check)
            err = validate(spec)
            if err:
                print(f"invalid spec {spec}: {err}", file=sys.stderr)
                return 2
            other = build(spec, cap=max(args.max_order, expected_order(spec)))
            same = are_isomorphic(
                g, other, cap=max(args.max_order, g.order, other.order)
            )
            _release(other)
            print(f"isomorphic to {spec}: {'yes' if same else 'no'}")
            if not same:
                return 1
        return 0
    finally:
        _release(g)


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    default_cap = int(os.environ.get("NPS_MAX_ORDER", DEFAULT_LATTICE_CAP))
    top = argparse.ArgumentParser(
        prog="npscensus",
        description=(
            "Count power and nonpower subgroups of finite groups, and "
            "verify the closed-form counts and the classification of "
            "groups with at most 13 nonpower subgroups."
        ),
        epilog=(
            "Family specs: C(n) cyclic; D(2n) dihedral; Q(2^n) generalized "
            "quaternion; S(2^n) semidihedral; M(n,p) modular of order p^n; "
            "M(p) extraspecial of order p^3, exponent p; "
            "G(r=..;p=..,n=..;q=..,m=..) metacyclic C_{q^m} x| C_{p^n} with "
            "twist r; Gn(n,q) the same with p=2, r=-1 and q a prime power; "
            "F(n,p[,r]) with an order-3 twist; B1(n,p), B2(n,p); A(n) the "
            "group (C2xC2) x| C_{3^n}; Sym(n); Alt(n); SL23; C3Q8; X(n,p) "
            "for D_{2p} x C3^n; products join with 'x': Q(8)xC(2)."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, jobs=True):
        p.add_argument(
            "--max-order",
            type=int,
            default=default_cap,
            help=f"subgroup-lattice order cap (default {default_cap}; "
            f"env NPS_MAX_ORDER)",
        )
        if jobs:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="parallel workers across groups (default 1)",
            )
            p.add_argument(
                "--format",
                choices=("csv", "json"),
                default="csv",
                help="report format (default csv)",
            )

    p = sub.add_parser("nps", help="counts for one group")
    p.add_argument("spec", help="family spec, or a file containing one")
    common(p, jobs=False)
    p.set_defaults(fn=cmd_nps)

    p = sub.add_parser("verify-formulas", help="closed-form counts vs brute force")
    p.add_argument(
        "--max-n", type=int, default=4, help="family parameter sweep bound (default 4)"
    )
    common(p)
    p.set_defaults(fn=cmd_verify_formulas)

    p = sub.add_parser("verify-theorems", help="classification lists k=0..13")
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=13)
    p.add_argument(
        "--max-n", type=int, default=4, help="family parameter sweep bound (default 4)"
    )
    p.add_argument(
        "--corpus",
        default=None,
        help="optional corpus JSON; entries with nps <= 13 are matched "
        "against the buckets",
    )
    common(p)
    p.set_defaults(fn=cmd_verify_theorems)

    p = sub.add_parser("census", help="counts for every entry of a corpus file")
    p.add_argument("corpus", help="corpus JSON path")
    common(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("present", help="enumerate a presentation and count")
    p.add_argument("presentation", help="presentation text, or @file")
    p.add_argument(
        "--max-cosets",
        type=int,
        default=DEFAULT_MAX_COSETS,
        help=f"coset cap (default {DEFAULT_MAX_COSETS})",
    )
    p.add_argument(
        "--iso-check",
        default=None,
        help="family spec to compare against with the isomorphism test",
    )
    common(p, jobs=False)
    p.set_defaults(fn=cmd_present)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, PresentationError, CorpusError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

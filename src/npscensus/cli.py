"""Command-line surface.

Subcommands:
  nps              counts for one group given as a family spec (or a file
                   containing one)
  verify-formulas  sweep the closed-form count catalog against brute force
  verify-theorems  check the k = 0..13 classification lists
  census           per-entry counts for a JSON corpus of permutation groups
  present          coset-enumerate a presentation and count its subgroups

Exit codes: 0 all checks pass (under-review rows do not fail a run),
1 verification failure (a corpus entry that matches no bucket member
among them), 2 input error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter
from itertools import chain, combinations
from typing import TYPE_CHECKING

from .catalog import (
    EXACT,
    LOWER_BOUND,
    UNDER_REVIEW,
    ExpectedNps,
    expected_nps,
    instances_of_order,
    instantiate_bucket,
    minimal_instances,
)
from .core import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    Group,
    closure_columns,
    group_from_columns,
)
from .corpus import CorpusEntry, CorpusError, load_corpus
from .coset import DEFAULT_MAX_COSETS, enumerate_cosets, group_from_coset_table
from .families import (
    FamilySpec,
    build,
    expected_order,
    metacyclic_of,
    order_up_to,
    shape_error,
    split_cyclic,
    validate,
)
from .isomorphism import are_isomorphic
from .lattice import (
    CountSummary,
    column_counts,
    counts,
    counts_times_abelian,
    metacyclic_counts,
)
from .presentation import PresentationError, parse_presentation
from .specs import SpecError, parse_spec

if TYPE_CHECKING:
    from fractions import Fraction

# the largest order an over-cap message prints in digits: CPython refuses
# to format an int with more digits than its limit (4300 by default, 0 for
# none)
_PRINTABLE = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) - 1

PASS = "pass"
FAIL = "fail"
LOWER_OK = "lower_bound_ok"

_VERIFY_COLUMNS = ("label", "order", "expected", "kind", "computed", "status", "source")
_CENSUS_COLUMNS = ("name", "order", "exponent", "s", "ps", "nps", "status")


def _fmt_expected(value: int | Fraction) -> str:
    # int and Fraction both have a denominator
    if value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def _record(spec: FamilySpec, exp: ExpectedNps, computed: int) -> dict[str, object]:
    """A verify report row, keyed by `_VERIFY_COLUMNS`."""
    if exp.kind == EXACT:
        status = PASS if computed == exp.value else FAIL
    elif exp.kind == LOWER_BOUND:
        status = LOWER_OK if computed >= exp.value else FAIL
    else:
        status = UNDER_REVIEW
    values = (str(spec), expected_order(spec), _fmt_expected(exp.value), exp.kind,
              computed, status, exp.source)
    return dict(zip(_VERIFY_COLUMNS, values))


# ---------------------------------------------------------------------------
# verify-formulas sweep


def formula_sweep(max_n: int = 4, max_order: int = DEFAULT_ORDER_CAP) -> list[FamilySpec]:
    """The default catalog sweep, in fixed report order."""
    texts = [f"D({2**n})" for n in range(3, 7)] + [f"Q({2**n})" for n in range(3, 7)]
    texts += [f"S({2**n})" for n in range(4, 7)]
    texts += [f"M({n},2)" for n in range(4, 8)] + [f"M({n},3)" for n in range(3, 6)]
    texts += ["M(3,5)", "M(3)", "M(5)"]
    texts += [f"Gn({n},{q})" for q in (3, 5, 7, 9, 11, 13) for n in range(1, max_n + 1)]
    texts += ["F(1,7)", "F(2,7)", "F(1,13)", "F(2,13)", "A(1)", "A(2)", "A(3)"]
    # distinct-prime metacyclic spot checks
    texts += ["G(r=2;p=2,n=2;q=5,m=1)", "G(r=2;p=2,n=3;q=5,m=1)", "G(r=3;p=5,n=1;q=11,m=1)"]
    texts += ["G(r=-1;p=2,n=1;q=3,m=2)", "G(r=2;p=3,n=1;q=7,m=1)"]
    # same-prime metacyclic instances sharing the abelian counts
    texts += ["G(r=4;p=3,n=1;q=3,m=1)", "G(r=7;p=3,n=2;q=3,m=1)", "G(r=6;p=5,n=1;q=5,m=1)"]
    texts += ["G(r=4;p=3,n=1;q=3,m=2)", "G(r=4;p=3,n=2;q=3,m=2)", "G(r=6;p=5,n=1;q=5,m=2)"]
    texts += [f"B{i}({n},{p})" for i in (1, 2) for n, p in ((2, 2), (2, 3), (3, 2))]
    texts += ["Gn(1,3)xC(3)", "Gn(2,3)xC(3)", "Gn(1,3)xC(3)xC(3)", "Q(8)xC(2)", "Q(8)xC(2)xC(2)"]
    texts += ["SL23", "Sym(4)", "C3Q8", "D(6)xC(2)", "D(10)xC(2)", "D(14)xC(2)", "D(6)xC(2)xC(2)"]
    texts += [f"X({n},{p})" for n, p in ((1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (1, 7))]
    # rank-2 abelian p-groups: printed formula vs enumeration
    texts += [
        f"C({p**n1})xC({p**n2})"
        for p in (2, 3, 5)
        for n2 in range(1, 7)
        for n1 in range(1, n2 + 1)
    ]
    return [s for s in map(parse_spec, texts) if expected_order(s) <= max_order]


def _spec_counts(spec: FamilySpec, max_order: int) -> tuple[CountSummary, Group | None]:
    """counts() of the group of a valid spec of order at most max_order,
    which the caller has checked, and the table it was counted from.  A
    metacyclic spec, split or not, is counted from its parameters, and C(n)
    or a spec of direct factors with a cyclic one as A x B, B the product
    of every cyclic factor, from the lattice of A alone, or from the type
    when A is abelian or trivial.  Their table is None.  Every other spec
    is built whole, once, and counted from its table by `counts`."""
    twist = metacyclic_of(spec)
    if twist is not None:
        return metacyclic_counts(*twist), None
    split = split_cyclic(spec)
    if split is not None:
        rest, orders = split
        A = None if rest is None else build(rest, max_order, check=False)
        return counts_times_abelian(A, orders, max_order), None
    G = build(spec, max_order, check=False)
    return counts(G, cap=max_order), G


def _entry_counts(
    entry: CorpusEntry, max_order: int
) -> tuple[CountSummary, list[list[int]], Group | None]:
    """counts() of the group of a corpus entry, the columns of its one
    closure, and the table it was counted from.  An abelian entry is
    counted from the columns and its table is None; any other builds one
    table from the same columns, with no second closure."""
    cols = closure_columns(entry.degree, entry.generators, max_order)
    c = column_counts(cols)
    if c is not None:
        return c, cols, None
    G = group_from_columns(cols, label=entry.name)
    return counts(G, cap=max_order), cols, G


def _verify_worker(args: tuple[FamilySpec, ExpectedNps, int]) -> dict[str, object]:
    spec, exp, max_order = args
    return _record(spec, exp, _spec_counts(spec, max_order)[0].nps)


def _census_worker(args: tuple[CorpusEntry, int]) -> dict[str, object]:
    """A census report row, keyed by `_CENSUS_COLUMNS`; the counts are
    blank in the row of an entry that fails."""
    entry, max_order = args
    row = dict.fromkeys(_CENSUS_COLUMNS, "")
    row["name"] = entry.name
    try:
        c = _entry_counts(entry, max_order)[0]
    except (CapExceeded, ValueError) as exc:
        row["status"] = f"error: {exc}"
        return row
    row.update(order=c.order, exponent=c.exponent, s=c.s, ps=c.ps, nps=c.nps, status="ok")
    return row


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


def _write_csv(out, columns, rows, comments: list[str]) -> None:
    # csv and json are imported by the reports that write them, not by a
    # one-shot query
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row[c] for c in columns])
    out.write(buf.getvalue())
    for line in comments:
        out.write(f"# {line}\n")


def _write_json(out, rows, summary: dict) -> None:
    import json

    out.write(json.dumps({"rows": rows, "summary": summary}, indent=1, sort_keys=True))
    out.write("\n")


def _report(fmt: str, columns, rows, summary: dict, comments: list[str]) -> None:
    """Write the rows to stdout: as JSON with the summary, or as CSV
    followed by the comment lines."""
    if fmt == "json":
        _write_json(sys.stdout, rows, summary)
    else:
        _write_csv(sys.stdout, columns, rows, comments)


def _summary_lines(summary: dict) -> list[str]:
    return [f"{k}={v}" for k, v in sorted(summary.items())]


# ---------------------------------------------------------------------------
# subcommands


def cmd_nps(args) -> int:
    text = args.spec
    # False also when the text cannot be a file name, e.g. one longer than
    # the file-name limit
    if os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            text = fh.read().strip()
    spec = parse_spec(text)
    # the cap comes before the family checks, which can take long on large
    # parameters (a primality test), but after the shape check, without
    # which the spec has no order
    if shape_error(spec) is None:
        order = order_up_to(spec, max(args.max_order, _PRINTABLE))
        if order > args.max_order:
            shown = order if order <= _PRINTABLE else f"of {spec}"
            print(
                f"order {shown} exceeds lattice cap {args.max_order} "
                f"(raise --max-order)",
                file=sys.stderr,
            )
            return 2
    err = validate(spec)
    if err:
        print(f"invalid spec {spec}: {err}", file=sys.stderr)
        return 2
    c = _spec_counts(spec, args.max_order)[0]
    print(f"group: {spec}")
    print(f"order: {c.order}")
    print(f"exponent: {c.exponent}")
    print(f"subgroups: {c.s}")
    print(f"power subgroups: {c.ps}")
    print(f"nonpower subgroups: {c.nps}")
    return 0


def cmd_verify_formulas(args) -> int:
    specs = formula_sweep(max_n=args.max_n, max_order=args.max_order)
    # a temporary list, so that the expected counts die with it
    rows = _pmap(_verify_worker, [(s, expected_nps(s), args.max_order) for s in specs], args.jobs)
    tally = Counter(r["status"] for r in rows)
    summary = {
        "rows": len(rows),
        "pass": tally[PASS],
        "lower_bound_ok": tally[LOWER_OK],
        "under_review": tally[UNDER_REVIEW],
        "under_review_formula_mismatches": sum(
            r["status"] == UNDER_REVIEW and r["expected"] != str(r["computed"]) for r in rows
        ),
        "fail": tally[FAIL],
    }
    _report(args.format, _VERIFY_COLUMNS, rows, summary, _summary_lines(summary))
    return 1 if tally[FAIL] else 0


def _distinctness(k: int, max_order: int) -> tuple[bool, str]:
    """Whether the minimal members of bucket k are pairwise non-isomorphic,
    and the report line.  Isomorphic groups agree on order and counts, so
    only the pairs that agree on both are compared, each group built once;
    the tables die when this returns."""
    specs = [s for s, _ in minimal_instances(k, max_order)]
    orders = [expected_order(s) for s in specs]
    keys: list = list(orders)
    tables: dict[int, Group | None] = {}
    for i, (s, o) in enumerate(zip(specs, orders)):
        if orders.count(o) > 1:
            keys[i], tables[i] = _spec_counts(s, max_order)
    pairs = [(i, j) for i, j in combinations(range(len(keys)), 2) if keys[i] == keys[j]]
    groups = {i: tables[i] or build(specs[i], cap=max_order) for i in set(chain(*pairs))}
    del tables
    clashes = [
        f"{specs[i]} ~ {specs[j]}"
        for i, j in pairs
        if are_isomorphic(groups[i], groups[j], cap=max_order)
    ]
    if clashes:
        return False, f"k={k}: isomorphic pair(s): " + "; ".join(clashes)
    return True, f"k={k}: {len(specs)} minimal members pairwise non-isomorphic"


def _corpus_line(entry: CorpusEntry, k_min: int, k_max: int, max_order: int) -> tuple[str, bool]:
    """The report line of one corpus entry, and whether it is unmatched:
    cyclic for nps = 0, else isomorphic to no bucket member of its nps and
    order.  An abelian entry's table is built only for a candidate with its
    counts; its table and each candidate's die when this returns."""
    try:
        c, cols, g = _entry_counts(entry, max_order)
    except (CapExceeded, ValueError) as exc:
        return f"{entry.name}: error: {exc}", False
    k = c.nps
    if not k_min <= k <= k_max:
        return f"{entry.name}: nps={k}, outside k range", False
    if k == 0:
        ok = c.exponent == c.order
        return f"{entry.name}: nps=0, cyclic={'yes' if ok else 'NO'}", not ok
    for cand in instances_of_order(k, c.order):
        cc, h = _spec_counts(cand, max_order)
        # a candidate with other counts is not isomorphic to the entry
        if cc == c:
            g = g or group_from_columns(cols, label=entry.name)
            if are_isomorphic(g, h or build(cand, cap=max_order), cap=max_order):
                return f"{entry.name}: nps={k}, matches {cand}", False
        # the candidate's table dies before the next one is built
        del h
    return f"{entry.name}: nps={k}, NO bucket match (potential counterexample)", True


def cmd_verify_theorems(args) -> int:
    if args.k_min > args.k_max:
        raise ValueError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    work = (
        (spec, ExpectedNps(EXACT, k, f"classification bucket k={k}: {template}"), args.max_order)
        for k in range(args.k_min, args.k_max + 1)
        for spec, template in instantiate_bucket(k, args.max_n, args.max_order)
    )
    # a temporary list, so that the expected counts die with it
    rows = _pmap(_verify_worker, list(work), args.jobs)

    # pairwise non-isomorphism at minimal parameters
    distinct = [_distinctness(k, args.max_order) for k in range(args.k_min, args.k_max + 1)]
    distinct_ok = all(ok for ok, _ in distinct)
    distinct_lines = [line for _, line in distinct]

    # optional corpus completeness report
    corpus_lines: list[str] = []
    unmatched = 0
    if args.corpus:
        for entry in load_corpus(args.corpus):
            line, bad = _corpus_line(entry, args.k_min, args.k_max, args.max_order)
            corpus_lines.append(line)
            unmatched += bad

    tally = Counter(r["status"] for r in rows)
    summary = {
        "rows": len(rows),
        "pass": tally[PASS],
        "fail": tally[FAIL],
        "distinctness_ok": distinct_ok,
        "corpus_unmatched": unmatched,
    }
    comments = _summary_lines(summary)
    comments += [f"distinctness: {line}" for line in distinct_lines]
    comments += [f"corpus: {line}" for line in corpus_lines]
    # the JSON summary carries the same lines as lists
    summary.update(distinctness=distinct_lines, corpus=corpus_lines)
    _report(args.format, _VERIFY_COLUMNS, rows, summary, comments)
    return 1 if (tally[FAIL] or not distinct_ok or unmatched) else 0


def cmd_census(args) -> int:
    entries = load_corpus(args.corpus)
    rows = _pmap(_census_worker, [(e, args.max_order) for e in entries], args.jobs)
    hist = sorted(Counter(r["nps"] for r in rows if r["status"] == "ok").items())
    bad = len(rows) - sum(v for _, v in hist)
    summary = {
        "entries": len(rows),
        "errors": bad,
        "nps_histogram": {str(k): v for k, v in hist},
    }
    comments = [f"entries={len(rows)}", f"errors={bad}"]
    comments += [f"nps={k}: {v}" for k, v in hist]
    _report(args.format, _CENSUS_COLUMNS, rows, summary, comments)
    return 2 if bad else 0


def cmd_present(args) -> int:
    text = args.presentation
    if text.startswith("@"):
        from pathlib import Path

        text = Path(text[1:]).read_text(encoding="utf-8").strip()
    pres = parse_presentation(text)
    table = enumerate_cosets(pres, max_cosets=args.max_cosets)
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
        # groups of different orders are never isomorphic, and the order is
        # known without building anything; an equal order is within the cap,
        # and the spec is valid, so build checks neither again
        same = order_up_to(spec, g.order) == g.order and are_isomorphic(
            g, build(spec, args.max_order, check=False), cap=args.max_order
        )
        print(f"isomorphic to {spec}: {'yes' if same else 'no'}")
        if not same:
            return 1
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    default_cap = int(os.environ.get("NPS_MAX_ORDER", DEFAULT_ORDER_CAP))
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

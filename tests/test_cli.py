"""Command-line behavior: output, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import npscensus
from npscensus.catalog import expected_nps
from npscensus.cli import (
    _census_worker,
    _verify_worker,
    formula_sweep,
    main,
)
from npscensus.corpus import CorpusEntry, dump_corpus, entry_from_group
from npscensus.families import build, expected_order
from npscensus.specs import parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNps:
    def test_modular_group(self, capsys):
        code, out, _ = run(capsys, "nps", "M(4,3)")
        assert code == 0
        assert "nonpower subgroups: 10" in out
        assert "order: 81" in out

    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "nps", "C(7)")
        assert code == 0
        assert "nonpower subgroups: 0" in out

    def test_x23(self, capsys):
        code, out, _ = run(capsys, "nps", "X(2,3)")
        assert code == 0
        assert "nonpower subgroups: 48" in out

    def test_spec_from_file(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("Q(8)xC(2)\n", encoding="utf-8")
        code, out, _ = run(capsys, "nps", str(path))
        assert code == 0
        assert "nonpower subgroups: 16" in out

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "nps", "Z(3)")
        assert code == 2
        assert "input error" in err

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "nps", "G(r=2;p=2,n=1;q=5,m=1)")
        assert code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("G(r=2;p=2,n=2;q=5,m=1;z=3)",
             "G uses named arguments r, p, n, q, m, e.g. G(r=2;p=2,n=3;q=5,m=1) "
             "(at position 26)"),
            ("G(r=2;p=2,n=2;q=5,m=1,m=2)", "repeated argument 'm' (at position 1)"),
        ],
    )
    def test_unknown_or_repeated_named_argument_exits_2(self, capsys, spec, message):
        code, out, err = run(capsys, "nps", spec)
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_cap_respected(self, capsys):
        code, _, err = run(capsys, "nps", "C(1024)", "--max-order", "600")
        assert code == 2
        assert "cap" in err

    def test_over_cap_spec_rejected_before_building(self, capsys, monkeypatch):
        import npscensus.cli

        def no_build(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        monkeypatch.setattr(npscensus.cli, "build", no_build)
        code, out, err = run(capsys, "nps", "C(20000)")
        assert code == 2
        assert out == ""
        assert err == "order 20000 exceeds lattice cap 600 (raise --max-order)\n"

    @pytest.mark.parametrize(
        "text",
        [
            "Sym(3000)",
            "Sym(200000)",
            "M(3,1000000000000000003)",
            "X(100000,3)",
            "Gn(1,1000000000000000003)",
        ],
    )
    def test_huge_parameters_rejected_quickly(self, capsys, monkeypatch, text):
        # no n!, no order past the int-to-text limit, no primality test, no
        # trial division to split a prime power
        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "nps", text)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "cap 600" in err

    def test_unprintable_order_named_by_its_spec(self, capsys, monkeypatch):
        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        code, _, err = run(capsys, "nps", "Sym(3000)")
        assert err == "order of Sym(3000) exceeds lattice cap 600 (raise --max-order)\n"

    def test_product_with_cyclic_factor_is_counted_from_the_rest(
        self, capsys, monkeypatch
    ):
        import npscensus.cli

        built = []

        def record(spec, cap, **kwargs):
            built.append(str(spec))
            return build(spec, cap, **kwargs)

        monkeypatch.setattr(npscensus.cli, "build", record)
        code, out, _ = run(capsys, "nps", "D(8)xC(2)xC(2)xC(2)")
        assert code == 0
        assert "subgroups: 937" in out
        assert built == ["D(8)xC(2)xC(2)"]

    def test_product_without_cyclic_factor_takes_the_lattice(
        self, capsys, monkeypatch
    ):
        import npscensus.cli

        def no_goursat(*args, **kwargs):
            raise AssertionError("counted from the factors")

        monkeypatch.setattr(npscensus.cli, "counts_times_cyclic", no_goursat)
        code, out, _ = run(capsys, "nps", "D(8)xD(8)")
        assert code == 0
        assert "subgroups: 389" in out

    @pytest.mark.parametrize(
        "text, cap, counts",
        [
            ("Gn(6,13)", "1200", (832, 832, 26, 13, 13)),
            ("D(600)", "600", (600, 300, 886, 13, 873)),
            # the non-split case: a^P = b^t
            ("Q(512)", "600", (512, 256, 264, 9, 255)),
            ("C3Q8", "600", (24, 12, 18, 5, 13)),
        ],
    )
    def test_metacyclic_spec_counted_without_a_table(
        self, capsys, monkeypatch, text, cap, counts
    ):
        import npscensus.cli
        import npscensus.families
        import npscensus.lattice

        def no_table(*args, **kwargs):
            raise AssertionError("a table or a lattice was built")

        monkeypatch.setattr(npscensus.cli, "build", no_table)
        monkeypatch.setattr(npscensus.families, "metacyclic_group", no_table)
        monkeypatch.setattr(npscensus.lattice, "all_subgroups", no_table)
        code, out, err = run(capsys, "nps", text, "--max-order", cap)
        assert (code, err) == (0, "")
        names = ("order", "exponent", "subgroups", "power subgroups", "nonpower subgroups")
        assert out == f"group: {text}\n" + "".join(
            f"{name}: {value}\n" for name, value in zip(names, counts)
        )

    def test_metacyclic_spec_over_the_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        code, out, err = run(capsys, "nps", "Gn(6,13)")
        assert (code, out) == (2, "")
        assert err == "order 832 exceeds lattice cap 600 (raise --max-order)\n"

    def test_metacyclic_spec_with_an_invalid_twist(self, capsys):
        code, out, err = run(capsys, "nps", "G(r=2;p=2,n=1;q=5,m=1)")
        assert (code, out) == (2, "")
        assert err == (
            "invalid spec G(r=2;p=2,n=1;q=5,m=1): r^(p^n) = 2^2 is not 1 mod 5\n"
        )

    @pytest.mark.parametrize(
        "text, parts",
        [
            ("F(2,13)", ["F(2,13)"]),
            ("D(8)xC(2)xC(2)", ["D(8)xC(2)xC(2)", "D(8)", "C(2)", "C(2)"]),
        ],
    )
    def test_spec_checked_once(self, capsys, monkeypatch, text, parts):
        # one query takes the order and the family checks once on the spec
        # and once on each of its factors, and never on the product A that
        # A x C(n) is counted from
        import npscensus.cli
        import npscensus.families as families

        calls = Counter()
        order_up_to, diagnose = families.order_up_to, families._diagnose

        def counted_order(spec, bound):
            calls["order", str(spec)] += 1
            return order_up_to(spec, bound)

        def counted_checks(spec, family_checks):
            if family_checks:
                calls["checks", str(spec)] += 1
            return diagnose(spec, family_checks)

        monkeypatch.setattr(families, "order_up_to", counted_order)
        monkeypatch.setattr(npscensus.cli, "order_up_to", counted_order)
        monkeypatch.setattr(families, "_diagnose", counted_checks)
        code, _, _ = run(capsys, "nps", text)
        assert code == 0
        want = Counter((check, part) for part in parts for check in ("order", "checks"))
        assert calls == want

    def test_abelian_group_past_the_lattice(self, capsys, monkeypatch):
        # C(2)^8 by Birkhoff's formula; its lattice, or that of C(2)^7
        # behind the Goursat count, takes seconds
        import npscensus.lattice

        def no_lattice(*args, **kwargs):
            raise AssertionError("a lattice was built")

        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        monkeypatch.setattr(npscensus.lattice, "all_subgroups", no_lattice)
        start = time.process_time()
        code, out, _ = run(capsys, "nps", "x".join(["C(2)"] * 8))
        assert time.process_time() - start < 1.0
        assert code == 0
        assert "order: 256\n" in out
        assert "subgroups: 417199\n" in out
        assert "power subgroups: 2\n" in out

    @pytest.mark.parametrize("text", ["x".join(["C(2)"] * 10), "C(911)"])
    def test_abelian_group_over_the_cap(self, capsys, monkeypatch, text):
        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        code, out, err = run(capsys, "nps", text)
        assert code == 2
        assert out == ""
        assert "cap 600" in err

    @pytest.mark.parametrize("text", ["D()", "C()"])
    def test_missing_parameter_exits_2(self, capsys, text):
        code, out, err = run(capsys, "nps", text)
        assert code == 2
        assert out == ""
        assert err == f"invalid spec {text}: {text[0]} expects 1 parameter(s), got 0\n"

    def test_extra_parameter_quoted_as_given(self, capsys):
        code, out, err = run(capsys, "nps", "D(8,2)")
        assert code == 2
        assert out == ""
        assert err == "invalid spec D(8,2): D expects 1 parameter(s), got 2\n"

    @pytest.mark.parametrize("text, name", [("M(0)", "M"), ("Gn(0,9)", "Gn")])
    def test_nonpositive_parameter_names_the_family_as_written(self, capsys, text, name):
        code, out, err = run(capsys, "nps", text)
        assert code == 2
        assert out == ""
        assert err == f"invalid spec {text}: {name} parameters must be positive\n"

    def test_invalid_f_spec_with_a_huge_prime_is_quick(self, capsys):
        # the diagnostic shows the spec, whose text compares r with the
        # default twist mod p = 10^18 + 3
        start = time.process_time()
        code, out, err = run(capsys, "nps", "F(0,1000000000000000003,5)")
        assert time.process_time() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "invalid spec F(0,1000000000000000003,5): F parameters must be positive\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("C(" + ",".join(["1"] * 300) + ")", "C expects 1 parameter(s), got 300"),
            (f"Gn(1,{2**1000 - 1})", "is not a prime power"),
            (f"C({2**1000})", "exceeds lattice cap"),
        ],
        ids=["300 parameters", "Gn(1,2^1000-1)", "C(2^1000)"],
    )
    def test_spec_longer_than_a_file_name_is_parsed(self, capsys, text, message):
        # Path(text).is_file() raises OSError past the file-name limit
        assert len(text) > 255
        code, out, err = run(capsys, "nps", text)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Errno" not in err

    def test_raising_the_cap_unlocks_larger_groups(self, capsys):
        code, out, _ = run(capsys, "nps", "B1(2,5)", "--max-order", "700")
        assert code == 0
        assert "order: 625" in out
        # p^2(2n-1) + p(n+1) + 2 at (n,p) = (2,5)
        assert "nonpower subgroups: 92" in out


class TestVerifyFormulas:
    def test_reduced_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-formulas", "--max-n", "2", "--max-order", "100"
        )
        assert code == 0
        assert "# fail=0" in out
        assert "under_review" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-formulas",
            "--max-n",
            "1",
            "--max-order",
            "60",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert all(
            set(row) == {
                "label", "order", "expected", "kind",
                "computed", "status", "source",
            }
            for row in payload["rows"]
        )

    def test_deterministic_output(self, capsys):
        args = ("verify-formulas", "--max-n", "1", "--max-order", "80")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        args = ("verify-formulas", "--max-n", "1", "--max-order", "80")
        _, serial, _ = run(capsys, *args)
        _, parallel, _ = run(capsys, *args, "--jobs", "2")
        assert serial == parallel

    def test_sweep_respects_order_cap(self):
        for spec in formula_sweep(max_n=4, max_order=128):
            assert expected_order(spec) <= 128


class TestVerifyTheorems:
    def test_small_k_range(self, capsys):
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "3", "--k-max", "5",
            "--max-n", "2",
        )
        assert code == 0
        assert "# fail=0" in out
        assert "distinctness_ok=True" in out

    def test_empty_buckets_pass_vacuously(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--k-min", "1", "--k-max", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--k-min", "9", "--k-max", "3"], "--k-min 9 exceeds --k-max 3"),
            (["--k-min", "14"], "--k-min 14 exceeds --k-max 13"),
        ],
    )
    def test_empty_k_range_refused(self, capsys, bounds, message):
        # an empty range would report every corpus entry as outside it
        corpus = str(Path(__file__).resolve().parent.parent / "data" / "bucket_groups.json")
        code, out, err = run(capsys, "verify-theorems", *bounds, "--corpus", corpus)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_corpus_matching(self, capsys, tmp_path):
        entries = [
            entry_from_group("sym3", build(parse_spec("Gn(1,3)"))),
            entry_from_group("c12", build(parse_spec("C(12)"))),
        ]
        path = tmp_path / "c.json"
        dump_corpus(entries, path)
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "0", "--k-max", "3",
            "--max-n", "2", "--corpus", str(path),
        )
        assert code == 0
        assert "sym3: nps=3, matches Gn(1,3)" in out
        assert "c12: nps=0, cyclic=yes" in out
        assert "corpus_unmatched=0" in out

    def test_only_groups_that_agree_on_order_and_counts_are_built(
        self, capsys, monkeypatch, tmp_path
    ):
        import npscensus.cli

        built = []

        def logged_build(spec, *args, **kwargs):
            built.append(str(spec))
            return build(spec, *args, **kwargs)

        # D(8) and Q(8) share their order, not their counts; C(5) has an
        # order of its own
        members = [(parse_spec(t), t) for t in ("D(8)", "Q(8)", "C(5)")]
        candidates = [parse_spec("D(8)"), parse_spec("Q(8)")]
        monkeypatch.setattr(npscensus.cli, "instantiate_bucket", lambda k, n, cap: [])
        monkeypatch.setattr(npscensus.cli, "minimal_instances", lambda k, cap: members)
        monkeypatch.setattr(npscensus.cli, "instances_of_order", lambda k, order: candidates)
        monkeypatch.setattr(npscensus.cli, "build", logged_build)
        path = tmp_path / "c.json"
        dump_corpus([entry_from_group("q8", build(parse_spec("Q(8)")))], path)
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "3", "--k-max", "3", "--corpus", str(path)
        )
        assert code == 0
        assert "k=3: 3 minimal members pairwise non-isomorphic" in out
        assert "q8: nps=3, matches Q(8)" in out
        # only the corpus candidate with the entry's counts
        assert built == ["Q(8)"]

    def test_each_table_is_built_once(self, capsys, monkeypatch, tmp_path):
        import npscensus.cli

        built = []

        def logged_build(spec, *args, **kwargs):
            built.append(str(spec))
            return build(spec, *args, **kwargs)

        # none of these is metacyclic, so each is counted from its table:
        # SL23 and Sym(4) share their order, not their counts; Alt(4) and
        # A(1) are one group, so their tables are compared as well
        members = [(parse_spec(t), t) for t in ("SL23", "Sym(4)", "Alt(4)", "A(1)")]
        candidates = [parse_spec("Sym(4)"), parse_spec("SL23")]
        monkeypatch.setattr(npscensus.cli, "instantiate_bucket", lambda k, n, cap: [])
        monkeypatch.setattr(npscensus.cli, "minimal_instances", lambda k, cap: members)
        monkeypatch.setattr(npscensus.cli, "instances_of_order", lambda k, order: candidates)
        monkeypatch.setattr(npscensus.cli, "build", logged_build)
        path = tmp_path / "c.json"
        dump_corpus([entry_from_group("sl23", build(parse_spec("SL23")))], path)
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "11", "--k-max", "11", "--corpus", str(path)
        )
        assert code == 1
        assert "k=11: isomorphic pair(s): Alt(4) ~ A(1)" in out
        assert "sl23: nps=11, matches SL23" in out
        # the distinctness loop's tables, then the corpus loop's
        assert built == ["SL23", "Sym(4)", "Alt(4)", "A(1)", "Sym(4)", "SL23"]

    def test_unmatched_corpus_entry_exits_1(self, capsys, tmp_path):
        # C3 x| C14 has nps 6, and no k = 6 member has an instance of order 42
        path = tmp_path / "c.json"
        dump_corpus([entry_from_group("c3:c14", build(parse_spec("Gn(1,3)xC(7)")))], path)
        code, out, _ = run(capsys, "verify-theorems", "--corpus", str(path))
        assert code == 1
        assert "# corpus_unmatched=1" in out
        assert "c3:c14: nps=6, NO bucket match (potential counterexample)" in out

    def test_abelian_entries_build_no_table_without_a_candidate(
        self, capsys, monkeypatch, tmp_path
    ):
        # an abelian entry is counted from its closure's columns, and its
        # cyclicity read from its counts; its table would be built only for
        # a candidate with its counts, and no k = 6 candidate of order 20
        # has those of C(2)xC(10)
        import npscensus.cli

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        texts = ["C(2)xC(10)", "C(12)", "C(2)xC(4)"]
        path = tmp_path / "c.json"
        dump_corpus([entry_from_group(t, build(parse_spec(t))) for t in texts], path)
        monkeypatch.setattr(CorpusEntry, "group", no_table)
        monkeypatch.setattr(npscensus.cli, "group_from_columns", no_table)
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "6", "--k-max", "6", "--corpus", str(path)
        )
        assert code == 1
        assert "C(2)xC(10): nps=6, NO bucket match (potential counterexample)" in out
        assert "C(12): nps=0, outside k range" in out
        assert "C(2)xC(4): nps=5, outside k range" in out
        code, out, _ = run(
            capsys, "verify-theorems", "--k-min", "0", "--k-max", "0", "--corpus", str(path)
        )
        assert code == 0
        assert "C(12): nps=0, cyclic=yes" in out

    def test_shipped_bucket_corpus_exits_0(self, capsys):
        path = Path(__file__).resolve().parent.parent / "data" / "bucket_groups.json"
        code, out, _ = run(capsys, "verify-theorems", "--corpus", str(path))
        assert code == 0
        assert "# corpus_unmatched=0" in out


class TestCensus:
    def test_single_entry(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps(
                [{"name": "Sym(3)", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}]
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,order,exponent,s,ps,nps,status"
        assert "Sym(3),6,6,6,3,3,ok" in lines[1]
        assert "# nps=3: 1" in out

    def test_empty_corpus(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        assert "# entries=0" in out

    def test_holomorph_row(self, capsys, tmp_path):
        path = tmp_path / "hol.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "C7:C6",
                        "degree": 7,
                        "generators": [
                            [1, 2, 3, 4, 5, 6, 0],
                            [0, 3, 6, 2, 5, 1, 4],
                        ],
                    }
                ]
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        assert "C7:C6,42,42,26,5,21,ok" in out

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "census", str(path))
        assert code == 2

    def test_capped_entry_reported_per_row(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "C2", "degree": 2, "generators": [[1, 0]]},
                    {
                        "name": "C1024",
                        "degree": 1024,
                        "generators": [
                            [(i + 1) % 1024 for i in range(1024)]
                        ],
                    },
                ]
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "census", str(path), "--max-order", "600")
        assert code == 2
        assert "C2,2,2,2,2,0,ok" in out
        assert "error" in out

    def test_abelian_entries_build_no_table(self, capsys, tmp_path, monkeypatch):
        import npscensus.cli
        from npscensus import core
        from npscensus.lattice import counts

        texts = ["C(600)", "C(2)xC(2)xC(2)xC(2)xC(2)xC(2)", "C(8)xC(8)xC(2)", "C(1)"]
        groups = [build(parse_spec(t)) for t in texts]
        entries = [entry_from_group(t, g) for t, g in zip(texts, groups)]
        entries.append(CorpusEntry("C2xC3 on 5 points", 5, ((1, 0, 3, 4, 2),)))
        groups.append(build(parse_spec("C(6)")))
        entries.append(CorpusEntry("no generators", 3, ()))
        groups.append(build(parse_spec("C(1)")))
        path = tmp_path / "abelian.json"
        dump_corpus(entries, path)
        want = []
        for e, g in zip(entries, groups):
            c = counts(g)
            want.append(f"{e.name},{c.order},{c.exponent},{c.s},{c.ps},{c.nps},ok")

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(npscensus.cli, "group_from_columns", no_table)
        monkeypatch.setattr(core, "group_from_columns", no_table)
        monkeypatch.setattr(core.Group, "_setup", no_table)
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        assert out.splitlines()[1:len(want) + 1] == want

    def test_each_entry_closes_once(self, capsys, monkeypatch):
        # the non-abelian entries build one table each, from the columns
        # of their one closure; the abelian C(12) builds none
        import npscensus.cli

        closures, tables = [], []
        real_closure = npscensus.cli.closure_columns
        real_table = npscensus.cli.group_from_columns

        def closure(*args):
            closures.append(1)
            return real_closure(*args)

        def table(cols, label=None):
            tables.append(label)
            return real_table(cols, label=label)

        def no_group(*args, **kwargs):
            raise AssertionError("closed again")

        monkeypatch.setattr(npscensus.cli, "closure_columns", closure)
        monkeypatch.setattr(npscensus.cli, "group_from_columns", table)
        monkeypatch.setattr(CorpusEntry, "group", no_group)
        path = Path(__file__).resolve().parent.parent / "data" / "control_groups.json"
        code, _, _ = run(capsys, "census", str(path))
        assert code == 0
        assert len(closures) == 9
        assert len(tables) == 8 and "C(12)" not in tables

    def test_closure_past_the_cap_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "sym7.json"
        cycle, swap = [1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]
        path.write_text(
            json.dumps([{"name": "Sym(7)", "degree": 7, "generators": [cycle, swap]}]),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "census", str(path))
        assert code == 2
        assert out.splitlines()[1] == "Sym(7),,,,,,error: closure exceeds cap 600 (degree 7)"

    def test_json_rows_match_csv(self, capsys, tmp_path):
        from pathlib import Path

        data = Path(__file__).resolve().parent.parent / "data"
        code, out, _ = run(
            capsys, "census", str(data / "control_groups.json"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["errors"] == 0
        by_name = {r["name"]: r for r in payload["rows"]}
        assert by_name["Sym(4) on 4 points"]["nps"] == 26
        assert by_name["M(5)"]["nps"] == 37

    def test_jobs_match_serial(self, capsys, tmp_path):
        from pathlib import Path

        data = Path(__file__).resolve().parent.parent / "data"
        args = ("census", str(data / "control_groups.json"))
        _, serial, _ = run(capsys, *args)
        _, parallel, _ = run(capsys, *args, "--jobs", "2")
        assert serial == parallel


class TestPresent:
    def test_q16(self, capsys):
        code, out, _ = run(
            capsys, "present", "a,b,z | a^4 = b^2 = z, z^2 = 1, b^-1 a b = a^-1"
        )
        assert code == 0
        assert "order: 16" in out
        assert "nonpower subgroups: 7" in out

    def test_extraspecial_27(self, capsys):
        code, out, _ = run(
            capsys, "present", "x,y,z | x^3=y^3=z^3=1, [x,z]=1, [y,z]=1, [x,y]=z"
        )
        assert code == 0
        assert "order: 27" in out
        assert "nonpower subgroups: 17" in out

    def test_abelian_counts_match_the_lattice(self, capsys):
        from npscensus.coset import enumerate_cosets, group_from_coset_table
        from npscensus.lattice import _lattice_counts
        from npscensus.presentation import parse_presentation

        text = "a, b | a^4, b^6, a^-1 b^-1 a b"
        code, out, _ = run(capsys, "present", text)
        assert code == 0
        g = group_from_coset_table(enumerate_cosets(parse_presentation(text)))
        c = _lattice_counts(g, 600)
        assert out.splitlines()[1:] == [
            f"order: {c.order}",
            f"exponent: {c.exponent}",
            f"subgroups: {c.s}",
            f"power subgroups: {c.ps}",
            f"nonpower subgroups: {c.nps}",
        ]

    def test_cyclic_word(self, capsys):
        code, out, _ = run(capsys, "present", "a | a^6")
        assert code == 0
        assert "order: 6" in out
        assert "nonpower subgroups: 0" in out

    def test_iso_check_match(self, capsys):
        code, out, _ = run(
            capsys,
            "present",
            "a,b | a^2=1, b^3=1, a^-1 b a = b^-1",
            "--iso-check",
            "Gn(1,3)",
        )
        assert code == 0
        assert "isomorphic to Gn(1,3): yes" in out

    def test_iso_check_mismatch_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "present", "a | a^4", "--iso-check", "C(2)xC(2)"
        )
        assert code == 1
        assert "isomorphic to C(2)xC(2): no" in out

    def test_capped_enumeration_exits_2(self, capsys):
        code, out, err = run(
            capsys, "present", "a,b | a^2=1", "--max-cosets", "40"
        )
        assert code == 2
        assert out == ""
        assert "coset enumeration exceeded 40 cosets (presentation may be infinite)" in err

    @pytest.mark.parametrize(
        "text, need",
        [
            ("a | a^6 = 1", 6),
            ("a, b | a^2 = 1, b^3 = 1, (a b)^5 = 1", 82),
            ("a, b, z | a^4 = b^2 = z, z^2 = 1, b^-1 a b = a^-1", 21),
            ("x, y, z | x^3 = y^3 = z^3 = 1, [x,z] = 1, [y,z] = 1, [x,y] = z", 43),
        ],
    )
    def test_smallest_coset_budget_that_completes(self, capsys, text, need):
        code, out, _ = run(capsys, "present", text, "--max-cosets", str(need))
        assert code == 0
        assert "order: " in out
        code, out, err = run(capsys, "present", text, "--max-cosets", str(need - 1))
        assert code == 2
        assert out == ""
        assert f"exceeded {need - 1} cosets" in err

    def test_over_cap_order_rejected_before_building(self, capsys, monkeypatch):
        import npscensus.cli

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        monkeypatch.setattr(npscensus.cli, "group_from_coset_table", no_table)
        code, out, err = run(capsys, "present", "a | a^5000 = 1")
        assert code == 2
        assert out == "presentation: a | a^5000\norder: 5000\n"
        assert "order 5000 exceeds lattice cap 600" in err

    @pytest.mark.parametrize(
        "text, order",
        [
            ("a | a^5000 = 1", 5000),
            ("a, b | a^2 = 1, b^1000 = 1, a^-1 b a = b^-1", 2000),
        ],
    )
    def test_cyclic_relators_enumerate_in_linear_time(
        self, capsys, monkeypatch, text, order
    ):
        # a relator a^n is scanned once per cycle, not from each of n cosets
        monkeypatch.delenv("NPS_MAX_ORDER", raising=False)
        start = time.process_time()
        code, out, err = run(capsys, "present", text)
        assert time.process_time() - start < 1.0
        assert code == 2
        assert f"order: {order}\n" in out
        assert "lattice cap 600" in err

    def test_iso_check_of_another_order_builds_nothing(self, capsys, monkeypatch):
        import npscensus.cli

        def no_build(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(npscensus.cli, "build", no_build)
        start = time.perf_counter()
        code, out, _ = run(capsys, "present", "a | a^2 = 1", "--iso-check", "C(20000)")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out.endswith("isomorphic to C(20000): no\n")

    def test_iso_check_with_a_huge_prime_is_quick(self, capsys):
        # M(3,p) for the prime p = 10^18 + 3 is a valid spec of another order
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "present", "a | a^2 = 1", "--iso-check", "M(3,1000000000000000003)"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out.endswith("isomorphic to M(3,1000000000000000003): no\n")

    def test_iso_check_with_a_huge_composite_exits_2_quickly(self, capsys):
        # (10^9 + 7)(10^9 + 9): no factor below 10^9 for trial division to find
        start = time.perf_counter()
        code, _, err = run(
            capsys, "present", "a | a^2 = 1", "--iso-check", "M(3,1000000016000000063)"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (
            "invalid spec M(3,1000000016000000063): "
            "1000000016000000063 is not prime\n"
        )

    def test_iso_check_with_a_wrong_f_twist_mod_a_huge_prime(self, capsys):
        # 5 has no order 3 mod the prime 10^18 + 3: no search for its order
        start = time.process_time()
        code, _, err = run(
            capsys, "present", "a | a^2 = 1", "--iso-check", "F(1,1000000000000000003,5)"
        )
        assert time.process_time() - start < 1.0
        assert code == 2
        assert err == (
            "invalid spec F(1,1000000000000000003,5): "
            "twist 5 does not have order 3 mod 1000000000000000003\n"
        )

    def test_iso_check_with_the_default_f_twist_mod_a_huge_prime(self, capsys):
        # the default twist, a cube root of unity mod 10^18 + 3, is found
        # without a search over the residues
        start = time.process_time()
        code, out, _ = run(
            capsys, "present", "a | a^2 = 1", "--iso-check", "F(1,1000000000000000003)"
        )
        assert time.process_time() - start < 1.0
        assert code == 1
        assert out.endswith("isomorphic to F(1,1000000000000000003): no\n")

    def test_presentation_from_file(self, capsys, tmp_path):
        path = tmp_path / "pres.txt"
        path.write_text("a | a^5 = 1", encoding="utf-8")
        code, out, _ = run(capsys, "present", f"@{path}")
        assert code == 0
        assert "order: 5" in out

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "present", "a | q^2")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("text", ["a | a^100000000000", "a, b | (a b)^100000000"])
    def test_out_of_memory_exits_2(self, text):
        """A power too long to write out letter by letter: the CLI says it
        ran out of memory and exits 2, with no traceback.  The child's
        address space is capped at 512 MiB, so the word's allocation fails
        before it touches any memory."""
        pytest.importorskip("resource")
        proc = subprocess.run(
            [sys.executable, "-c", _OOM_PROBE, text],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_past_cap_query_with_a_large_prime_answers_quickly():
    """F(1,q) for the prime q = 10^18 + 3 is counted from its parameters;
    the divisors of q come from its factorization, which stops at the
    prime cofactor, so there is no trial division up to the square root
    of q."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "npscensus.cli", "nps", "F(1,1000000000000000003)",
            "--max-order", "10000000000000000000000",
        ],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for want in (
        "order: 3000000000000000009",
        "subgroups: 1000000000000000006",
        "power subgroups: 3",
        "nonpower subgroups: 1000000000000000003",
    ):
        assert want in lines


def test_metacyclic_query_factorizes_its_parameters_once():
    """D(2n) for n = 10000019 * 10000079 is counted from (Q, P, r, t) =
    (n, 2, -1, 0).  Q and P are factorized once each, a trial division up
    to 10000019 for Q, and every divisor list comes from those; factorizing
    Q again for each divisor list took about 4.5 s."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "npscensus.cli", "nps", "D(200001960003002)",
            "--max-order", "1000000000000000000000",
        ],
        env=_child_env(), capture_output=True, text=True, timeout=3,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for want in (
        "order: 200001960003002",
        "subgroups: 100001000001604",
        "power subgroups: 5",
        "nonpower subgroups: 100001000001599",
    ):
        assert want in lines


class TestWorkersFreeGroups:
    """A worker's group is freed by reference counting when the worker
    returns, and so is every group the CLI compares for isomorphism: the
    cached lattice is plain data that never refers back to its group.  A
    group left to the cycle collector would keep its table alive while the
    next is built."""

    @pytest.mark.parametrize("text", ["Q(8)xC(2)", "D(8)", "SL23"])
    def test_verify_worker(self, groups_left_for_collector, text):
        spec = parse_spec(text)
        arg = (spec, expected_nps(spec), 600)
        assert groups_left_for_collector(lambda: _verify_worker(arg)) == []

    def test_census_worker(self, groups_left_for_collector):
        entry = CorpusEntry("Sym(3)", 3, ((1, 2, 0), (1, 0, 2)))
        assert groups_left_for_collector(lambda: _census_worker((entry, 600))) == []

    def test_verify_theorems_distinctness(self, groups_left_for_collector, capsys, monkeypatch):
        import npscensus.cli

        # an isomorphic pair agrees on every invariant, so are_isomorphic
        # computes and caches both lattices
        pair = [(parse_spec("D(8)"), "D(8)"), (parse_spec("B2(1,2)"), "B2(1,2)")]
        monkeypatch.setattr(npscensus.cli, "minimal_instances", lambda k, cap: pair)
        argv = ["verify-theorems", "--k-min", "1", "--k-max", "1"]
        assert groups_left_for_collector(lambda: main(argv)) == []
        assert "isomorphic pair(s): D(8) ~ B2(1,2)" in capsys.readouterr().out

    def test_verify_theorems_corpus(self, groups_left_for_collector, capsys, tmp_path):
        entries = [
            entry_from_group("q8", build(parse_spec("Q(8)"))),
            entry_from_group("c12", build(parse_spec("C(12)"))),
            entry_from_group("c2xc4", build(parse_spec("C(2)xC(4)"))),
        ]
        path = tmp_path / "c.json"
        dump_corpus(entries, path)
        argv = ["verify-theorems", "--k-min", "0", "--k-max", "3", "--max-n", "2",
                "--corpus", str(path)]
        assert groups_left_for_collector(lambda: main(argv)) == []
        out = capsys.readouterr().out
        assert "q8: nps=3, matches Q(8)" in out
        assert "c12: nps=0, cyclic=yes" in out
        assert "c2xc4: nps=5, outside k range" in out

    def test_verify_theorems_frees_each_comparison(self, capsys, monkeypatch):
        # when the corpus is loaded, and at each corpus entry, no group of
        # an earlier comparison is alive, not even one the cycle collector
        # would free: the distinctness tables and the previous entry's
        # table and candidates are gone
        import gc

        import npscensus.cli
        from npscensus.core import Group

        gc.collect()
        # kept alive, so that no new group takes the id of one of them
        earlier = [o for o in gc.get_objects() if isinstance(o, Group)]
        known = set(map(id, earlier))
        alive = []

        def probe(where):
            gc.collect()
            new = [repr(o) for o in gc.get_objects() if isinstance(o, Group) and id(o) not in known]
            alive.append((where, new))

        real_load, real_closure = npscensus.cli.load_corpus, npscensus.cli.closure_columns

        def load(path):
            probe("load_corpus")
            return real_load(path)

        def closure(degree, perms, cap):
            probe(degree)
            return real_closure(degree, perms, cap)

        monkeypatch.setattr(npscensus.cli, "load_corpus", load)
        monkeypatch.setattr(npscensus.cli, "closure_columns", closure)
        path = Path(__file__).resolve().parent.parent / "data" / "bucket_groups.json"
        code, out, _ = run(capsys, "verify-theorems", "--max-n", "6", "--corpus", str(path))
        assert code == 0
        assert len(alive) == 59
        assert [(where, new) for where, new in alive if new] == []

    def test_present_iso_check(self, groups_left_for_collector, capsys):
        for other in ("D(8)", "Q(8)"):
            argv = ["present", "a,b,z | a^2 = b^2 = z, z^2 = 1, b^-1 a b = a^-1",
                    "--iso-check", other]
            assert groups_left_for_collector(lambda: main(argv)) == []
        out = capsys.readouterr().out
        assert "isomorphic to D(8): no" in out
        assert "isomorphic to Q(8): yes" in out


class TestRecordStatus:
    def test_status_resolution(self):
        from fractions import Fraction

        from npscensus.catalog import EXACT, LOWER_BOUND, UNDER_REVIEW, ExpectedNps
        from npscensus.cli import _record

        spec = parse_spec("C(6)")
        assert _record(spec, ExpectedNps(EXACT, 5, "x"), 5)["status"] == "pass"
        assert _record(spec, ExpectedNps(EXACT, 5, "x"), 4)["status"] == "fail"
        assert _record(spec, ExpectedNps(LOWER_BOUND, 5, "x"), 7)["status"] == "lower_bound_ok"
        assert _record(spec, ExpectedNps(LOWER_BOUND, 5, "x"), 4)["status"] == "fail"
        rec = _record(spec, ExpectedNps(UNDER_REVIEW, Fraction(11, 2), "x"), 4)
        assert rec["status"] == "from_formula_under_review"
        assert rec["expected"] == "11/2"
        assert _record(spec, ExpectedNps(UNDER_REVIEW, Fraction(8, 2), "x"), 4)["expected"] == "4"
        assert _record(spec, ExpectedNps(EXACT, 5, "x"), 5)["expected"] == "5"

    def test_row_is_keyed_by_the_report_columns(self):
        from npscensus.catalog import EXACT, ExpectedNps
        from npscensus.cli import _VERIFY_COLUMNS, _record

        row = _record(parse_spec("D(8)"), ExpectedNps(EXACT, 7, "Lemma 1"), 7)
        assert tuple(row) == _VERIFY_COLUMNS
        assert tuple(row.values()) == ("D(8)", 8, "7", "exact", 7, "pass", "Lemma 1")


_OOM_PROBE = """
import resource, sys
import npscensus.cli
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, hard))
sys.exit(npscensus.cli.main(["present", sys.argv[1]]))
"""


def _child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this package
    and nothing from the caller's PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(npscensus.__file__).resolve().parent.parent)
    return env


# modules a one-process run never uses, and that cost start-up time to import
UNUSED_AT_START = (
    "concurrent.futures.process",
    "multiprocessing",
    "dataclasses",
    "fractions",
    # the reports' writers and the corpus reader import these themselves
    "json",
    "csv",
    "pathlib",
)

_IMPORT_PROBE = """
import contextlib, io, sys
unused = sys.argv[1:]
import npscensus.cli
print([m for m in unused if m in sys.modules])
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = npscensus.cli.main(["nps", "D(8)"])
assert code == 0 and "nonpower subgroups: 7" in out.getvalue()
print([m for m in unused if m in sys.modules])
"""


def test_one_shot_query_imports_no_unused_module():
    """A fresh interpreter that imports the CLI and answers `nps D(8)` loads
    neither the process pool, nor fractions, nor dataclasses, nor the
    modules that only reports and corpora need.  `-S` leaves out site,
    whose .pth files may import anything."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, *UNUSED_AT_START],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


_PACKAGE_PROBE = """
import sys
import npscensus
print(sorted(m for m in sys.modules if m.startswith("npscensus")))
names = {}
exec("from npscensus import *", names)
print(sorted(n for n in names if not n.startswith("__")) == sorted(npscensus.__all__))
print(npscensus.counts is sys.modules["npscensus.lattice"].counts)
"""


def test_package_imports_its_modules_on_first_use():
    """`import npscensus` loads no module of the package; each exported
    name loads the module that defines it when it is first asked for."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PACKAGE_PROBE],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['npscensus']", "True", "True"]


def test_env_var_sets_default_cap(capsys, monkeypatch):
    monkeypatch.setenv("NPS_MAX_ORDER", "10")
    code, _, err = run(capsys, "nps", "C(16)")
    assert code == 2
    assert "cap" in err

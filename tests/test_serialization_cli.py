import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import paramgrid
from paramgrid import approximate, engine, query
from paramgrid.cli import main
from paramgrid.errors import InvalidInstanceError, ParamGridError
from paramgrid.fixtures import MAX_SECTION3_K
from paramgrid.serialization import (
    approximation_set_from_dict,
    approximation_set_to_dict,
    dumps,
    instance_from_dict,
    load_approximation_set,
    parse_frac,
    save_approximation_set,
)

TOY_KNAPSACK = {
    "problem": "knapsack",
    "K": 1,
    "lambda_min": [0],
    "budget": 2,
    "items": [
        {"a": 3, "b": [1], "weight": 2},
        {"a": 2, "b": [4], "weight": 2},
    ],
}

TOY_EXPLICIT = {
    "problem": "explicit",
    "K": 1,
    "sense": "minimize",
    "solutions": [{"id": "only", "F": ["2", "1"]}],
}

TOY_MINCUT = {
    "problem": "mincut",
    "K": 1,
    "vertices": 3,
    "source": 0,
    "sink": 2,
    "arcs": [
        {"tail": 0, "head": 1, "a": 3, "b": [0]},
        {"tail": 1, "head": 2, "a": 1, "b": [1]},
    ],
}

TOY_INDEPENDENCE = {
    "problem": "independence",
    "K": 1,
    "alpha": "2",
    "elements": [
        {"a": 2, "b": [0]},
        {"a": 3, "b": [0]},
        {"a": 2, "b": [0]},
    ],
    "independent_sets": [[0, 2], [1]],
}


class TestInstanceParsing:
    def test_knapsack(self):
        inst = instance_from_dict(TOY_KNAPSACK)
        assert inst.K == 1 and inst.UB == 5

    def test_mincut_lambda_min_computed(self):
        inst = instance_from_dict(TOY_MINCUT)
        assert inst.lambda_min == (F(-1),)

    def test_explicit(self):
        inst = instance_from_dict(TOY_EXPLICIT)
        assert inst.payload.records[0].F == (F(2), F(1))

    def test_independence(self):
        inst = instance_from_dict(TOY_INDEPENDENCE)
        assert inst.payload.declared_alpha == F(2)
        assert inst.payload.independent({0, 2})
        assert not inst.payload.independent({0, 1})

    def test_schema_errors(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"problem": "knapsack"})
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({**TOY_KNAPSACK, "K": 0})
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({**TOY_EXPLICIT, "solutions": [{"id": "a", "F": ["1"]}]})
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({**TOY_KNAPSACK, "problem": "mystery"})

    @pytest.mark.parametrize(
        "doc",
        [
            {**TOY_KNAPSACK, "items": 5},
            {**TOY_MINCUT, "arcs": 5},
            {**TOY_INDEPENDENCE, "elements": 5},
            {**TOY_EXPLICIT, "solutions": 5},
            {**TOY_EXPLICIT, "solutions": [{"id": "x", "F": "12"}]},
            {**TOY_EXPLICIT, "sense": 5},
            {**TOY_INDEPENDENCE, "independent_sets": [5]},
            {**TOY_INDEPENDENCE, "independent_sets": [[0, "x"]]},
        ],
        ids=["items-not-list", "arcs-not-list", "elements-not-list",
             "solutions-not-list", "F-is-string", "sense-not-string",
             "independent-set-not-list", "independent-set-member-not-int"],
    )
    def test_non_list_field_refused(self, tmp_path, capsys, doc):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(doc)
        inst_path = write(tmp_path, "inst.json", doc)
        out = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fraction_parsing(self):
        assert parse_frac("-3/2") == F(-3, 2)
        assert parse_frac(4) == F(4)
        with pytest.raises(InvalidInstanceError):
            parse_frac("1.5x")
        with pytest.raises(InvalidInstanceError):
            parse_frac(True)


class TestDumps:
    """``dumps`` writes every CLI document: Fractions as "p/q", dataclasses as their fields."""

    def test_layout(self):
        stats = paramgrid.oracle.StrategyStats(samples=2, worst_ratio=F(3, 2))
        assert dumps({"b": [F(1, 3), F(4)], "a": stats}) == (
            '{\n  "a": {\n    "samples": 2,\n    "worst_ratio": "3/2"\n  },\n'
            '  "b": [\n    "1/3",\n    "4"\n  ]\n}\n'
        )

    @pytest.mark.parametrize("value", [object(), 1.5j, paramgrid.oracle.StrategyStats])
    def test_other_objects_refused(self, value):
        with pytest.raises(TypeError):
            dumps({"x": value})


class TestApproximationSetRoundTrip:
    def test_lossless(self, tmp_path):
        inst = instance_from_dict(TOY_KNAPSACK)
        aset = approximate(inst, F(1, 2))
        path = tmp_path / "set.json"
        save_approximation_set(aset, str(path))
        loaded = load_approximation_set(str(path))
        assert loaded.entries == aset.entries
        assert loaded.solutions == aset.solutions
        assert loaded.spec == aset.spec
        assert loaded.c == aset.c
        assert loaded.guarantee == aset.guarantee
        # queries agree through the round trip
        for lam in ((F(0),), (F(7, 3),), (F(10) ** 6,)):
            assert query(loaded, inst, lam) == query(aset, inst, lam)

    def test_load_defers_the_power_table(self):
        inst = instance_from_dict(TOY_KNAPSACK)
        loaded = approximation_set_from_dict(approximation_set_to_dict(approximate(inst, F(1, 2))))
        assert "powers" not in vars(loaded.spec)
        query(loaded, inst, (F(7, 3),))
        assert "powers" in vars(loaded.spec)

    def test_serialized_form_is_stable(self):
        inst = instance_from_dict(TOY_KNAPSACK)
        doc1 = approximation_set_to_dict(approximate(inst, F(1, 2)))
        doc2 = approximation_set_to_dict(approximate(inst, F(1, 2)))
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_rejects_foreign_documents(self):
        with pytest.raises(InvalidInstanceError):
            approximation_set_from_dict({"format": "something-else"})

    def test_version_1_asks_for_a_refit(self):
        doc = approximation_set_to_dict(approximate(instance_from_dict(TOY_KNAPSACK), F(1, 2)))
        doc["version"] = 1
        with pytest.raises(InvalidInstanceError, match="refit"):
            approximation_set_from_dict(doc)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCli:
    def test_approximate_query_verify_happy_path(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["guarantee"] == "3/2"
        assert 0 < report["oracle_calls"] <= report["grid_size"]

        assert main(["query", set_path, inst_path, "--lam", "1"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["value"] == "6"
        assert answer["solution"]["encoding"] == {"kind": "items", "members": [1]}

        code = main([
            "verify", inst_path, "--set", set_path, "--beta", "3/2",
            "--samples", "80", "--seed", "0",
        ])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is True

    def test_single_solution_report(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_EXPLICIT)
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        run = json.loads(capsys.readouterr().out)
        assert run["distinct_solution_count"] == 1

    def test_exit_code_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["approximate", str(bad), "--epsilon", "1/2", "--out", str(tmp_path / "o.json")]) == 2
        missing = str(tmp_path / "absent.json")
        assert main(["approximate", missing, "--epsilon", "1/2", "--out", str(tmp_path / "o.json")]) == 2

    def test_exit_code_epsilon(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        assert main(["approximate", inst_path, "--epsilon", "3/2", "--out", str(tmp_path / "o.json")]) == 3

    def test_exit_code_grid_cap(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        code = main([
            "approximate", inst_path, "--epsilon", "1/2",
            "--out", str(tmp_path / "o.json"), "--grid-cap", "3",
        ])
        assert code == 4

    def test_exit_code_domain(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path])
        capsys.readouterr()
        assert main(["query", set_path, inst_path, "--lam", "-1"]) == 5

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", inst_path, "--set", set_path, "--beta", "3/2", "--samples", count])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_exit_code_verification_failure(self, tmp_path, capsys):
        # Truncate the set to one solution that cannot cover the far field.
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path])
        capsys.readouterr()
        doc = json.loads((tmp_path / "set.json").read_text())
        keep = doc["cells"][0]  # the cell of the lowest grid index
        doc["solutions"] = [doc["solutions"][keep]]
        doc["cells"] = [0] * len(doc["cells"])
        truncated = write(tmp_path, "trunc.json", doc)
        code = main([
            "verify", inst_path, "--set", truncated, "--beta", "3/2",
            "--samples", "80", "--seed", "0",
        ])
        assert code == 6
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is False
        assert F(verdict["worst_ratio"]) > F(3, 2)

    def test_swapped_cells_fail_verify(self, tmp_path, capsys):
        # Both solutions stay referenced, so the loader accepts the set, but
        # every cell now names the other one: what query answers is bad.
        items = [{"a": 9, "b": [1], "weight": 2}, {"a": 1, "b": [9], "weight": 2}]
        inst_path = write(tmp_path, "inst.json", {"problem": "knapsack", "K": 1,
                                                   "budget": 2, "items": items})
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        verify = ["verify", inst_path, "--beta", "1", "--samples", "50", "--set"]
        assert main(verify + [set_path]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "set.json").read_text())
        assert sorted(set(doc["cells"])) == [0, 1]
        doc["cells"] = [1 - ref for ref in doc["cells"]]
        assert main(verify + [write(tmp_path, "swapped.json", doc)]) == 6
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is False
        assert F(verdict["worst_ratio"]) > 60

    def test_foreign_solutions_refused_by_verify(self, tmp_path, capsys):
        # Each solution keeps its encoding but claims F = (10^6, 10^6);
        # verify values answers from the instance's own rows and refuses the set.
        items = [{"a": 9, "b": [1], "weight": 2}, {"a": 1, "b": [9], "weight": 2}]
        inst_path = write(tmp_path, "inst.json", {"problem": "knapsack", "K": 1,
                                                   "budget": 2, "items": items})
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "set.json").read_text())
        for solution in doc["solutions"]:
            solution["F"] = ["1000000", "1000000"]
        tampered = write(tmp_path, "tampered.json", doc)
        code = main(["verify", inst_path, "--beta", "1", "--samples", "50", "--set", tampered])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solution items:") and err.count("\n") == 1, err
        # solutions that still belong to a same-shape instance are verified as before
        roomier = write(tmp_path, "roomier.json", {"problem": "knapsack", "K": 1,
                                                   "budget": 4, "items": items})
        assert main(["verify", roomier, "--beta", "1", "--samples", "50", "--set", set_path]) == 6

    def test_alpha_below_rank_quotient_refused(self, tmp_path, capsys):
        # greedy takes {0} at profits 10, 6, 6 where {1, 2} is worth 12: the rank
        # quotient is 2, so a declared alpha of 1 would print a false guarantee 3/2
        doc = {"problem": "independence", "K": 1, "alpha": "1",
               "elements": [{"a": 10, "b": [0]}, {"a": 6, "b": [1]}, {"a": 6, "b": [1]}],
               "independent_sets": [[0], [1, 2]]}
        argv = ["approximate", None, "--epsilon", "1/2", "--out", str(tmp_path / "set.json")]
        argv[1] = write(tmp_path, "inst.json", doc)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: alpha 1 is below the independence system's rank quotient 2\n"
        argv[1] = write(tmp_path, "inst.json", {**doc, "alpha": "2"})
        assert main(argv) == 0

    def test_query_values_from_the_instance(self, tmp_path, capsys):
        # every F is replaced by (10^6, 10^6): query would print 9010000000/9 from the file
        items = [{"a": 9, "b": [1], "weight": 2}, {"a": 1, "b": [9], "weight": 2}]
        inst_path = write(tmp_path, "inst.json", {"problem": "knapsack", "K": 1,
                                                   "budget": 2, "items": items})
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        assert main(["query", set_path, inst_path, "--lam", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "9001"
        doc = json.loads((tmp_path / "set.json").read_text())
        for solution in doc["solutions"]:
            solution["F"] = ["1000000", "1000000"]
        tampered = write(tmp_path, "tampered.json", doc)
        assert main(["query", tampered, inst_path, "--lam", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solution items:") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "encoding, F",
        [({"kind": "items", "members": [0, 1]}, ["5", "5"]),  # the F the two items sum to
         ({"kind": "items", "members": [2]}, None), ({"kind": "items", "members": [-1]}, None),
         ({"kind": "elements", "members": [0]}, None), ({"kind": "explicit", "id": "0"}, None)],
        ids=["over-budget", "member-past-end", "member-negative", "other-kind", "explicit-id"],
    )
    def test_query_refuses_a_solution_the_instance_lacks(self, tmp_path, capsys, encoding, F):
        inst_path, doc = fitted_set(tmp_path, capsys)
        doc["solutions"][0]["encoding"] = encoding
        doc["solutions"][0]["F"] = F or doc["solutions"][0]["F"]
        assert main(["query", write(tmp_path, "bad.json", doc), inst_path, "--lam", "1"]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "edit",
        [lambda doc: doc["solutions"][0]["encoding"].update(members=[0, 2]),
         lambda doc: doc["solutions"][0]["encoding"].update(members=[1]),
         lambda doc: doc["solutions"][0]["encoding"].update(members=[0, 1, 2, 3])],
        ids=["sink-on-source-side", "source-missing", "vertex-past-end"],
    )
    def test_query_refuses_a_cut_the_graph_lacks(self, tmp_path, capsys, edit):
        inst_path = write(tmp_path, "inst.json", TOY_MINCUT)
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "set.json").read_text())
        edit(doc)
        assert main(["query", write(tmp_path, "bad.json", doc), inst_path, "--lam", "1"]) == 2
        assert_one_error_line(capsys)

    def test_set_for_another_grid_refused(self, tmp_path, capsys):
        # same K, sense and lambda_min (-1/9), but other LB and UB, so another c:
        # the set's cells would answer item 0 (value 10) where the optimum is 100
        items = [{"a": 9, "b": [1], "weight": 2}, {"a": 1, "b": [9], "weight": 2}]
        inst_path = write(tmp_path, "inst.json", {"problem": "knapsack", "K": 1,
                                                   "budget": 2, "items": items})
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        others = [{"a": 1, "b": [9], "weight": 2}, {"a": 50, "b": [50], "weight": 2}]
        other_path = write(tmp_path, "other.json", {"problem": "knapsack", "K": 1,
                                                     "budget": 2, "items": others})
        assert main(["query", set_path, other_path, "--lam", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not match the instance" in err, err
        assert err.count("\n") == 1, err

    def test_exit_code_too_large(self, tmp_path, capsys):
        # an 11-vertex path cut fits fine, but verify's reference enumerates n <= 10 vertices
        path_cut = {
            "problem": "mincut", "K": 1, "vertices": 11, "source": 0, "sink": 10,
            "arcs": [{"tail": v, "head": v + 1, "a": v + 1, "b": [v % 3]} for v in range(10)],
        }
        inst_path = write(tmp_path, "inst.json", path_cut)
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        code = main(["verify", inst_path, "--set", set_path, "--beta", "3/2", "--samples", "20"])
        assert code == 7
        assert capsys.readouterr().err.startswith("error: cut enumeration")

    def test_fixture_commands(self, capsys):
        assert main(["fixtures", "list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == {"section3", "appendix-example", "appendix-proof"}

        code = main([
            "verify", "--fixture", "section3", "--beta", "2", "--K", "1",
            "--samples", "150", "--seed", "0",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert {f["name"] for f in report["facts"]} == {
            "never-optimal", "singleton-cover", "forced-k-plus-1",
        }

    @pytest.mark.parametrize(
        "lam, weight, lift, compact",
        [
            ("0", ["1", "0"], [{"indices": [1], "mu": "0"}], ["1/25"]),
            ("1", ["1", "1"], [], ["1"]),
            ("1000000", ["1", "1000000"], [{"indices": [0], "mu": "1/40000"}], ["25"]),
        ],
    )
    def test_query_explain(self, tmp_path, capsys, lam, weight, lift, compact):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
        capsys.readouterr()
        assert main(["query", set_path, inst_path, "--lam", lam]) == 0
        plain = capsys.readouterr().out
        assert main(["query", set_path, inst_path, "--lam", lam, "--explain"]) == 0
        doc = json.loads(capsys.readouterr().out)
        explain = doc.pop("explain")
        # the explanation is the only addition to the plain answer
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == plain
        assert explain["weight"] == weight  # c = 1/25 on this instance
        assert explain["lift"] == lift
        assert explain["compact_lambda"] == compact
        aset = load_approximation_set(set_path)
        answered = aset.entries[tuple(explain["cell"])]
        assert doc["solution"]["F"] == [str(v) for v in answered.F]

    @pytest.mark.parametrize("K, code", [(12, 0), (40, 0), (MAX_SECTION3_K + 1, 7)])
    def test_section3_K_bound(self, capsys, K, code):
        argv = ["verify", "--fixture", "section3", "--beta", "2", "--K", str(K), "--samples", "100"]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"error: fixture section3 needs K <= {MAX_SECTION3_K}\n"

    def test_reports_byte_stable(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        outputs = []
        sets = []
        for i in range(2):
            main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path])
            run = json.loads(capsys.readouterr().out)
            run.pop("wall_time_ms")  # timing is the only nondeterministic field
            outputs.append(json.dumps(run, sort_keys=True))
            sets.append((tmp_path / "set.json").read_bytes())
            main(["verify", inst_path, "--set", set_path, "--beta", "3/2",
                  "--samples", "40", "--seed", "7"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]
        assert sets[0] == sets[1]


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestUnreadableFiles:
    """Paths that cannot be read or written, and files that are not UTF-8 JSON, exit 2."""

    def test_directory_as_set_file(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        assert main(["query", str(tmp_path), inst_path, "--lam", "1"]) == 2
        assert_one_error_line(capsys)

    def test_directory_as_output(self, tmp_path, capsys):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "outputs",
        [["--out", "{dir}"], ["--out", "{dir}/missing/s.json"], ["--out", ""],
         ["--out", "{dir}/s.json", "--report", "{dir}"]],
        ids=["out-directory", "out-in-missing-directory", "out-empty", "report-directory"],
    )
    def test_bad_output_fails_before_the_fit(self, tmp_path, capsys, monkeypatch, outputs):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        (tmp_path / "s.json").write_text("an earlier set\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls = []
        fit = engine.approximate
        monkeypatch.setattr(engine, "approximate", lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        argv = ["approximate", inst_path, "--epsilon", "1/2"]
        assert main(argv + [arg.format(dir=tmp_path) for arg in outputs]) == 2
        assert_one_error_line(capsys)
        assert calls == []
        # no file created, none truncated
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "content",
        [random.Random(0).randbytes(1024), b"[" * 200_000],
        ids=["not-utf8", "nested-200000-deep"],
    )
    def test_unparsable_set_file(self, tmp_path, capsys, content):
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["query", str(bad), inst_path, "--lam", "1"]) == 2
        assert_one_error_line(capsys)


def run_cli(*args: str, timeout: float = 10):
    """``paramgrid`` in a child process; running past ``timeout`` seconds fails the test."""
    src = os.path.dirname(os.path.dirname(paramgrid.__file__))
    return subprocess.run(
        [sys.executable, "-m", "paramgrid.cli", *args], capture_output=True, text=True,
        timeout=timeout, env={**os.environ, "PYTHONPATH": src},
    )


class TestHostileSizes:
    """Small inputs whose literal, integer or K would cost time far beyond their
    size, or overflow a message, get their exit code and one error line at once."""

    def assert_refused(self, proc, code=2):
        assert proc.returncode == code, proc.stderr
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            proc.stderr.splitlines()[-1]
        ], proc.stderr

    def test_exponent_in_instance_file(self, tmp_path):
        inst_path = write(tmp_path, "inst.json", {**TOY_KNAPSACK, "lambda_min": ["1e100000000"]})
        self.assert_refused(run_cli("approximate", inst_path, "--epsilon", "1/2",
                                    "--out", str(tmp_path / "set.json")))

    def test_exponent_in_flag(self, tmp_path, capsys):
        inst_path, _ = fitted_set(tmp_path, capsys)
        proc = run_cli("query", str(tmp_path / "set.json"), inst_path, "--lam", "1e100000000")
        self.assert_refused(proc)
        assert "exponent notation" in proc.stderr

    def test_long_integer_in_instance_file(self, tmp_path):
        # json.load refuses an integer past Python's 4,300-digit limit with ValueError
        text = json.dumps({**TOY_KNAPSACK, "budget": "BIG"}).replace('"BIG"', "9" * 4400)
        (tmp_path / "inst.json").write_text(text, encoding="utf-8")
        self.assert_refused(run_cli("approximate", str(tmp_path / "inst.json"),
                                    "--epsilon", "1/2", "--out", str(tmp_path / "set.json")))

    def test_long_integer_in_set_file(self, tmp_path, capsys):
        inst_path, doc = fitted_set(tmp_path, capsys)
        doc["cells"][0] = "BIG"
        text = json.dumps(doc).replace('"BIG"', "1" * 4400)
        (tmp_path / "big.json").write_text(text, encoding="utf-8")
        self.assert_refused(run_cli("query", str(tmp_path / "big.json"), inst_path,
                                    "--lam", "1"))

    def test_grid_size_past_the_digit_limit(self, tmp_path):
        # K = 5,000 gives a grid size of about 28,000 digits
        K = 5000
        doc = {"problem": "explicit", "K": K, "sense": "minimize",
               "solutions": [{"id": "only", "F": ["1"] * (K + 1)}]}
        proc = run_cli("approximate", write(tmp_path, "inst.json", doc), "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"))
        self.assert_refused(proc, code=4)
        assert "at least 2^" in proc.stderr

    def test_knapsack_budget_past_its_items_total(self, tmp_path):
        # the DP spans the fitting items' total weight (2 cells here), not the budget
        doc = {"problem": "knapsack", "K": 1, "budget": 10**12,
               "items": [{"a": 1, "b": [1], "weight": 1}]}
        proc = run_cli("approximate", write(tmp_path, "inst.json", doc), "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def test_knapsack_table_past_the_cell_cap(self, tmp_path):
        doc = {"problem": "knapsack", "K": 1, "budget": 10**12,
               "items": [{"a": 1, "b": [1], "weight": 10**12}]}
        proc = run_cli("approximate", write(tmp_path, "inst.json", doc), "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"))
        self.assert_refused(proc, code=7)
        assert "knapsack DP table" in proc.stderr
        assert not (tmp_path / "set.json").exists()

    def test_knapsack_table_size_past_the_digit_limit(self, tmp_path):
        # 20 items and a budget of 4,300 digits each: the cell count is named by its bit length
        weight = 10**4300 - 1
        doc = {"problem": "knapsack", "K": 1, "budget": weight,
               "items": [{"a": 1, "b": [1], "weight": weight}] * 20}
        proc = run_cli("approximate", write(tmp_path, "inst.json", doc), "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"), timeout=5)
        self.assert_refused(proc, code=7)
        assert f"has at least 2^{(20 * weight + 20).bit_length() - 1} cells" in proc.stderr

    def test_grid_refused_before_its_exact_powers(self, tmp_path):
        # 3^K, the fewest points of any K-parameter grid, is past the cap; the
        # grid's own range would take seconds of exact powers to build
        K = 100_000
        doc = {"problem": "explicit", "K": K, "sense": "minimize",
               "solutions": [{"id": "only", "F": ["1"] * (K + 1)}]}
        proc = run_cli("approximate", write(tmp_path, "inst.json", doc), "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"), timeout=4)
        self.assert_refused(proc, code=4)
        assert f"at least 2^{(3**K).bit_length() - 1} points" in proc.stderr

    def test_section3_at_its_bound(self):
        # the documented bound with the default 1,000 samples runs in seconds, not minutes
        proc = run_cli("verify", "--fixture", "section3", "--beta", "2", "--K", str(MAX_SECTION3_K),
                       timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True

    def test_section3_K_refused_before_the_gadget(self):
        # the gadget's (K + 2)(K + 1) rationals would take gigabytes at this K
        proc = run_cli("verify", "--fixture", "section3", "--beta", "2", "--K", "1000000",
                       timeout=4)
        self.assert_refused(proc, code=7)
        assert f"needs K <= {MAX_SECTION3_K}" in proc.stderr

    @pytest.mark.parametrize(
        "K, lambda_min",
        [(10**6, [0]), (200_000, [0] * 200_000)],
        ids=["lambda-min-too-short", "cells-too-few"],
    )
    def test_set_file_K_beyond_its_data(self, tmp_path, capsys, K, lambda_min):
        # the solutions are dropped, so no F length check runs before the grid
        inst_path, doc = fitted_set(tmp_path, capsys)
        doc.update(K=K, lambda_min=lambda_min, solutions=[], cells=[])
        self.assert_refused(run_cli("query", write(tmp_path, "big.json", doc), inst_path,
                                    "--lam", "1"))

    @pytest.mark.parametrize("problem, rows", [("mincut", "arcs"), ("knapsack", "items"),
                                               ("independence", "elements")])
    def test_empty_structured_instance(self, tmp_path, problem, rows):
        doc = {"problem": problem, "K": 10**8, "vertices": 2, "source": 0, "sink": 1,
               "budget": 1, "independent_sets": [], rows: []}
        inst_path = write(tmp_path, "inst.json", doc)
        proc = run_cli("approximate", inst_path, "--epsilon", "1/2",
                       "--out", str(tmp_path / "set.json"))
        self.assert_refused(proc)
        assert "no arcs, items or elements" in proc.stderr


def fitted_set(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
    set_path = str(tmp_path / "set.json")
    assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
    capsys.readouterr()
    return inst_path, json.loads((tmp_path / "set.json").read_text())


def _drop_entry(doc):
    doc["cells"].pop()


def _refer(ref):
    def edit(doc):
        doc["cells"][0] = ref(doc)
    return edit


def _extra_component(doc):
    doc["solutions"][0]["F"].append("1")


def _unreferenced_originals(doc):
    # every cell names an empty solution; verify, which checks the whole
    # pool, would pass the set on its unreferenced optimal originals
    doc["solutions"].append({"encoding": {"kind": "items", "members": []}, "F": ["0", "0"]})
    doc["cells"] = [len(doc["solutions"]) - 1] * len(doc["cells"])


def _put(*path):
    """Edit that sets the field at ``path`` (keys, then the new value)."""
    *keys, last, value = path

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


class TestSetFileChecks:
    """Corrupt set files and mismatched set/instance pairs exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_entry,
            _refer(lambda doc: -1),
            _refer(lambda doc: len(doc["solutions"])),
            _refer(lambda doc: "0"),
            _extra_component,
            lambda doc: [doc],
            _put("solutions", 5),
            _put("solutions", 0, 5),
            _put("solutions", 0, "F", 5),
            _put("solutions", 0, "encoding", 5),
            _put("solutions", 0, "encoding", "members", 5),
            # the derived base 1 + epsilon/2 would be 3/4
            _put("epsilon", "-1/2"),
            _put("lambda_min", "0"),
            _put("lambda_min", ["0", "1"]),
            _put("sense", 5),
            _put("c", "0"),
            _put("solutions", 0, "encoding", "kind", []),
            lambda doc: doc["solutions"].append(doc["solutions"][0]),
            _put("version", 1),
            _put("cells", {}),
            _refer(lambda doc: True),
            lambda doc: doc["cells"].append(0),
            _put("oracle", [1, 2]),
            _put("alpha", "-1"),
            _put("requested_epsilon", "7"),
            _unreferenced_originals,
        ],
        ids=[
            "missing-entry",
            "reference-negative",
            "reference-past-end",
            "reference-not-int",
            "F-wrong-length",
            "document-not-object",
            "solutions-not-list",
            "solution-not-object",
            "F-not-list",
            "encoding-not-object",
            "members-not-list",
            "base-not-above-one",
            "lambda-min-string",
            "lambda-min-wrong-length",
            "sense-not-string",
            "c-not-in-unit-interval",
            "encoding-kind-not-string",
            "solutions-repeat-encoding",
            "version-1",
            "cells-not-list",
            "cell-is-bool",
            "cells-one-too-many",
            "oracle-not-string",
            "alpha-below-one",
            "requested-epsilon-outside-unit-interval",
            "unreferenced-solutions",
        ],
    )
    def test_corrupt_set_refused(self, tmp_path, capsys, corrupt):
        inst_path, doc = fitted_set(tmp_path, capsys)
        doc = corrupt(doc) or doc
        with pytest.raises(InvalidInstanceError):
            approximation_set_from_dict(doc)
        bad = write(tmp_path, "bad.json", doc)
        assert main(["query", bad, inst_path, "--lam", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["query", "verify"])
    @pytest.mark.parametrize(
        "other",
        [
            {**TOY_KNAPSACK, "K": 2, "lambda_min": [0, 0],
             "items": [{"a": 3, "b": [1, 0], "weight": 2}, {"a": 2, "b": [4, 1], "weight": 2}]},
            {"problem": "explicit", "K": 1, "sense": "minimize", "lambda_min": [0],
             "solutions": [{"id": "x", "F": ["3", "1"]}, {"id": "y", "F": ["2", "4"]}]},
            {**TOY_KNAPSACK, "lambda_min": [1]},
        ],
        ids=["K", "sense", "lambda_min"],
    )
    def test_mismatched_instance_refused(self, tmp_path, capsys, command, other):
        inst_path, _ = fitted_set(tmp_path, capsys)
        set_path = str(tmp_path / "set.json")
        other_path = write(tmp_path, "other.json", other)
        lam = ["--lam", "1"] * other["K"]
        if command == "query":
            argv = ["query", set_path, other_path, *lam]
        else:
            argv = ["verify", other_path, "--set", set_path, "--beta", "3/2", "--samples", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not match the instance" in err


@cache
def _saved_toy_set() -> str:
    aset = approximate(instance_from_dict(TOY_KNAPSACK), F(1, 2))
    return json.dumps(approximation_set_to_dict(aset))


def _field_paths(node, path=()):
    """Paths (keys and list positions) of every field below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append((*path, key))
        out.extend(_field_paths(child, (*path, key)))
    return out


def _json_type(value) -> type:
    return type(None) if value is None else type(value)


def _retype(doc, path, value) -> None:
    """Put ``value`` at ``path`` of ``doc``; examples that keep the field's JSON type are skipped."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    assume(_json_type(value) is not _json_type(parent[path[-1]]))
    parent[path[-1]] = value


FIELD_PATHS = _field_paths(json.loads(_saved_toy_set()))
JSON_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-3, max_value=3) | st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-3, max_value=3), max_size=2),
    st.none(),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_retyped_field_loads_or_is_refused(path, value):
    """A field of a saved set given another JSON type is loaded or refused, never a crash."""
    doc = json.loads(_saved_toy_set())
    _retype(doc, path, value)
    try:
        aset = approximation_set_from_dict(doc)
    except ParamGridError:
        return
    # whatever loads must save again
    approximation_set_to_dict(aset)


INSTANCE_DOCS = {
    "explicit": TOY_EXPLICIT,
    "knapsack": TOY_KNAPSACK,
    "mincut": TOY_MINCUT,
    "independence": TOY_INDEPENDENCE,
}


@pytest.mark.parametrize("family", sorted(INSTANCE_DOCS))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_retyped_instance_field_parses_or_is_refused(family, data):
    """An instance field given another JSON type is parsed or refused, never a crash."""
    doc = copy.deepcopy(INSTANCE_DOCS[family])
    _retype(doc, data.draw(st.sampled_from(_field_paths(doc))), data.draw(JSON_VALUES))
    try:
        instance_from_dict(doc)
    except ParamGridError:
        pass

import json
from fractions import Fraction as F

import pytest

from paramgrid import approximate, query
from paramgrid.cli import main
from paramgrid.errors import InvalidInstanceError
from paramgrid.serialization import (
    approximation_set_from_dict,
    approximation_set_to_dict,
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
        assert inst.alpha == F(2)
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

    def test_fraction_parsing(self):
        assert parse_frac("-3/2") == F(-3, 2)
        assert parse_frac(4) == F(4)
        with pytest.raises(InvalidInstanceError):
            parse_frac("1.5x")
        with pytest.raises(InvalidInstanceError):
            parse_frac(True)


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

    def test_serialized_form_is_stable(self):
        inst = instance_from_dict(TOY_KNAPSACK)
        doc1 = approximation_set_to_dict(approximate(inst, F(1, 2)))
        doc2 = approximation_set_to_dict(approximate(inst, F(1, 2)))
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_rejects_foreign_documents(self):
        with pytest.raises(InvalidInstanceError):
            approximation_set_from_dict({"format": "something-else"})


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
        assert report["grid_size"] == report["oracle_calls"]

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

    def test_exit_code_verification_failure(self, tmp_path, capsys):
        # Truncate the set to one solution that cannot cover the far field.
        inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
        set_path = str(tmp_path / "set.json")
        main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path])
        capsys.readouterr()
        doc = json.loads((tmp_path / "set.json").read_text())
        lowest = str(min(int(k) for k in doc["entries"]))
        keep = doc["entries"][lowest]
        doc["solutions"] = [doc["solutions"][keep]]
        doc["entries"] = {k: 0 for k in doc["entries"]}
        truncated = write(tmp_path, "trunc.json", doc)
        code = main([
            "verify", inst_path, "--set", truncated, "--beta", "3/2",
            "--samples", "80", "--seed", "0",
        ])
        assert code == 6
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is False
        assert F(verdict["worst_ratio"]) > F(3, 2)

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


def fitted_set(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", TOY_KNAPSACK)
    set_path = str(tmp_path / "set.json")
    assert main(["approximate", inst_path, "--epsilon", "1/2", "--out", set_path]) == 0
    capsys.readouterr()
    return inst_path, json.loads((tmp_path / "set.json").read_text())


def _drop_entry(doc):
    del doc["entries"][min(doc["entries"])]


def _refer(ref):
    def edit(doc):
        key = min(doc["entries"])
        doc["entries"][key] = ref(doc)
    return edit


def _rekey(new_key):
    def edit(doc):
        entries = doc["entries"]
        entries[new_key(doc)] = entries.pop(min(entries))
    return edit


def _extra_component(doc):
    doc["solutions"][0]["F"].append("1")


class TestSetFileChecks:
    """Corrupt set files and mismatched set/instance pairs exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_entry,
            _refer(lambda doc: -1),
            _refer(lambda doc: len(doc["solutions"])),
            _refer(lambda doc: "0"),
            _rekey(lambda doc: "x"),
            _rekey(lambda doc: str(doc["ub"] + 1)),
            _rekey(lambda doc: "0,0"),
            _extra_component,
        ],
        ids=[
            "missing-entry",
            "reference-negative",
            "reference-past-end",
            "reference-not-int",
            "key-not-integer",
            "key-out-of-range",
            "key-wrong-arity",
            "F-wrong-length",
        ],
    )
    def test_corrupt_set_refused(self, tmp_path, capsys, corrupt):
        inst_path, doc = fitted_set(tmp_path, capsys)
        corrupt(doc)
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

import json
import os

import pytest

from bqlcd.cli import MAX_NESTING, main
from bqlcd.kripke import SearchBounds, countermodel_search
from bqlcd.syntax import parse_inferring

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name):
    return os.path.join(DATA, name)


def parse(text):
    return parse_inferring(text)[0]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_curry_fails_with_c5(capsys):
    code, report = run(capsys, "check", data("curry_proof.json"))
    assert code == 1
    assert report["valid"] is False
    assert {v["constraint"] for v in report["violations"]} == {"C5"}


def test_check_top_int_valid_everywhere(capsys):
    for system in ["nbqlcd_r", "nbqlcd", "tjk+"]:
        code, report = run(capsys, "check", data("top_proof.json"),
                           "--system", system)
        assert code == 0 and report["valid"]


def test_check_malformed_json_exits_2(capsys):
    code = main(["check", data("malformed.json")])
    assert code == 2


@pytest.mark.parametrize("blob", [
    {"assume": 3},
    {"rule": "top_int", "conclusion": 5},
    {"rule": "top_int", "conclusion": "true", "children": 3},
    {"rule": "top_int", "conclusion": "true", "discharges": 3},
    {"assume": "p", "children": [{"rule": "nonsense", "conclusion": 3}]},
    {"assume": "p", "discharges": ["x"]},
])
def test_proof_fields_of_the_wrong_type_exit_2(capsys, tmp_path, blob):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(blob))
    for command in ("check", "reduce"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_check_unknown_system_exits_2(capsys):
    code = main(["check", data("top_proof.json"), "--system", "nope"])
    assert code == 2


def test_check_stratum_bound_below_minus_one_exits_2(capsys):
    # a bound of -2 would otherwise keep modus ponens and skip the stratum check
    assert main(["check", data("mp_proof.json"), "--system", "nbqlcd"]) == 1
    code = main(["check", data("mp_proof.json"), "--system", "nbqlcd[-2]"])
    assert code == 2
    assert "stratum bound must be -1 or more" in capsys.readouterr().err


def test_reduce_stratum_minus_one_identity(capsys):
    code, payload = run(capsys, "reduce", data("top_proof.json"))
    assert code == 0
    assert payload["n"] == 0
    assert payload["stats"]["strata"] == [-1, -1]


def test_reduce_mp(capsys):
    code, payload = run(capsys, "reduce", data("mp_proof.json"))
    assert code == 0
    assert payload["n"] == 1
    assert payload["proof"]["conclusion"] == "true -> q"
    assert payload["stats"]["strata"][1] == -1


def test_reduce_nested(capsys):
    code, payload = run(capsys, "reduce", data("nested_proof.json"))
    assert code == 0
    assert payload["n"] == 2


def test_reduce_rejects_invalid(capsys):
    code, report = run(capsys, "reduce", data("curry_proof.json"))
    assert code == 1 and report["valid"] is False


def test_sat_true_and_false(capsys):
    code, payload = run(capsys, "sat", data("m1_model.json"),
                        "--world", "w", "--formula", "true")
    assert code == 0 and payload["value"] is True
    code, payload = run(capsys, "sat", data("m1_model.json"),
                        "--world", "w", "--formula", "(p & (p -> q)) -> q")
    assert code == 1 and payload["value"] is False


def test_sat_dead_end_conditional(capsys):
    code, payload = run(capsys, "sat", data("m1_model.json"),
                        "--world", "u", "--formula", "p -> false")
    assert code == 0 and payload["value"] is True


def test_sat_trace(capsys):
    code, payload = run(capsys, "sat", data("m1_model.json"),
                        "--world", "w", "--formula", "p -> q", "--trace")
    assert "trace" in payload
    assert payload["trace"]["formula"] == "p -> q"


def test_sat_trace_is_at_most_seven_levels_deep(capsys):
    formula = "(p & " * 9 + "p" + ")" * 9
    code, payload = run(capsys, "sat", data("m1_model.json"),
                        "--world", "w", "--formula", formula, "--trace")
    assert code == 1 and payload["trace"]["formula"].count("p") == 10

    def levels(entry):
        return 1 + max((levels(k) for k in entry.get("parts", [])), default=0)

    assert levels(payload["trace"]) == 7


def test_sat_unknown_world_exits_2(capsys):
    assert main(["sat", data("m1_model.json"),
                 "--world", "zz", "--formula", "p"]) == 2


def test_sat_open_formula_exits_2(capsys):
    assert main(["sat", data("m1_model.json"),
                 "--world", "w", "--formula", "P(x)"]) == 2


def test_countermodel_found(capsys):
    code, payload = run(capsys, "countermodel",
                        "--conclusion", "(p & (p -> q)) -> q",
                        "--max-worlds", "2", "--max-domain", "1")
    assert code == 0 and payload["found"]
    assert payload["witness"] in payload["model"]["worlds"]


def test_countermodel_none_for_transitivity(capsys):
    code, payload = run(capsys, "countermodel",
                        "--premises", "p -> q", "q -> r",
                        "--conclusion", "p -> r")
    assert code == 1 and payload["found"] is False and payload["exhausted"]


def test_countermodel_repeated_premises_flag_extends(capsys):
    code, payload = run(capsys, "countermodel", "--premises", "p",
                        "--premises", "p -> q", "--conclusion", "q")
    assert code == 1 and payload["found"] is False and payload["exhausted"]


def test_successive_calls_share_no_arguments(capsys):
    # the parser is built once per process; each call parses afresh
    assert main(["countermodel", "--premises", "p", "--premises", "p -> q",
                 "--conclusion", "q", "--stats"]) == 1
    assert capsys.readouterr().err
    assert main(["countermodel", "--conclusion", "q"]) == 0
    shown = capsys.readouterr()
    assert shown.err == ""
    assert json.loads(shown.out)["model"]["rels"] == {"q": {"w0": []}}


def test_countermodel_identity_modes(capsys):
    code, payload = run(capsys, "countermodel",
                        "--conclusion", "c = d | (c = d -> false)",
                        "--mode", "strict")
    assert code == 1
    code, payload = run(capsys, "countermodel",
                        "--conclusion", "c = d | (c = d -> false)",
                        "--mode", "congruence", "--max-worlds", "2")
    assert code == 0 and payload["found"]


def test_countermodel_stats_print_one_json_line_to_stderr(capsys):
    argv = ["countermodel", "--premises", "p -> q", "q -> r", "--conclusion", "p -> r"]
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == code == 1
    shown = capsys.readouterr()
    assert shown.out == plain.out and plain.err == ""
    assert shown.err.endswith("\n") and shown.err.count("\n") == 1
    stats = json.loads(shown.err)
    assert list(stats) == sorted(stats)
    assert stats == countermodel_search([parse("p -> q"), parse("q -> r")], parse("p -> r"),
                                        SearchBounds(3, 2)).stats
    assert 0 < stats["passes"] <= stats["interpretations"]


def test_countermodel_congruence_with_relations_exhausts(capsys):
    # 736,726 congruence interpretations over a binary and a unary relation:
    # the congruence conditions are decided a block of lanes at a time
    code = main(["countermodel",
                 "--premises", "((exists x. R(x, c)) -> (R(c, d) -> P(d)))", "R(d, c)",
                 "--conclusion", "((exists x. R(x, c)) | ((true & p) -> (R(d, c) -> R(c, d))))",
                 "--mode", "congruence", "--max-worlds", "3", "--max-domain", "2", "--stats"])
    shown = capsys.readouterr()
    assert code == 1
    assert shown.out == '{\n  "found": false,\n  "exhausted": true,\n  "notes": []\n}\n'
    assert shown.err == ('{"const_vectors": 45, "frames": 30, "frames_unrooted": 68, '
                         '"interpretations": 736726, "passes": 917}\n')


DEEP_GUARD = "true -> " * 400 + "p"


def test_countermodel_deep_guard_exits_2(capsys):
    assert main(["countermodel", "--conclusion", DEEP_GUARD]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply\n"


def test_sat_deep_guard_exits_2(capsys):
    assert main(["sat", data("m1_model.json"),
                 "--world", "w", "--formula", DEEP_GUARD]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply\n"


def test_guards_up_to_the_nesting_cap_are_evaluated(capsys):
    at_cap = "true -> " * MAX_NESTING + "p"
    assert main(["sat", data("m1_model.json"), "--world", "w", "--formula", at_cap]) == 1
    assert main(["countermodel", "--conclusion", at_cap, "--max-worlds", "2"]) == 0
    capsys.readouterr()
    assert main(["countermodel", "--conclusion", "true -> " + at_cap]) == 2
    assert capsys.readouterr().err == "error: input nested too deeply\n"


def test_sat_uninterpreted_parameter_exits_2(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": ["w"], "domain": 1, "rels": {"P": {"w": []}},
                                "rel_arity": {"P": 1}}))
    assert main(["sat", str(path), "--world", "w", "--formula", "P(#7)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter #7 not interpreted\n"


def test_countermodel_max_worlds_cap_exits_2(capsys):
    assert main(["countermodel", "--conclusion", "p",
                 "--max-worlds", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("premise,conclusion", [("P(c)", "P"), ("f(c) = c", "P(f)")])
def test_countermodel_signature_clash_exits_2(capsys, premise, conclusion):
    assert main(["countermodel", "--premises", premise,
                 "--conclusion", conclusion]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_countermodel_signature_clash_names_its_position(capsys):
    assert main(["countermodel", "--premises", "P(c)",
                 "--conclusion", "c"]) == 2
    assert "(at position 0)" in capsys.readouterr().err


def test_brady_curry(capsys):
    code, report = run(capsys, "brady", data("curry_universe.json"))
    assert code == 0
    assert report["stable"] and report["theta"] == 1
    assert report["checks"]["loop_verified"]


def test_brady_tower_unstable_but_checks_pass(capsys):
    code, report = run(capsys, "brady", data("tower_universe.json"),
                       "--depth-budget", "5")
    assert code == 0
    assert report["stable"] is False


def test_brady_malformed_exits_2(capsys):
    assert main(["brady", data("malformed.json")]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", data("top_proof.json"), "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["valid"] is True


def test_selftest(capsys):
    code = main(["selftest", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "persistence: ok" in out
    assert "truth_construction: ok" in out


def test_brady_report_schema(capsys):
    code, report = run(capsys, "brady", data("truth_teller_universe.json"))
    assert code == 0
    assert set(report) >= {"universe", "depth", "theta", "stable", "t_ext",
                           "converged_at", "history", "traces", "checks"}
    for tr in report["traces"]:
        assert set(tr) == {"world", "stages", "fixed_point_stage"}
        assert tr["fixed_point_stage"] <= len(report["universe"]) + 1
    assert all(isinstance(v, bool) for v in report["checks"].values())


def test_check_report_schema(capsys):
    code, report = run(capsys, "check", data("curry_proof.json"))
    assert set(report) == {"valid", "violations"}
    for v in report["violations"]:
        assert set(v) == {"node", "constraint", "message"}


def test_selftest_deterministic(capsys):
    code1 = main(["selftest", "--seed", "3"])
    out1 = capsys.readouterr().out
    code2 = main(["selftest", "--seed", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


# '=' as the diagonal on m1, so only the identity mode itself can be wrong
_DIAGONAL = {"rels": {"=": {"w": [[0, 0]], "u": [[0, 0]]}}, "rel_arity": {"=": 2}}


@pytest.mark.parametrize("command,name,changes", [
    *(("sat", "m1_model.json", {field: value})
      for field, value in [("rels", []), ("rels", 3), ("rels", None), ("rels", {"p": []}),
                           ("consts", []), ("funs", 3), ("fun_arity", []),
                           ("rel_arity", "x")]),
    *(("sat", "m1_model.json", {**_DIAGONAL, "identity": value}) for value in ["bogus", 3, None]),
    *(("brady", "curry_universe.json", {"codes": value}) for value in [None, [], 3, "x"]),
    # an extension at a world the model lacks
    ("sat", "m1_model.json", {"rels": {"p": {"w": [], "u": [[]], "zz": [[]]}, "q": {}}}),
])
def test_reader_fields_of_the_wrong_type_exit_2(capsys, tmp_path, command, name, changes):
    with open(data(name)) as fh:
        blob = json.load(fh)
    path = tmp_path / name
    path.write_text(json.dumps({**blob, **changes}))
    argv = ["--world", "w", "--formula", "true"] if command == "sat" else []
    assert main([command, str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1

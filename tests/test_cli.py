import argparse
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perron import (FirstIndex, GroupBasis, GroupElement, GroupOrder, InternalError,
                    Step, Trace, ValidationError, ValuedRing, apply_step, compose_trace,
                    lexvec, monomialize, positivize_all, run_pair, solve)
import perron.cli
import perron.engine
import perron.monomials
import perron.ordered_group
from perron.cli import MalformedInput, main
from perron.transforms import identity_matrix


def run_cli(tmp_path, command, doc, *extra, stdin=None, monkeypatch=None):
    inp = tmp_path / "job.json"
    out = tmp_path / "result.json"
    inp.write_text(json.dumps(doc))
    argv = command + ["--input", str(inp), "--output", str(out), *extra]
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    text = out.read_text() if out.exists() else ""
    return code, (json.loads(text) if text else None), text


def test_compare_scripted(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2],
         "adversary": {"kind": "scripted", "choices": [2]}},
        "--trace")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["schema_version"] == 1
    payload = doc["payload"]
    assert payload["relation"] == "ge"
    assert payload["rounds"] == 1
    assert payload["final_alpha"] == [3, 4]
    assert payload["final_beta"] == [1, 3]
    assert doc["trace"] == [{"J": [1, 2], "j": 2}]


def test_compare_already_comparable(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [1, 0], "beta": [1, 1], "adversary": {"kind": "first"}})
    assert code == 0
    assert doc["payload"]["relation"] == "le"
    assert doc["payload"]["rounds"] == 0
    assert doc["payload"]["matrix"] == [[1, 0], [0, 1]]


def test_compare_dim_mismatch_is_exit_2(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [1], "beta": [1, 2], "adversary": {"kind": "first"}})
    assert code == 2
    assert doc["status"] == "error"
    assert "dimension mismatch" in doc["diagnostics"][0]


def test_malformed_json_is_exit_1(tmp_path):
    inp = tmp_path / "bad.json"
    out = tmp_path / "out.json"
    for text, fragment in (
            ("this is not json", "invalid JSON"),
            ('{"alpha": [3, 1], "beta": [1, 2]} x', "trailing data after the JSON document")):
        inp.write_text(text)
        assert main(["compare", "--input", str(inp), "--output", str(out)]) == 1
        assert_one_document(1, out.read_text())
        assert fragment in json.loads(out.read_text())["diagnostics"][0]


def test_step_limit_is_exit_3(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "first"}},
        "--step-limit", "0")
    assert code == 3
    assert doc["status"] == "error"
    assert doc["trace"] == []


def test_long_pair_hits_default_step_limit_then_finishes(tmp_path):
    # 10^6 + 1 rounds: one past the default limit, well within 2 * 10^6
    job = {"alpha": [1000001, 0], "beta": [0, 1]}
    inp, out = tmp_path / "job.json", tmp_path / "result.json"
    inp.write_text(json.dumps(job))
    argv = ["compare", "--input", str(inp), "--output", str(out)]
    assert main(argv) == 3
    text = out.read_text()
    assert '"status":"error"' in text
    assert text.count('{"J":[1,2],"j":1}') == 10 ** 6

    code, doc, _ = run_cli(tmp_path, ["compare"], job, "--step-limit", "2000000")
    assert code == 0
    assert doc["payload"]["rounds"] == 1000001
    assert doc["payload"]["relation"] == "le"
    assert doc["payload"]["final_beta"] == [1000001, 1]
    assert doc["payload"]["matrix"] == [[1, 1000001], [0, 1]]


def test_trace_replay_round_trip(tmp_path):
    job = {"alpha": [9, 2, 0], "beta": [1, 3, 4],
           "adversary": {"kind": "random", "seed": 7}}
    code, doc, _ = run_cli(tmp_path, ["compare"], job, "--trace")
    assert code == 0
    steps = [Step(frozenset(entry["J"]), entry["j"], 3)
             for entry in doc["trace"]]
    alpha, beta = (9, 2, 0), (1, 3, 4)
    for step in steps:
        alpha, beta = apply_step(step, alpha), apply_step(step, beta)
    assert list(alpha) == doc["payload"]["final_alpha"]
    assert list(beta) == doc["payload"]["final_beta"]
    matrix = compose_trace(steps, 3)
    assert [list(row) for row in matrix] == doc["payload"]["matrix"]


def test_game_solve(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["game", "solve"],
        {"vectors": [[1, 0], [0, 1]],
         "adversary": {"kind": "scripted", "choices": [1]}})
    assert code == 0
    assert doc["payload"]["winner_index"] == 0
    assert doc["payload"]["rounds"] == 1
    assert doc["payload"]["final_vectors"] == [[1, 0], [1, 1]]


def test_game_singleton(tmp_path):
    code, doc, _ = run_cli(tmp_path, ["game", "solve"], {"vectors": [[5, 5]]})
    assert code == 0
    assert doc["payload"]["winner_index"] == 0
    assert doc["payload"]["rounds"] == 0


def test_game_empty_is_exit_2(tmp_path):
    code, doc, _ = run_cli(tmp_path, ["game", "solve"], {"vectors": []})
    assert code == 2


def test_game_solve_rejects_interactive(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["game", "solve"],
        {"vectors": [[1, 0], [0, 1]], "adversary": {"kind": "interactive"}})
    assert code == 2


def test_game_play_reprompts_then_finishes(tmp_path, monkeypatch, capsys):
    code, doc, _ = run_cli(
        tmp_path, ["game", "play"], {"vectors": [[1, 0], [0, 1]]},
        stdin="3\nx\n1\n", monkeypatch=monkeypatch)
    assert code == 0
    assert doc["payload"]["winner_index"] == 0
    err = capsys.readouterr().err
    assert err.count("j must be one of {1,2}\n") == 2  # out of J, not an int
    assert "choose j in {1,2}:" in err


class _FullStream(io.StringIO):
    """A stream on a full disk: every write raises OSError."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stderr", [None, _FullStream()], ids=["closed", "full"])
@pytest.mark.parametrize("command, doc", [
    (["game", "play"], {"vectors": [[0, 2], [1, 1], [3, 0]]}),
    (["compare"], {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "interactive"}}),
], ids=["game-play", "compare"])
def test_interactive_job_without_a_writable_stderr_writes_its_document(
        tmp_path, monkeypatch, stderr, command, doc):
    """The round lines, prompts and closing line are best effort: a closed
    stderr (sys.stderr is None) or one that raises OSError loses only them."""
    monkeypatch.setattr("sys.stderr", stderr)
    code, out, _ = run_cli(tmp_path, command, doc, stdin="1\n1\n",
                           monkeypatch=monkeypatch)
    assert code == 0 and out["status"] == "ok"
    assert out["payload"]["rounds"] == 2


def test_game_play_eof_is_exit_4(tmp_path, monkeypatch):
    code, doc, _ = run_cli(
        tmp_path, ["game", "play"], {"vectors": [[1, 0], [0, 1]]},
        stdin="", monkeypatch=monkeypatch)
    assert code == 4
    assert doc["status"] == "error"
    assert doc["trace"] == []


def test_a_closed_stdin_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", None)
    assert main(["compare"]) == 1
    out = capsys.readouterr().out
    assert_one_document(1, out)
    assert json.loads(out)["diagnostics"] == ["cannot read input: stdin is closed"]


@pytest.mark.parametrize("command, doc", [
    (["game", "play"], {"vectors": [[0, 2], [1, 1], [3, 0]]}),
    (["compare"], {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "interactive"}}),
], ids=["game-play", "compare"])
def test_interactive_choice_on_a_closed_stdin_is_exit_4(tmp_path, monkeypatch,
                                                        command, doc):
    """With the job read from a file, a closed stdin ends the choices as end
    of input does."""
    monkeypatch.setattr("sys.stdin", None)
    code, out, _ = run_cli(tmp_path, command, doc, "--trace")
    assert code == 4
    assert out["diagnostics"] == ["end of input during interactive choice"]
    assert out["trace"] == []


@pytest.mark.parametrize("stdout", [None, _FullStream()], ids=["closed", "full"])
@pytest.mark.parametrize("argv", [["compare"], ["compare", "--bogus"]],
                         ids=["ok", "usage-error"])
def test_an_unwritable_stdout_is_exit_1_with_one_stderr_line(monkeypatch, capsys,
                                                             stdout, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"alpha":[3,1],"beta":[1,2]}'))
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == 1
    why = "it is closed" if stdout is None else "[Errno 28] No space left on device"
    assert capsys.readouterr().err.endswith(f"perron: cannot write to stdout: {why}\n")


@pytest.mark.parametrize("stdout", [None, _FullStream()], ids=["closed", "full"])
def test_help_into_an_unwritable_stdout_is_exit_1(monkeypatch, capsys, stdout):
    monkeypatch.setattr("sys.stdout", stdout)
    with pytest.raises(SystemExit) as exit_:
        main(["compare", "--help"])
    assert exit_.value.code == 1
    why = "it is closed" if stdout is None else "[Errno 28] No space left on device"
    assert capsys.readouterr().err == f"perron: cannot write to stdout: {why}\n"


def test_positivize(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["positivize"],
        {"generator_images": [["1", "0"], ["0", "1"]], "elements": [[2, -1]]})
    assert code == 0
    assert doc["payload"]["coords"] == [[2, 1]]
    assert doc["payload"]["basis_images"] == [["1", "-1"], ["0", "1"]]
    assert doc["payload"]["basis_in_original"] == [[1, -1], [0, 1]]


def test_positivize_already_nonnegative(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["positivize"],
        {"generator_images": [["1", "0"], ["0", "1"]], "elements": [[1, 0]]})
    assert code == 0
    assert doc["payload"]["coords"] == [[1, 0]]
    assert doc["payload"]["basis_images"] == [["1", "0"], ["0", "1"]]


def test_positivize_dependent_images_is_exit_2(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["positivize"],
        {"generator_images": [["1", "0"], ["2", "0"]], "elements": [[1, 0]]})
    assert code == 2
    assert "independent" in doc["diagnostics"][0]


def test_monomialize(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["monomialize"],
        {"num_vars": 2, "num_toric": 2,
         "values": [["1", "0"], ["0", "1"]],
         "polynomial": [{"coeff": "1", "exponents": [1, 0]},
                        {"coeff": "1", "exponents": [0, 1]}]})
    assert code == 0
    payload = doc["payload"]
    assert payload["substitution"] == [[1, 1], [0, 1]]
    assert payload["factor_exponents"] == [0, 1]
    assert payload["unit"] == [{"coeff": "1", "exponents": [0, 0]},
                               {"coeff": "1", "exponents": [1, 0]}]


def test_monomialize_rational_monomial(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["monomialize"],
        {"num_vars": 2, "num_toric": 2,
         "values": [["1", "0"], ["0", "1"]],
         "polynomial": [{"coeff": "3/2", "exponents": [1, 0]}]})
    assert code == 0
    payload = doc["payload"]
    assert payload["substitution"] == [[1, 0], [0, 1]]
    assert payload["factor_exponents"] == [1, 0]
    assert payload["unit"] == [{"coeff": "3/2", "exponents": [0, 0]}]


def test_monomialize_value_must_be_a_list(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["monomialize"],
        {"num_vars": 1, "num_toric": 1, "values": ["12"],
         "polynomial": [{"coeff": "1", "exponents": [1]}]})
    assert code == 1
    assert doc["status"] == "error"
    assert "list" in doc["diagnostics"][0]


def test_monomialize_zero_polynomial_is_exit_2(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["monomialize"],
        {"num_vars": 2, "num_toric": 2,
         "values": [["1", "0"], ["0", "1"]], "polynomial": []})
    assert code == 2
    assert "zero polynomial" in doc["diagnostics"][0]


def test_monomialize_honours_the_step_limit(tmp_path):
    # x2 + x1^200001 with values (1,0), (200000,1) takes about 200,000 rounds
    code, doc, text = run_cli(
        tmp_path, ["monomialize"],
        {"num_vars": 2, "num_toric": 2,
         "values": [["1", "0"], ["200000", "1"]],
         "polynomial": [{"coeff": "1", "exponents": [0, 1]},
                        {"coeff": "1", "exponents": [200001, 0]}]},
        "--step-limit", "10", "--trace")
    assert code == 3
    assert text.count("\n") == 1 and text.endswith("\n")
    assert doc["status"] == "error" and doc["payload"] is None
    assert doc["diagnostics"] == ["pair not comparable within 10 steps"]
    assert len(doc["trace"]) == 10


def test_seeded_outputs_are_deterministic(tmp_path):
    job = {"alpha": [8, 0, 3], "beta": [2, 5, 1],
           "adversary": {"kind": "random", "seed": 123}}
    _, _, first = run_cli(tmp_path, ["compare"], job, "--trace")
    _, _, second = run_cli(tmp_path, ["compare"], job, "--trace")
    assert first == second


def test_seed_flag_overrides_document(tmp_path):
    job = {"alpha": [8, 0, 3], "beta": [2, 5, 1],
           "adversary": {"kind": "random", "seed": 123}}
    _, _, with_doc_seed = run_cli(tmp_path, ["compare"], job, "--trace")
    _, _, with_flag = run_cli(tmp_path, ["compare"], job, "--trace",
                              "--seed", "123")
    assert with_doc_seed == with_flag


def test_negative_seed_is_exit_1(tmp_path):
    """random.Random seeds with |seed|: -123 would replay seed 123's game."""
    job = {"alpha": [8, 0, 3], "beta": [2, 5, 1],
           "adversary": {"kind": "random", "seed": -123}}
    for extra, seed in (((), -123), (("--seed", "-5"), -5)):
        code, doc, _ = run_cli(tmp_path, ["compare"], job, *extra)
        assert code == 1
        assert doc["diagnostics"] == [f"seed must be >= 0, got {seed}"]


def test_random_without_seed_is_exit_1(tmp_path):
    code, _, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "random"}})
    assert code == 1


def test_bad_schema_version_is_exit_1(tmp_path):
    """Only the integer 1 is schema version 1: not true, 1.0 or "1"."""
    for version in (2, True, 1.0, "1"):
        code, doc, _ = run_cli(
            tmp_path, ["compare"],
            {"schema_version": version, "alpha": [1, 0], "beta": [1, 1]})
        assert code == 1
        assert doc["status"] == "error"
        assert doc["diagnostics"] == [f"unsupported schema_version: {version!r}"]


PAIR = {"alpha": [3, 1], "beta": [1, 2]}
RING = {"num_vars": 2, "num_toric": 2, "values": [["1", "0"], ["0", "1"]],
        "polynomial": [{"coeff": "1", "exponents": [1, 0]}]}


@pytest.mark.parametrize("command, job, message", [
    (["compare"], {**PAIR, "adversary": [1]}, "adversary must be an object"),
    (["compare"], {**PAIR, "adversary": {"kind": "scripted"}},
     "scripted adversary requires 'choices'"),
    (["compare"], {**PAIR, "adversary": {"kind": "sly"}},
     "unknown adversary kind: 'sly'"),
    (["monomialize"], {**RING, "num_vars": True}, "num_vars must be an integer"),
    (["monomialize"], {**RING, "polynomial": {"coeff": "1"}},
     "polynomial must be a list of terms"),
], ids=["adversary-list", "scripted-no-choices", "unknown-kind", "bool-int",
        "polynomial-object"])
def test_malformed_job_field_is_one_error_document(command, job, message, tmp_path):
    code, doc, text = run_cli(tmp_path, command, job)
    assert_one_document(code, text)
    assert code == 1
    assert doc["diagnostics"] == [message]


def test_stdin_document_with_inline_choices(monkeypatch, capsys, tmp_path):
    out = tmp_path / "result.json"
    payload = json.dumps({"vectors": [[1, 0], [0, 1]]}) + "\n2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code = main(["game", "play", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["final_vectors"] == [[1, 1], [0, 1]]
    assert doc["payload"]["winner_index"] == 1


def test_huge_integers_round_trip_as_strings(tmp_path):
    big = 2 ** 60 + 1
    code, doc, raw = run_cli(
        tmp_path, ["compare"],
        {"alpha": [str(big), 1], "beta": [1, 2],
         "adversary": {"kind": "scripted", "choices": [2]}})
    assert code == 0
    assert doc["payload"]["rounds"] == 1
    # j=2 sums both coordinates into the second slot
    assert doc["payload"]["final_alpha"] == [str(big), str(big + 1)]
    assert doc["payload"]["final_beta"] == [1, 3]
    # large entries are decimal strings, never floats
    assert f'"{big}"' in raw
    assert "e+" not in raw and "E+" not in raw


@pytest.mark.parametrize("x, encoded", [
    (2 ** 53 - 1, 2 ** 53 - 1), (-(2 ** 53 - 1), -(2 ** 53 - 1)),
    (2 ** 53, str(2 ** 53)), (-(2 ** 53), str(-(2 ** 53))),
])
def test_integers_past_an_exact_double_become_strings(x, encoded):
    """Below 2^53 in magnitude an integer is a JSON number; from 2^53 on, where
    a double cannot tell n from n + 1, it is a decimal string."""
    assert perron.cli._encode_int(x) == encoded
    assert perron.cli._encode_vec([x, 1]) == [encoded, 1]


def test_scripted_choice_outside_J_is_exit_2(tmp_path):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2],
         "adversary": {"kind": "scripted", "choices": [99]}})
    assert code == 2
    assert "outside" in doc["diagnostics"][0]


def test_play_forces_interactive_despite_document(tmp_path, monkeypatch, capsys):
    code, doc, _ = run_cli(
        tmp_path, ["game", "play"],
        {"vectors": [[1, 0], [0, 1]], "adversary": {"kind": "first"}},
        stdin="2\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "choose j in {1,2}:" in capsys.readouterr().err
    assert doc["payload"]["winner_index"] == 1


def test_compare_interactive(tmp_path, monkeypatch, capsys):
    code, doc, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "interactive"}},
        "--trace", stdin="2\n", monkeypatch=monkeypatch)
    assert code == 0
    err = capsys.readouterr().err
    assert "alpha=[3,1] beta=[1,2]" in err
    assert doc["payload"]["relation"] == "ge"
    assert doc["trace"] == [{"J": [1, 2], "j": 2}]


def test_game_play_eof_mid_game_keeps_partial_trace(tmp_path, monkeypatch):
    code, doc, _ = run_cli(
        tmp_path, ["game", "play"],
        {"vectors": [[2, 0], [0, 3], [1, 1]]},
        stdin="2\n", monkeypatch=monkeypatch)
    assert code == 4
    assert doc["trace"] == [{"J": [1, 2], "j": 2}]


def test_interactive_round_lines(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        tmp_path, ["compare"],
        {"alpha": [3, 1], "beta": [1, 2], "adversary": {"kind": "interactive"}},
        stdin="1\n2\n", monkeypatch=monkeypatch)
    assert code == 0
    assert capsys.readouterr().err == (
        "round 1: alpha=[3,1] beta=[1,2] J={1,2}\nchoose j in {1,2}: "
        "round 2: alpha=[4,1] beta=[3,2] J={1,2}\nchoose j in {1,2}: ")

    code, _, _ = run_cli(
        tmp_path, ["game", "play"], {"vectors": [[2, 0], [0, 3], [1, 1]]},
        stdin="2\n1\n1\n", monkeypatch=monkeypatch)
    assert code == 0
    assert capsys.readouterr().err == (
        "round 1: vectors [2,0] [0,3] [1,1]; champion #0 [2,0]; J={1,2}\n"
        "choose j in {1,2}: "
        "round 2: vectors [2,2] [0,3] [1,2]; champion #0 [2,2]; J={1,2}\n"
        "choose j in {1,2}: "
        "round 3: vectors [4,2] [3,3] [3,2]; champion #0 [4,2]; J={1,2}\n"
        "choose j in {1,2}: won after 3 round(s): winner #2 [5,2]\n")

    code, _, _ = run_cli(
        tmp_path, ["game", "play"], {"vectors": [[3, 3], [1, 1], [2, 0]]},
        stdin="1\n", monkeypatch=monkeypatch)
    assert code == 0
    assert capsys.readouterr().err == (
        "round 1: vectors [3,3] [1,1] [2,0]; champion #1 [1,1]; J={1,2}\n"
        "choose j in {1,2}: won after 1 round(s): winner #2 [2,0]\n")


def test_champion_moves_during_play(monkeypatch, capsys):
    job = '{"vectors":[[0,2],[1,1],[3,0]]}\n1\n1\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(["game", "play", "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out == (
        '{"diagnostics":[],"payload":{"final_vectors":[[4,2],[3,1],[3,0]],"rou'
        'nds":2,"winner_index":2},"schema_version":1,"status":"ok","trace":[{"'
        'J":[1,2],"j":1},{"J":[1,2],"j":1}]}\n')
    assert err == (
        "round 1: vectors [0,2] [1,1] [3,0]; champion #0 [0,2]; J={1,2}\n"
        "choose j in {1,2}: "
        "round 2: vectors [2,2] [2,1] [3,0]; champion #1 [2,1]; J={1,2}\n"
        "choose j in {1,2}: won after 2 round(s): winner #2 [3,0]\n")


@pytest.mark.parametrize("argv, job", [
    (["compare"], {"alpha": [10 ** 17, 1, 0], "beta": [0, 0, 1]}),
    (["game", "solve"], {"vectors": [[10 ** 17, 1, 0], [0, 0, 1]]}),
])
def test_rounds_beyond_a_double_are_a_decimal_string(argv, job, monkeypatch,
                                                     capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    assert main(argv + ["--step-limit", str(10 ** 18)]) == 0
    out = capsys.readouterr().out
    assert '"rounds":"100000000000000001"' in out
    assert json.loads(out)["payload"]["rounds"] == str(10 ** 17 + 1)


# 572,584,197,702,814,508,129 rounds (about 2^69) in two runs
PAST_A_WORD = ('{"alpha":[3435507337509639330305,0,2151282967170019],'
               '"beta":[12266223833,6,2481112314]}')


@pytest.mark.parametrize("extra, code, key, value", [
    ([], 0, "payload", {
        "final_alpha": ["3435507337509639330305", 2151282967170019,
                        2151282967170019],
        "final_beta": ["3435505186229153272601", 2481112320, 2481112314],
        "matrix": [[1, "572584197702814508128", 0], [0, 1, 1], [0, 0, 1]],
        "relation": "ge", "rounds": "572584197702814508129"}),
    (["--trace"], 1, "diagnostics", [
        "cannot write the result: the trace of 572584197702814508129 rounds "
        "is too large to encode"]),
], ids=["rounds", "trace"])
def test_rounds_past_a_machine_word(extra, code, key, value, monkeypatch,
                                    capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(PAST_A_WORD))
    assert main(["compare", "--step-limit", str(10 ** 23), *extra]) == code
    out = capsys.readouterr().out
    assert_one_document(code, out)
    assert json.loads(out)[key] == value


# a trace of billions of rounds cannot be expanded in 1 GiB; main runs in a
# child process of its own under that address-space limit
MEMORY_CAPPED_MAIN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from perron.cli import main
sys.exit(main(sys.argv[1:]))
"""
BILLIONS = '{"alpha":[299857033,11,3],"beta":[7218397668,1132981884,1]}'


@pytest.mark.parametrize("extra, code, diagnostics", [
    (["--step-limit", "4000000000"], 3,
     ["pair not comparable within 4000000000 steps",
      "the trace of 4000000000 rounds is too large to encode; it is left out"]),
    (["--step-limit", "5000000000", "--trace"], 1,
     ["cannot write the result: the trace of 4025761255 rounds is too large "
      "to encode"]),
])
def test_trace_too_large_to_encode_is_left_out(extra, code, diagnostics):
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CAPPED_MAIN, "compare", *extra],
        input=BILLIONS, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert_one_document(code, proc.stdout)
    doc = json.loads(proc.stdout)
    assert doc["diagnostics"] == diagnostics
    assert "trace" not in doc and doc["payload"] is None


def _unencodable(steps):
    raise OverflowError("the trace text is past sys.maxsize")


@pytest.mark.parametrize("argv, stdin, code, diagnostics", [
    (["positivize", "--step-limit", "4"],
     '{"generator_images":[["1","0"],["1/7","1"]],"elements":[[9,-40]]}', 3,
     ["pair not comparable within 4 steps",
      "the trace of 4 rounds is too large to encode; it is left out"]),
    (["game", "play"], '{"vectors":[[2,0],[0,3],[1,1]]}\n2\n', 4,
     ["end of input during interactive choice",
      "the trace of 1 rounds is too large to encode; it is left out"]),
], ids=["step-limit", "aborted"])
def test_an_error_whose_trace_cannot_be_encoded_keeps_its_code(
        argv, stdin, code, diagnostics, monkeypatch, capsys):
    """An error document whose trace fails to encode is written once,
    without the trace, and its diagnostics say why."""
    monkeypatch.setattr(perron.cli, "_encode_trace", _unencodable)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == code
    out = capsys.readouterr().out
    assert_one_document(code, out)
    doc = json.loads(out)
    assert doc["diagnostics"] == diagnostics
    assert "trace" not in doc and doc["payload"] is None


@st.composite
def run_traces(draw, max_dim=4, max_runs=4):
    """A Trace of one-step runs and commuting blocks, m up to 10^4; may be empty.
    In a block, each step's J is its own j plus indices no step writes, so
    the steps commute."""
    n = draw(st.integers(2, max_dim))
    trace = Trace()
    for _ in range(draw(st.integers(0, max_runs))):
        writers = draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1,
                                unique=True))
        readers = [i for i in range(1, n + 1) if i not in writers]
        block = [Step({j, *draw(st.sets(st.sampled_from(readers)))}, j, n)
                 for j in writers]
        trace.add_run(block, draw(st.integers(1, 10 ** 4)))
    return trace


@settings(max_examples=60)
@given(run_traces(), st.sampled_from(["ok", "error"]))
@example(Trace(), "error")
@example(Trace([((Step({1, 2}, 1, 2),), 10 ** 4)]), "ok")
@example(Trace([((Step({1, 3}, 1, 3), Step({2, 3}, 2, 3)), 7)]), "error")
def test_trace_text_is_the_encoders_bytes(trace, status):
    doc = {"schema_version": 1, "status": status, "payload": None,
           "diagnostics": ["d"] if status == "error" else []}
    expanded = [{"J": sorted(s.J), "j": s.j} for s in trace]
    out = io.StringIO()
    with redirect_stdout(out):
        assert perron.cli._write_document(argparse.Namespace(output="-"),
                                          dict(doc), 3, trace) == 3
    assert out.getvalue() == json.dumps(dict(doc, trace=expanded), sort_keys=True,
                                        separators=(",", ":")) + "\n"


def assert_malformed(argv, tmp_path, fragment):
    out = tmp_path / "result.json"
    assert main(argv + ["--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["status"] == "error"
    assert doc["payload"] is None
    assert fragment in doc["diagnostics"][0]


def test_missing_input_is_exit_1(tmp_path):
    missing = str(tmp_path / "no-such-job.json")
    assert_malformed(["compare", "--input", missing], tmp_path, "cannot read input")


def test_directory_input_is_exit_1(tmp_path):
    assert_malformed(["compare", "--input", str(tmp_path)], tmp_path,
                     "cannot read input")


def test_non_utf8_input_is_exit_1(tmp_path):
    inp = tmp_path / "job.json"
    inp.write_bytes(b'{"alpha": [1], "beta": [2], "name": "\xff\xfe"}')
    assert_malformed(["compare", "--input", str(inp)], tmp_path,
                     "cannot read input")


@pytest.mark.parametrize("argv, job", [
    (["compare", "--trace"], b'{"alpha":[3,1],"beta":[1,2]}'),
    (["positivize", "--trace"],
     b'{"generator_images":[["1","0"],["1/7","1"]],"elements":[[9,-40]]}'),
    (["game", "play"], b'{"vectors":[[0,2],[1,1],[3,0]]}\n1\n1\n'),
], ids=["compare", "positivize", "play"])
def test_a_byte_order_mark_is_skipped(argv, job, tmp_path):
    """RFC 8259 8.1 lets a parser ignore one leading U+FEFF: a job saved with
    it gives the same bytes as the job without it, on stdin and from a file."""
    bom = "\ufeff".encode()
    plain = run_on_stdin(argv, job)
    assert plain[0] == 0
    assert run_on_stdin(argv, bom + job) == plain
    if argv[0] != "game":  # play reads its choices from stdin, not the file
        inp = tmp_path / "job.json"
        for data in (job, bom + job):
            inp.write_bytes(data)
            assert run_on_stdin(argv + ["--input", str(inp)], b"") == plain
    # only one mark is dropped: a second one is not JSON
    assert run_on_stdin(argv, bom + bom + job)[0] == 1


def test_deeply_nested_json_is_exit_1(tmp_path):
    inp = tmp_path / "job.json"
    inp.write_text("[" * 100000)
    assert_malformed(["compare", "--input", str(inp)], tmp_path, "nested too deeply")


def test_output_into_missing_directory_is_exit_1(tmp_path, capsys):
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({"alpha": [3, 1], "beta": [1, 2]}))
    out = tmp_path / "no-such-dir" / "result.json"
    assert main(["compare", "--input", str(inp), "--output", str(out)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error"
    assert doc["payload"] is None
    assert "cannot write output" in doc["diagnostics"][0]
    assert not out.exists()


# 5000 digits: past Python's default limit of 4300 on int/str conversion
NINES = "9" * 5000


def assert_nines_round_trip(tmp_path, entry):
    """compare on a job whose first entry is 5000 nines, written as `entry`."""
    inp, out = tmp_path / "job.json", tmp_path / "result.json"
    inp.write_text('{"alpha": [%s, 1], "beta": [1, 2], '
                   '"adversary": {"kind": "scripted", "choices": [2]}}' % entry)
    assert main(["compare", "--input", str(inp), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    # j=2 sums both coordinates into the second slot: 10^5000, 5001 digits
    assert doc["payload"]["final_alpha"] == [NINES, "1" + "0" * 5000]
    assert doc["payload"]["final_beta"] == [1, 3]


@pytest.mark.parametrize("entry", [NINES, f'"{NINES}"'],
                         ids=["json-number", "decimal-string"])
def test_5000_digit_integers_round_trip(tmp_path, entry):
    assert_nines_round_trip(tmp_path, entry)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int/str conversion limit")
def test_int_digit_limit_is_restored_after_main(tmp_path):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert_nines_round_trip(tmp_path, NINES)
        assert sys.get_int_max_str_digits() == 1000
    finally:
        sys.set_int_max_str_digits(before)


def test_a_python_without_an_int_digit_limit_runs_the_job(monkeypatch, capsys):
    """Before 3.10.7 sys has no set_int_max_str_digits; main runs the job as it is."""
    job = '{"alpha":[30,33,0],"beta":[0,0,5]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(["compare"]) == 0
    usual = capsys.readouterr().out
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(["compare"]) == 0
    assert capsys.readouterr().out == usual
    assert json.loads(usual)["payload"]["final_beta"] == [30, 35, 5]


# internal errors: exit 5 with one error document ---------------------------

MONOMIAL_JOB = {"num_vars": 2, "num_toric": 2,
                "values": [["1", "0"], ["0", "1"]],
                "polynomial": [{"coeff": "1", "exponents": [1, 0]},
                               {"coeff": "1", "exponents": [0, 1]}]}


def assert_internal_error(tmp_path, capsys, command, job, fragment):
    code, doc, text = run_cli(tmp_path, command, job, "--trace")
    assert code == 5
    assert text.count("\n") == 1 and text.endswith("\n")
    assert doc["status"] == "error"
    assert doc["payload"] is None
    assert doc["diagnostics"] == [fragment]
    assert "trace" not in doc
    assert capsys.readouterr().out == ""


def test_monomialize_factor_that_does_not_divide_is_exit_5(tmp_path, monkeypatch,
                                                          capsys):
    """A substitution that does not match the steps played: the identity
    leaves x1 + x2 as it is, and x2, the value-minimal term, does not divide x1."""
    monkeypatch.setattr("perron.monomials.compose_trace", lambda steps, n: identity_matrix(n))
    assert_internal_error(tmp_path, capsys, ["monomialize"], MONOMIAL_JOB,
                          "factor does not divide the transformed polynomial")


def test_internal_error_from_the_library_is_exit_5(tmp_path, monkeypatch, capsys):
    def broken(basis, scaled, rows, step_limit):
        raise InternalError("transformed basis image is not lex-positive")

    # positivize_all hands its checked, scaled images to the descent
    monkeypatch.setattr("perron.ordered_group._into_cone", broken)
    assert_internal_error(
        tmp_path, capsys, ["positivize"],
        {"generator_images": [["1", "0"], ["0", "1"]], "elements": [[2, -1]]},
        "transformed basis image is not lex-positive")


@pytest.mark.parametrize("error", [1, -1])
def test_a_closed_form_that_disagrees_is_exit_5(tmp_path, monkeypatch, capsys, error):
    """A run length one past the run's end, or one short of it, fails
    _J_rule's confirmation: exit 5 with one error document."""
    closed_form, answers = perron.engine._run_length, []

    def wrong(tests, limit):
        answers.append(closed_form(tests, limit) + error)
        return answers[-1]

    monkeypatch.setattr("perron.engine._run_length", wrong)
    job = {"alpha": [299857033, 11, 3], "beta": [7218397668, 1132981884, 1]}
    code, doc, text = run_cli(tmp_path, ["compare"], job)
    assert code == 5 and text.count("\n") == 1
    assert doc["status"] == "error" and doc["payload"] is None
    assert doc["diagnostics"] == [
        f"closed-form run length {answers[-1]} disagrees with _J_rule"]
    assert capsys.readouterr().out == ""


# golden --trace bytes: the trace encoder reads runs, and what it prints is
# fixed byte for byte ---------------------------------------------------------

GOLDEN_TRACES = [
    (['compare', '--trace'],
     '{"alpha":[30,33,0],"beta":[0,0,5]}',
     0,
     '{"diagnostics":[],"payload":{"final_alpha":[30,33,0],"final_beta":[30,35'
     ',5],"matrix":[[1,0,6],[0,1,7],[0,0,1]],"relation":"le","rounds":13},"sch'
     'ema_version":1,"status":"ok","trace":[{"J":[2,3],"j":2},{"J":[1,3],"j":1'
     '},{"J":[2,3],"j":2},{"J":[1,3],"j":1},{"J":[2,3],"j":2},{"J":[1,3],"j":1'
     '},{"J":[2,3],"j":2},{"J":[1,3],"j":1},{"J":[2,3],"j":2},{"J":[1,3],"j":1'
     '},{"J":[2,3],"j":2},{"J":[1,3],"j":1},{"J":[2,3],"j":2}]}\n'),
    (['game', 'solve', '--trace'],
     '{"vectors":[[7,0,2],[0,3,1],[2,2,0]]}',
     0,
     '{"diagnostics":[],"payload":{"final_vectors":[[11,6,2],[11,6,1],[8,2,0]]'
     ',"rounds":7,"winner_index":2},"schema_version":1,"status":"ok","trace":['
     '{"J":[1,2],"j":1},{"J":[1,2],"j":1},{"J":[1,2,3],"j":1},{"J":[2,3],"j":2'
     '},{"J":[2,3],"j":2},{"J":[1,3],"j":1},{"J":[2,3],"j":2}]}\n'),
    (['positivize', '--trace'],
     '{"generator_images":[["1","0"],["1/7","1"]],"elements":[[9,-40],[-2,20]]}',
     0,
     '{"diagnostics":[],"payload":{"basis_images":[["1/7","-6"],["0","7"]],"ba'
     'sis_in_original":[[1,-6],[-1,7]],"coords":[[23,14],[6,8]]},"schema_versi'
     'on":1,"status":"ok","trace":[{"J":[1,2],"j":2},{"J":[1,2],"j":2},{"J":[1'
     ',2],"j":2},{"J":[1,2],"j":2},{"J":[1,2],"j":2},{"J":[1,2],"j":2},{"J":[1'
     ',2],"j":1}]}\n'),
    (['monomialize', '--trace'],
     '{"num_vars":2,"num_toric":2,"values":[["1","0"],["5","1"]],'
     '"polynomial":[{"coeff":"1","exponents":[0,1]},'
     '{"coeff":"-2/3","exponents":[6,0]}]}',
     0,
     '{"diagnostics":[],"payload":{"factor_exponents":[5,6],"new_values":[["1"'
     ',"-1"],["0","1"]],"substitution":[[1,1],[5,6]],"unit":[{"coeff":"1","exp'
     'onents":[0,0]},{"coeff":"-2/3","exponents":[1,0]}]},"schema_version":1,"'
     'status":"ok","trace":[{"J":[1,2],"j":1},{"J":[1,2],"j":1},{"J":[1,2],"j"'
     ':1},{"J":[1,2],"j":1},{"J":[1,2],"j":1},{"J":[1,2],"j":2}]}\n'),
    (['compare', '--trace', '--step-limit', '7'],
     '{"alpha":[30,0],"beta":[0,1]}',
     3,
     '{"diagnostics":["pair not comparable within 7 steps"],"payload":null,"sc'
     'hema_version":1,"status":"error","trace":[{"J":[1,2],"j":1},{"J":[1,2],"'
     'j":1},{"J":[1,2],"j":1},{"J":[1,2],"j":1},{"J":[1,2],"j":1},{"J":[1,2],"'
     'j":1},{"J":[1,2],"j":1}]}\n'),
]


@pytest.mark.parametrize("argv, job, code, stdout", GOLDEN_TRACES)
def test_trace_documents_are_byte_identical(argv, job, code, stdout,
                                            monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


# fuzz: every input gives one document and a documented exit code -----------

FUZZ_COMMANDS = {
    "compare": ["compare", "--step-limit", "200"],
    "game solve": ["game", "solve", "--step-limit", "200"],
    "game play": ["game", "play"],
    "positivize": ["positivize", "--step-limit", "200"],
    "monomialize": ["monomialize"],
}


def run_on_stdin(argv, data: bytes):
    """In-process main with stdin fed from bytes; returns (code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def assert_one_document(code, text):
    assert code in {0, 1, 2, 3, 4, 5}
    assert text.count("\n") == 1 and text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["status"] == ("ok" if code == 0 else "error")


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=8),
    st.sampled_from(["1/2", "-3", "0", "x", "1/0", "12"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=12)


@settings(max_examples=150)
@given(st.sampled_from(sorted(FUZZ_COMMANDS)),
       st.one_of(st.binary(max_size=120),
                 st.tuples(json_values, st.binary(max_size=20)).map(
                     lambda t: json.dumps(t[0]).encode() + t[1])))
def test_fuzz_arbitrary_stdin_bytes(command, data):
    assert_one_document(*run_on_stdin(FUZZ_COMMANDS[command], data))


JOB_KEYS = {
    "compare": ["alpha", "beta", "adversary"],
    "game solve": ["vectors", "adversary"],
    "game play": ["vectors", "adversary"],
    "positivize": ["generator_images", "elements"],
    "monomialize": ["num_vars", "num_toric", "values", "polynomial"],
}
ADVERSARY_KINDS = ["first", "max_growth", "random", "scripted", "interactive"]
small_entries = st.one_of(st.integers(-2, 5), st.sampled_from(["1/2", "-1", "3"]))
# near-valid shapes reach the validation behind the type checks
shaped_values = st.one_of(
    small_entries,
    st.lists(small_entries, min_size=1, max_size=3),
    st.lists(st.lists(small_entries, min_size=1, max_size=3),
             min_size=1, max_size=3))


@st.composite
def structured_jobs(draw):
    """A command and a job with its valid keys holding values of any type."""
    command = draw(st.sampled_from(sorted(JOB_KEYS)))
    job = {}
    for key in JOB_KEYS[command]:
        if draw(st.integers(0, 5)) == 0:
            continue
        if key == "adversary" and draw(st.booleans()):
            value = {"kind": draw(st.sampled_from(ADVERSARY_KINDS)),
                     "seed": draw(json_values), "choices": draw(json_values)}
        elif key == "polynomial" and draw(st.booleans()):
            value = [{"coeff": draw(json_values), "exponents": draw(json_values)}
                     for _ in range(draw(st.integers(0, 3)))]
        else:
            value = draw(st.one_of(json_values, shaped_values))
        job[key] = value
    if draw(st.booleans()):
        job["schema_version"] = draw(st.one_of(st.just(1), json_scalars))
    return command, json.dumps(job).encode()


@settings(max_examples=150)
@given(structured_jobs())
def test_fuzz_wrong_typed_job_values(case):
    command, data = case
    assert_one_document(*run_on_stdin(FUZZ_COMMANDS[command], data))


def wide(lo):
    """Integers from lo up, small or up to 2^70, as numbers or strings."""
    ints = st.one_of(st.integers(lo, 9), st.integers(lo * 2 ** 70, 2 ** 70))
    return st.one_of(ints, ints.map(str))


positive_rationals = st.one_of(
    wide(1), st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 2 ** 70),
                       st.integers(1, 2 ** 70)))
bad_entries = st.one_of(json_scalars, st.sampled_from(
    ["1/0", "x", "1e5", "1.5.2", "+", " ", "1//2", "", "--1", "0x10", "nan"]))


@st.composite
def rows(draw, entries, count, width):
    """count rows of width entries; sometimes one row is ragged."""
    out = [[draw(entries) for _ in range(width)] for _ in range(count)]
    if draw(st.integers(0, 4)) == 0:
        out[draw(st.integers(0, count - 1))].append(draw(entries))
    return out


@st.composite
def near_valid_jobs(draw):
    """A job of the command's shape, with entries up to 2^70 in its rows and
    any adversary descriptor.  Some rows are ragged; in some jobs a third of
    the entries are of a wrong type or bad rationals, and some jobs have a
    field of another type or a field left out."""
    command = draw(st.sampled_from(sorted(JOB_KEYS)))
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dirty = draw(st.booleans())

    def entries(good):
        return st.one_of(good, good, bad_entries) if dirty else good

    if command == "compare":
        job = {"alpha": draw(rows(entries(wide(0)), 1, n))[0],
               "beta": draw(rows(entries(wide(0)), 1, n))[0]}
    elif command.startswith("game"):
        job = {"vectors": draw(rows(entries(wide(0)), k, n))}
    elif command == "positivize":
        job = {"generator_images": draw(rows(entries(positive_rationals), n, n)),
               "elements": draw(rows(entries(wide(-1)), k, n))}
    else:
        m = n + draw(st.integers(0, 1))
        job = {"num_vars": m, "num_toric": n,
               "values": draw(rows(entries(positive_rationals), m, n)),
               "polynomial": [{"coeff": draw(entries(positive_rationals)),
                               "exponents": draw(rows(entries(wide(0)), 1, m))[0]}
                              for _ in range(k)]}
    job["adversary"] = {"kind": draw(st.sampled_from(ADVERSARY_KINDS)),
                        "seed": draw(entries(wide(0))),
                        "choices": draw(st.lists(entries(wide(0)), max_size=4))}
    key = draw(st.sampled_from(sorted(job)))
    mutation = draw(st.integers(0, 5))
    if mutation == 0:
        job[key] = draw(json_values)
    elif mutation == 1:
        del job[key]
    return command, job


@settings(max_examples=200)
@given(st.one_of(near_valid_jobs(),
                 st.tuples(st.sampled_from(sorted(FUZZ_COMMANDS)), json_values)),
       st.booleans())
def test_fuzz_near_valid_jobs_with_and_without_trace(case, trace):
    """Any document on every subcommand, with or without --trace: one result
    document and a documented exit code."""
    command, job = case
    # the last --step-limit wins: it bounds monomialize's rounds too
    argv = [*FUZZ_COMMANDS[command], "--step-limit", "200"] + (["--trace"] if trace else [])
    assert_one_document(*run_on_stdin(argv, json.dumps(job).encode()))


# one parser per process: calls share it and leave nothing behind ------------

SEEDED_JOB = '{"alpha":[8,0,3],"beta":[2,5,1],"adversary":{"kind":"random","seed":123}}'
SEED_5_STDOUT = (
    '{"diagnostics":[],"payload":{"final_alpha":[8,8,3],"final_beta":[2,7,1],'
    '"matrix":[[1,0,0],[1,1,0],[0,0,1]],"relation":"ge","rounds":1},"schema_v'
    'ersion":1,"status":"ok","trace":[{"J":[1,2],"j":2}]}\n')
SEED_123_STDOUT = (
    '{"diagnostics":[],"payload":{"final_alpha":[8,14,3],"final_beta":[7,14,1'
    '],"matrix":[[1,1,0],[1,2,2],[0,0,1]],"relation":"ge","rounds":3},"schema'
    '_version":1,"status":"ok","trace":[{"J":[1,2],"j":1},{"J":[1,2,3],"j":2}'
    ',{"J":[2,3],"j":2}]}\n')


def test_parser_is_not_rebuilt_per_call(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, job, code, stdout in GOLDEN_TRACES[:3]:
        monkeypatch.setattr("sys.stdin", io.StringIO(job))
        assert main(argv) == code
        assert capsys.readouterr().out == stdout
    assert built == []


def test_golden_traces_back_to_back_in_one_process(tmp_path, monkeypatch,
                                                   capsys):
    def check(argv, job, code, stdout):
        monkeypatch.setattr("sys.stdin", io.StringIO(job))
        assert main(argv) == code
        assert capsys.readouterr().out == stdout

    def unwritable_output():
        out = str(tmp_path / "no-such-dir" / "result.json")
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_TRACES[0][1]))
        assert main(["compare", "--trace", "--output", out]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "error"
        assert "cannot write output" in doc["diagnostics"][0]

    for case in GOLDEN_TRACES:
        check(*case)
    unwritable_output()
    check(["compare", "--trace", "--seed", "5"], SEEDED_JOB, 0, SEED_5_STDOUT)
    check(["compare", "--trace"], SEEDED_JOB, 0, SEED_123_STDOUT)
    for case in reversed(GOLDEN_TRACES):
        check(*case)
    check(["compare", "--trace", "--seed", "5"], SEEDED_JOB, 0, SEED_5_STDOUT)
    unwritable_output()
    for case in GOLDEN_TRACES:
        check(*case)
    check(["compare", "--trace"], SEEDED_JOB, 0, SEED_123_STDOUT)


# usage errors keep the one-document promise ----------------------------------

@pytest.mark.parametrize("argv, fragment", [
    (["compare", "--bogus"], "unrecognized arguments: --bogus"),
    (["compare", "--step-limit", "abc"], "argument --step-limit"),
    ([], "required: command"),
    (["game"], "required: game_mode"),
    (["positivize", "--step-limit", "-5"], "not a non-negative integer: '-5'"),
], ids=["unknown-flag", "step-limit-abc", "no-subcommand", "game-no-mode",
        "negative-step-limit"])
def test_usage_error_is_one_error_document(argv, fragment, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"alpha":[3,1],"beta":[1,2]}'))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_one_document(1, captured.out)
    doc = json.loads(captured.out)
    assert doc["payload"] is None and "trace" not in doc
    assert fragment in doc["diagnostics"][0]
    assert captured.err.startswith("usage: perron")


# the argv parser against the argparse parser it replaced ---------------------

class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise MalformedInput(f"{self.prog}: {message}")


def _oracle_step_limit(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return limit


def _add_subcommand(sub, name, help_text, handler):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--input", default="-", metavar="PATH",
                   help="job document path, or - for stdin (default)")
    p.add_argument("--output", default="-", metavar="PATH",
                   help="result document path, or - for stdout (default)")
    p.add_argument("--trace", action="store_true",
                   help="include the step trace in the result document")
    p.add_argument("--seed", type=int, default=None, metavar="U64",
                   help="override the random adversary's seed")
    p.add_argument("--step-limit", type=_oracle_step_limit, default=1_000_000,
                   dest="step_limit", metavar="N",
                   help="safety valve on the number of rounds (default 10^6)")
    p.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser before it was table-driven: the oracle of its grammar,
    help text and usage errors."""
    cli = perron.cli
    parser = _OracleParser(
        prog="perron",
        description="Exact unimodular descent transforms: pair comparability, "
                    "the polyhedra game, positive cones, monomialization.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "compare", "make a pair of vectors comparable",
                    cli._cmd_compare)
    game = sub.add_parser("game", help="the polyhedra game")
    game_sub = game.add_subparsers(dest="game_mode", required=True)
    _add_subcommand(game_sub, "solve", "play out the winning strategy",
                    partial(cli._cmd_game, mode="solve"))
    _add_subcommand(game_sub, "play", "interactive: you pick each j",
                    partial(cli._cmd_game, mode="play"))
    _add_subcommand(sub, "positivize",
                    "give group elements non-negative coordinates",
                    cli._cmd_positivize)
    _add_subcommand(sub, "monomialize",
                    "factor a polynomial as monomial times unit",
                    cli._cmd_monomialize)
    return parser


ORACLE = _build_parser()
FIELDS = ("input", "output", "trace", "seed", "step_limit", "handler")


def parsed(parse, argv):
    """(outcome, stdout, stderr) of one parse at 80 columns; the outcome is
    the fields, the usage error's message or the exit code."""
    def field(args, name):
        value = getattr(args, name)
        if isinstance(value, partial):  # equal partials are distinct objects
            return value.func, value.args, value.keywords
        return value

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(list(argv))
        outcome = ("ok", [field(args, name) for name in FIELDS])
    except MalformedInput as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return outcome, out.getvalue(), err.getvalue()


OPTION_NAMES = ["--input", "--output", "--trace", "--seed", "--step-limit"]
VALUES = ["-", "--", "-5", "-1.5", "-.5", "-5.", "5", "0", "+4", " 7 ",
          "1_000", "0x10", "\u0663", "-5\n", str(10 ** 23), "abc", "", "x y",
          "a=b", "-x", "-h"]
options = st.sampled_from(OPTION_NAMES).flatmap(
    lambda name: st.integers(3, len(name)).map(lambda k: name[:k]))
numbers = st.sampled_from(["0", "5", "-5", "12", " 7 ", "1_000", "\u0663"])
values = numbers | st.sampled_from(VALUES) | st.text(max_size=4)
# "--opt=--" is left out: argparse stored [] for it, which crashed the job
joined = st.tuples(options, st.sampled_from(VALUES[:1] + VALUES[2:])).map(
    "=".join)
junk = st.sampled_from(
    ["compare", "game", "solve", "play", "Compare", "gam", "--", "-h",
     "--help", "--he", "-hh", "-hx", "-h=h", "-h=", "--bogus", "---", "--=x",
     "-=x", "-i"]) | st.text(max_size=4)
items = st.one_of(st.tuples(options, numbers).map(list),
                  st.tuples(options, values).map(list),
                  options.map(lambda o: [o]), joined.map(lambda t: [t]),
                  junk.map(lambda t: [t]))
# a command path, with a junk token before it at times, then options
argvs = st.tuples(
    st.lists(junk, max_size=1),
    st.sampled_from([[], ["compare"], ["game"], ["game", "solve"],
                     ["game", "play"], ["positivize"], ["monomialize"]]),
    st.lists(items, max_size=4)).map(
        lambda t: t[0] + t[1] + [token for item in t[2] for token in item])


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse 3.13 reads -h with trailing characters "
                           "(-hx, -h=h) otherwise; the CLI keeps the grammar "
                           "it had on 3.10-3.12")
@settings(max_examples=400, deadline=None)
@given(argvs)
def test_argv_parser_matches_argparse(argv):
    expected = parsed(ORACLE.parse_args, argv)
    assert parsed(perron.cli._parse_args, argv) == expected
    if expected[0][0] == "error":
        code, out, err = run_main(argv)
        assert code == 1
        assert_one_document(1, out)
        assert json.loads(out)["diagnostics"] == [expected[0][1]]
        assert err.startswith("usage: perron")


def run_main(argv):
    """main on argv with no job: (code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


# each diagnostic as argparse wrote it on 3.10-3.12, which the CLI keeps;
# from 3.13.13 on, argparse writes the choices without quotes
@pytest.mark.parametrize("argv, diagnostic", [
    (["compare", "--bogus"], "perron: unrecognized arguments: --bogus"),
    (["compare", "--step-limit", "abc"],
     "perron compare: argument --step-limit: not a non-negative integer: 'abc'"),
    ([], "perron: the following arguments are required: command"),
    (["game"], "perron game: the following arguments are required: game_mode"),
    (["positivize", "--step-limit", "-5"],
     "perron positivize: argument --step-limit: not a non-negative integer: '-5'"),
    (["comparee"], "perron: argument command: invalid choice: 'comparee' "
                   "(choose from 'compare', 'game', 'positivize', 'monomialize')"),
    (["compare", "--seed"], "perron compare: argument --seed: expected one argument"),
    (["game", "solve", "--s", "5"],
     "perron game solve: ambiguous option: --s could match --seed, --step-limit"),
], ids=["unknown-flag", "step-limit-abc", "no-subcommand", "game-no-mode",
        "negative-step-limit", "invalid-subcommand", "missing-value",
        "ambiguous-prefix"])
def test_usage_error_diagnostics_match_argparse(argv, diagnostic):
    outcome, out, err = parsed(perron.cli._parse_args, argv)
    assert outcome == ("error", diagnostic) and err.startswith("usage: perron")
    if sys.version_info < (3, 13):
        assert parsed(ORACLE.parse_args, argv) == (outcome, out, err)
    code, out, err_main = run_main(argv)
    assert code == 1 and json.loads(out)["diagnostics"] == [diagnostic]
    assert err_main == err


@pytest.mark.parametrize("argv, fields", [
    (["compare", "--step", "5"], {"step_limit": 5}),
    (["game", "solve", "--st=7", "--inp=-", "--tr"],
     {"step_limit": 7, "input": "-", "trace": True}),
    (["positivize", "--seed", "-5", "--seed", "3", "--out", "-x y"],
     {"seed": 3, "output": "-x y"}),
    (["monomialize", "--input", "-5", "--output", "-"],
     {"input": "-5", "output": "-"}),
], ids=["abbreviation", "equals-forms", "last-repeat-wins", "dash-values"])
def test_argv_grammar(argv, fields):
    args = perron.cli._parse_args(argv)
    assert {name: getattr(args, name) for name in fields} == fields
    if sys.version_info < (3, 13):
        assert parsed(perron.cli._parse_args, argv) == parsed(ORACLE.parse_args, argv)


@pytest.mark.parametrize("flag, fragment", [
    ("--step-limit=--", "argument --step-limit: not a non-negative integer: '--'"),
    ("--seed=--", "argument --seed: invalid int value: '--'"),
    ("--input=--", "cannot read input"),
])
def test_double_dash_after_equals_is_a_plain_value(flag, fragment, tmp_path,
                                                   monkeypatch, capsys):
    # argparse stored [] here, and the job then died in a traceback
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(SEEDED_JOB))
    assert main(["compare", flag]) == 1
    out = capsys.readouterr().out
    assert_one_document(1, out)
    assert fragment in json.loads(out)["diagnostics"][0]


# --step-limit bounds the whole job ------------------------------------------

POSITIVIZE_TWO = ('{"generator_images":[["1","0"],["1/7","1"]],'
                  '"elements":[[9,-40],[-2,20]]}')
MONOMIALIZE_THREE = (
    '{"num_vars":2,"num_toric":2,"values":[["1","0"],["15","1"]],'
    '"polynomial":[{"coeff":"1","exponents":[12,1]},'
    '{"coeff":"1","exponents":[4,2]},{"coeff":"1","exponents":[2,3]}]}')


# positivize: 5 + 2 rounds over its two elements; monomialize: 8 rounds over
# two value differences, at most 5 in either
@pytest.mark.parametrize("command, job, limit", [
    (["positivize"], POSITIVIZE_TWO, 5),
    (["positivize"], POSITIVIZE_TWO, 6),
    (["monomialize"], MONOMIALIZE_THREE, 5),
    (["monomialize"], MONOMIALIZE_THREE, 7),
], ids=["positivize-5", "positivize-6", "monomialize-5", "monomialize-7"])
def test_step_limit_bounds_the_whole_job(command, job, limit, monkeypatch,
                                         capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(command + ["--trace"]) == 0
    full = json.loads(capsys.readouterr().out)["trace"]
    assert len(full) > limit

    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(command + ["--step-limit", str(limit)]) == 3
    out = capsys.readouterr().out
    assert_one_document(3, out)
    doc = json.loads(out)
    assert doc["diagnostics"] == [f"pair not comparable within {limit} steps"]
    assert doc["trace"] == full[:limit]


# --help text, captured with COLUMNS=80 -------------------------------------

JOB_OPTIONS = """
options:
  -h, --help      show this help message and exit
  --input PATH    job document path, or - for stdin (default)
  --output PATH   result document path, or - for stdout (default)
  --trace         include the step trace in the result document
  --seed U64      override the random adversary's seed
  --step-limit N  safety valve on the number of rounds (default 10^6)
"""


def job_help(prog):
    pad = " " * len(f"usage: {prog} ")
    return (f"usage: {prog} [-h] [--input PATH] [--output PATH] [--trace]\n"
            f"{pad}[--seed U64] [--step-limit N]\n" + JOB_OPTIONS)


GOLDEN_HELP = {
    "perron": """\
usage: perron [-h] {compare,game,positivize,monomialize} ...

Exact unimodular descent transforms: pair comparability, the polyhedra game,
positive cones, monomialization.

positional arguments:
  {compare,game,positivize,monomialize}
    compare             make a pair of vectors comparable
    game                the polyhedra game
    positivize          give group elements non-negative coordinates
    monomialize         factor a polynomial as monomial times unit

options:
  -h, --help            show this help message and exit
""",
    "perron game": """\
usage: perron game [-h] {solve,play} ...

positional arguments:
  {solve,play}
    solve       play out the winning strategy
    play        interactive: you pick each j

options:
  -h, --help    show this help message and exit
""",
    **{f"perron {name}": job_help(f"perron {name}")
       for name in ("compare", "game solve", "game play", "positivize",
                    "monomialize")},
}


@pytest.mark.parametrize("prog", sorted(GOLDEN_HELP))
def test_help_text_is_unchanged(prog, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):  # the second call reads the same shared parser
        with pytest.raises(SystemExit) as exit_:
            main(prog.split()[1:] + ["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == GOLDEN_HELP[prog]


# group-layer error documents: exact bytes, validated once ---------------------

GOLDEN_ERRORS = [
    (['positivize'],
     '{"generator_images":[["1","0"],["2","0"]],"elements":[[1,0]]}',
     '{"diagnostics":["images not independent: rank 1 < 2"],"payload":null,"s'
     'chema_version":1,"status":"error"}\n'),
    (['positivize'],
     '{"generator_images":[["1","0"],["0","-1"]],"elements":[[1,0]]}',
     '{"diagnostics":["image 2 is not lex-positive"],"payload":null,"schema_ve'
     'rsion":1,"status":"error"}\n'),
    (['positivize', '--trace'],
     '{"generator_images":[["1","0"],["1/7","1"]],"elements":[[9,-40],[-1,3]]}',
     '{"diagnostics":["element 2 is negative"],"payload":null,"schema_version"'
     ':1,"status":"error"}\n'),
    (['monomialize', '--trace'],
     '{"num_vars":3,"num_toric":2,"values":[["1","2"],["1/2","1"],["1","0"]],'
     '"polynomial":[{"coeff":"1","exponents":[1,0,0]},'
     '{"coeff":"1","exponents":[0,1,1]}]}',
     '{"diagnostics":["invalid ring: toric values not independent: rank 1 < 2'
     '"],"payload":null,"schema_version":1,"status":"error"}\n'),
]


@pytest.mark.parametrize("argv, job, stdout", GOLDEN_ERRORS,
                         ids=["dependent-images", "non-positive-image",
                              "negative-element", "dependent-toric-values"])
def test_group_error_documents_are_byte_identical(argv, job, stdout,
                                                  monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(argv) == 2
    assert capsys.readouterr().out == stdout


def _images(*rows):
    return tuple(lexvec(row) for row in rows)


def _positivize(rows, elements):
    """positivize_all on the basis and elements the CLI decodes: the images as
    they are, unchecked, in the identity basis."""
    images = _images(*rows)
    basis = GroupBasis(GroupOrder(images), identity_matrix(len(images)), images)
    return positivize_all(basis, [GroupElement(basis, e) for e in elements])


# one job per invalid value, each with the library call on its decoded input
INVALID_VALUES = {
    "negative-entry": (["compare"], {"alpha": [1, -1], "beta": [0, 1]},
                       lambda: run_pair([1, -1], [0, 1], FirstIndex())),
    "empty-set": (["game", "solve"], {"vectors": []},
                  lambda: solve([], FirstIndex())),
    "ragged-set": (["game", "solve"], {"vectors": [[1], [1, 2]]},
                   lambda: solve([[1], [1, 2]], FirstIndex())),
    "dependent-images": (["positivize"], {
        "generator_images": [["1", "0"], ["2", "0"]], "elements": [[1, 0]]},
        lambda: _positivize([["1", "0"], ["2", "0"]], [[1, 0]])),
    "non-positive-image": (["positivize"], {
        "generator_images": [["1", "0"], ["0", "-1"]], "elements": [[1, 0]]},
        lambda: _positivize([["1", "0"], ["0", "-1"]], [[1, 0]])),
    "zero-polynomial": (["monomialize"], {
        "num_vars": 2, "num_toric": 2, "values": [["1", "0"], ["0", "1"]],
        "polynomial": [{"coeff": "1", "exponents": [1, 0]},
                       {"coeff": "-1", "exponents": [1, 0]}]},
        lambda: monomialize(ValuedRing(2, 2, _images(["1", "0"], ["0", "1"])), {})),
    "dependent-toric-values": (["monomialize"], {
        "num_vars": 2, "num_toric": 2, "values": [["1", "0"], ["2", "0"]],
        "polynomial": [{"coeff": "1", "exponents": [1, 0]}]},
        lambda: monomialize(ValuedRing(2, 2, _images(["1", "0"], ["2", "0"])),
                            {(1, 0): Fraction(1)})),
}


@pytest.mark.parametrize("argv, job, call", INVALID_VALUES.values(), ids=INVALID_VALUES)
def test_the_cli_reports_the_librarys_check(argv, job, call, monkeypatch, capsys):
    """Each value rule lives in the library: the CLI's one diagnostic for an
    invalid value is the library's own ValidationError on the decoded input."""
    with pytest.raises(ValidationError) as err:
        call()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == [str(err.value)]


@pytest.mark.parametrize("argv, job", [
    (["positivize"], GOLDEN_TRACES[2][1]),
    (["monomialize"], GOLDEN_TRACES[3][1]),
], ids=["positivize", "monomialize"])
def test_one_job_checks_its_rank_once(argv, job, monkeypatch, capsys):
    real = perron.transforms._bareiss
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    # orders and rings share one check, in ordered_group
    monkeypatch.setattr(perron.ordered_group, "_bareiss", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert calls == [2]


def high_rank_job(command, n, seed):
    """A seeded job on n generator images (or n toric values) of length n,
    with entries in -9..9 and a positive first entry."""
    rng = random.Random(seed)
    rows = [[str(rng.randint(1, 9))] + [str(rng.randint(-9, 9)) for _ in range(n - 1)]
            for _ in range(n)]
    if command == "positivize":  # first entry >= 10 - 9: a positive element
        return {"generator_images": rows, "elements": [[10, -1] + [0] * (n - 2)]}
    return {"num_vars": n, "num_toric": n, "values": rows,
            "polynomial": [{"coeff": "1", "exponents": [1] + [0] * (n - 1)},
                           {"coeff": "-1", "exponents": [0, 1] + [0] * (n - 2)}]}


@pytest.mark.parametrize("command", ["positivize", "monomialize"])
def test_high_rank_group_jobs_finish_promptly(command):
    """The rank check on 40 rows keeps its entries minors of the input, so a
    job finishes in well under a second, not in hours."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "perron", command],
        input=json.dumps(high_rank_job(command, 40, seed=21)), capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert_one_document(0, proc.stdout)


@pytest.mark.parametrize("argv, job", [
    (["positivize"], GOLDEN_TRACES[2][1]),
    (["monomialize"], GOLDEN_TRACES[3][1]),
], ids=["positivize", "monomialize"])
def test_one_job_scales_its_images_once(argv, job, monkeypatch, capsys):
    """Validation and the descent share one scaled copy of the images."""
    real = perron.ordered_group._scaled
    calls = []

    def counting(vecs):
        calls.append(len(vecs))
        return real(vecs)

    monkeypatch.setattr(perron.ordered_group, "_scaled", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(job))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert calls == [2]


def test_one_monomialize_job_canonicalizes_its_polynomial_once(monkeypatch, capsys):
    """The CLI hands its decoded terms to monomialize, which reads them once."""
    real = perron.monomials.polynomial
    calls = []

    def counting(terms):
        calls.append(terms)
        return real(terms)

    monkeypatch.setattr(perron.monomials, "polynomial", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_TRACES[3][1]))
    assert main(["monomialize"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    assert len(calls) == 1


# Fraction reads "1e10000000" as a ten-million-digit integer
EXPONENT_JOBS = {
    "generator_images": (["positivize"], {
        "generator_images": [["1e10000000"]], "elements": [[1]]}),
    "values": (["monomialize"], {
        "num_vars": 1, "num_toric": 1, "values": [["1E10000000"]],
        "polynomial": [{"coeff": "1", "exponents": [1]}]}),
    "coeff": (["monomialize"], {
        "num_vars": 1, "num_toric": 1, "values": [["1"]],
        "polynomial": [{"coeff": "1e10000000", "exponents": [1]}]}),
}


@pytest.mark.parametrize("field", sorted(EXPONENT_JOBS))
def test_rational_with_an_exponent_is_malformed(field):
    argv, job = EXPONENT_JOBS[field]
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "perron", *argv],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=10)
    assert proc.returncode == 1
    assert_one_document(1, proc.stdout)
    assert "is not a rational: '1" in json.loads(proc.stdout)["diagnostics"][0]


@pytest.mark.parametrize("entry, value", [
    ("3", "3"), ("-3/6", "-1/2"), ("+2", "2"), (" 7/14 ", "1/2"),
    ("1.25", "5/4"), ("-.5", "-1/2"),
])
def test_rational_forms_without_an_exponent_still_read(entry, value,
                                                       monkeypatch, capsys):
    job = {"num_vars": 1, "num_toric": 1, "values": [["1"]],
           "polynomial": [{"coeff": entry, "exponents": [0]}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(job)))
    assert main(["monomialize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["unit"] == [{"coeff": value, "exponents": [0]}]


# the rational reader against the Fraction(str) reader it replaced ----------

def oracle_as_rational(value, what):
    if isinstance(value, bool) or isinstance(value, float):
        raise MalformedInput(f"{what} must be an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value or "E" in value:
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"{what} is not a rational: {value!r}")
    raise MalformedInput(f"{what} must be an integer or a 'p/q' string")


def _read(reader, value):
    try:
        out = reader(value)
    except MalformedInput as exc:
        return f"MalformedInput: {exc}"
    return type(out), out


_digits = st.text("0123456789", min_size=1, max_size=300)
# "-?digits" or "-?digits/digits", the shapes read without Fraction(str)
_plain_rationals = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "-"]), _digits, st.none() | _digits)
# the shapes around them, which Fraction(str) reads or rejects
_near_rationals = st.sampled_from([
    "+2", " 3/4 ", "1.25", ".5", "1_0", "--1", "1/-2", "1/+2", "1/0", "0/0",
    "1e3", "1E3", "-", "/", "1/", "/2", "-/2", "2/3/4", " -3", "3 ", "٣",
    "-٣/٤", "²", "１", "1/٣", "", "0x10", "1.5/2"])


@settings(max_examples=300)
@given(st.one_of(_plain_rationals, _near_rationals,
                 st.text("0123456789-+/ ._eE٣²", max_size=12),
                 st.integers(), st.booleans(), st.floats(), st.none()))
def test_rational_reader_matches_fraction_of_the_string(value):
    """Each input gives the same Fraction, or the same malformed-input
    message, as the reader that sent every string to Fraction."""
    assert _read(lambda v: perron.cli._as_rational(v, "entry", Fraction), value) \
        == _read(lambda v: oracle_as_rational(v, "entry"), value)

"""Command-line surface: subcommands, exit codes, environment knobs."""

from __future__ import annotations

import json

import pytest

from revexp import bisim
from revexp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equivalent(capsys):
    code, out, _ = run(capsys, "check", "--variant", "fb", "a.0 |[]| b.0", "a.b.0 + b.a.0")
    assert code == 0 and "equivalent" in out


def test_check_not_equivalent(capsys):
    code, out, _ = run(capsys, "check", "--variant", "frb", "a.0 |[]| b.0", "a.b.0 + b.a.0")
    assert code == 1 and "not equivalent" in out


def test_check_witness(capsys):
    code, out, _ = run(capsys, "check", "--variant", "fb", "--witness", "a.0 + a.0", "a.0")
    assert code == 0
    assert "{" in out


def test_check_witness_that_fails_its_check_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(bisim, "refine",
                        lambda lts, variant, watch=None: ([0] * lts.num_states, None))
    code, out, err = run(capsys, "check", "--variant", "fb", "--witness", "a.b.0", "a.c.0")
    assert code == 2 and out == ""
    assert err.startswith("error: witness is not a bisimulation: states a.b.0 and a!.b.0")
    # a pair that round 1 separates is answered before refine
    code, out, _ = run(capsys, "check", "--variant", "fb", "--witness", "a.0", "b.0")
    assert code == 1 and out.startswith("not equivalent")


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "--variant", "fb", "a.0 +", "a.0")
    assert code == 2 and "error" in err


def test_check_illformed_error(capsys):
    code, _, err = run(capsys, "check", "--variant", "fb", "a!.0 + b!.0", "a.0")
    assert code == 2 and "error" in err


def test_lts_dot(capsys):
    code, out, _ = run(capsys, "lts", "a.0 |[]| b.0")
    assert code == 0 and out.startswith("digraph lts {")


def test_lts_json_and_brs(capsys):
    code, out, _ = run(capsys, "lts", "a.0 |[]| b.0", "--format", "json", "--brs")
    assert code == 0
    data = json.loads(out)
    assert len(data["states"]) == 5


_BRS_STATES = [
    "<a,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0",
    "<a!,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0",
    "<a,{a}>.<b,{a,b}>.0 + <b!,{b}>.<a,{b,a}>.0",
    "<a!,{a}>.<b!,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0",
    "<a,{a}>.<b,{a,b}>.0 + <b!,{b}>.<a!,{b,a}>.0",
]
# (source, target, proof, fired ready set as displayed)
_BRS_EDGES = [(0, 1, "+l a", ["a"]), (0, 2, "+r b", ["b"]),
              (1, 3, "+l .b", ["a", "b"]), (2, 4, "+r .a", ["b", "a"])]


def test_lts_brs_export_text(capsys):
    # a fired ready set reads as the source state displays it: {b,a} under b
    code, out, _ = run(capsys, "lts", "--brs", "a.0 |[]| b.0")
    assert code == 0
    assert out == "\n".join(
        ["digraph lts {"]
        + [f'  n{sid} [label="{term}"{", shape=doublecircle" if sid == 0 else ""}];'
           for sid, term in enumerate(_BRS_STATES)]
        + [f'  n{src} -> n{dst} [label="{proof} / {{{",".join(ready)}}}"];'
           for src, dst, proof, ready in _BRS_EDGES]
        + ["}", "", ""])
    code, out, _ = run(capsys, "lts", "--brs", "--format", "json", "a.0 |[]| b.0")
    assert code == 0
    assert out == json.dumps({
        "root": 0,
        "states": [{"id": sid, "term": term, "initial": sid == 0}
                   for sid, term in enumerate(_BRS_STATES)],
        "transitions": [{"src": src, "dst": dst, "proof": proof, "ready": ready}
                        for src, dst, proof, ready in _BRS_EDGES],
    }, indent=2) + "\n"


def test_lts_brs_of_a_prefix_free_term(capsys):
    # the encodings of 0 and 0 + 0 are plain terms; their systems read as
    # those of the ready-set build
    for text in ("0", "0 + 0"):
        assert run(capsys, "lts", "--brs", text) == (
            0, f'digraph lts {{\n  n0 [label="{text}", shape=doublecircle];\n}}\n\n', "")
        assert run(capsys, "lts", "--brs", "--format", "json", text) == (0, json.dumps({
            "root": 0,
            "states": [{"id": 0, "term": text, "initial": True}],
            "transitions": [],
        }, indent=2) + "\n", "")


def test_lts_state_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("REVEXP_STATE_CAP", "2")
    code, _, err = run(capsys, "lts", "a.0 |[]| b.0")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_lts_state_cap_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("REVEXP_STATE_CAP", value)
    code, out, err = run(capsys, "lts", "a.0")
    assert code == 2 and out == ""
    assert err == (
        f"error: REVEXP_STATE_CAP must be a positive integer, not {value!r}\n"
    )


def test_encode(capsys):
    # --order lex spells the default: the left operand's executed head first
    for order in ([], ["--order", "lex"]):
        code, out, _ = run(capsys, "encode", "a!.0 |[]| b.0", *order)
        assert code == 0
        assert out.strip() == "<a!,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"


def test_encode_with_order_file(capsys, tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("|r b\n|l a\n", encoding="utf-8")
    code, out, _ = run(capsys, "encode", "a!.0 |[]| b!.0", "--order", f"file:{path}")
    assert code == 0
    assert out.strip() == "<b!,{b}>.<a!,{b,a}>.0 + <a,{a}>.<b,{a,b}>.0"


@pytest.mark.parametrize("process,lines,error", [
    # c follows the a it comes before
    ("a!.c!.0 |[]| b!.0", ["|l . c", "|r b", "|l a"],
     "1: |l .c is not a step of a.c.0 |[]| b.0"),
    ("a!.0 |[]| b!.0", ["|r b", "|l a", "|l a"], "3: |l a is not a step of a!.0 |[]| b!.0"),
    ("a!.0 |[]| b!.0", ["|r b", "|l a", "|l z"], "3: |l z is not a step of a!.0 |[]| b!.0"),
    ("a!.0", [], "the order file ends at a.0, not at a!.0"),
], ids=["out of order", "duplicated", "no such occurrence", "empty"])
def test_an_order_file_that_is_not_a_history_is_refused(capsys, tmp_path, process,
                                                          lines, error):
    path = tmp_path / "order.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out, err = run(capsys, "encode", process, "--order", f"file:{path}")
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_an_order_file_error_gives_the_line_and_column(capsys, tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("|r b\n\n|r <a, b\n  |l a  x\n", encoding="utf-8")
    code, out, err = run(capsys, "encode", "a!.0 |[]| b!.0", "--order", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == "error: 3:9: expected '>' closing synchronization proof\n"
    path.write_text("|r b\n  |l a  x\n", encoding="utf-8")
    code, out, err = run(capsys, "encode", "a!.0 |[]| b!.0", "--order", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == "error: 2:9: trailing input in proof term: ['x']\n"


def test_encode_unicode(capsys):
    code, out, _ = run(capsys, "encode", "a!.b.0", "--unicode")
    assert code == 0 and "†" in out and "⟨" in out


@pytest.mark.parametrize("argv", [["check", "--variant", "fb", "a.0", "a.0"],
                                  ["lts", "a.0"],
                                  ["prove", "--theory", "f", "a.0", "a.0"]])
def test_unicode_is_rejected_where_no_term_is_printed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--unicode"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --unicode" in capsys.readouterr().err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--theory", "f", "a.0 |[]| b.0")
    assert code == 0 and out.strip() == "a.b.0 + b.a.0"
    code, out, _ = run(capsys, "normalize", "--theory", "r", "a!.b.0 + c.0")
    assert code == 0 and out.strip() == "<a!,{a}>.0"
    code, out, _ = run(capsys, "normalize", "--theory", "fr", "a.0 + 0")
    assert code == 0 and out.strip() == "<a,{a}>.0"


def test_prove(capsys):
    code, out, _ = run(capsys, "prove", "--theory", "f", "a!.b.0", "c!.b.0")
    assert code == 0 and "equal" in out
    code, out, _ = run(capsys, "prove", "--theory", "fr",
                       "a.0 |[]| b.0", "a.b.0 + b.a.0")
    assert code == 1 and "not equal" in out


def test_prove_trace(capsys):
    code, out, _ = run(capsys, "prove", "--theory", "f", "--trace",
                       "a!.b!.0 + c.0", "b!.0")
    assert code == 0
    assert "A_F," in out


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "a.0", "b.0")
    assert code == 0 and out.strip() == "a.b.0 + b.a.0"
    code, out, _ = run(capsys, "expand", "c.0", "c.0", "--sync", "c")
    assert code == 0 and out.strip() == "c.0"


_UNREACHABLE = "a!.0 |[a]| b.0"  # a! fired without a partner


@pytest.mark.parametrize("argv", [
    ["normalize", "--theory", "f", _UNREACHABLE],
    ["normalize", "--theory", "r", _UNREACHABLE],
    ["expand", _UNREACHABLE, "c.0"],
    ["expand", "c.0", _UNREACHABLE],
    ["expand", "--sync", "a", "a!.0", "b.0"],  # reachable operands, not their composite
    ["encode", _UNREACHABLE],
    ["prove", "--theory", "f", _UNREACHABLE, "a.0"],
    ["check", "--variant", "fb", _UNREACHABLE, "a.0"],
    ["lts", _UNREACHABLE],
])
def test_every_command_refuses_an_unreachable_term(capsys, argv):
    assert run(capsys, *argv) == (2, "", f"error: {_UNREACHABLE} is not reachable\n")


def test_normalize_f_and_expand_refuse_an_illformed_term(capsys):
    for argv in (["normalize", "--theory", "f"], ["expand", "c.0"]):
        assert run(capsys, *argv, "a.b!.0") == (
            2, "", "error: executed action follows an unexecuted one\n")


def test_normalize_f_and_expand_take_a_reachable_executed_term(capsys):
    assert run(capsys, "normalize", "--theory", "f", "a!.0 |[]| b.0") == (0, "a!.b.0\n", "")
    assert run(capsys, "expand", "a!.0", "b.0") == (0, "a!.b.0\n", "")


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-size", "1", "--alphabet", "a")
    assert code == 0
    lines = out.strip().splitlines()
    assert "a.0" in lines and "a!.0" in lines
    code, out, _ = run(capsys, "enumerate", "--max-size", "1", "--alphabet", "a",
                       "--count-only")
    assert code == 0 and out.strip() == str(len(lines))


_BAD_ENTRIES = {
    "A": "is not an action name ([a-z][a-z0-9_]*)",
    "a b": "is not an action name ([a-z][a-z0-9_]*)",
    "tau": "is not allowed (tau cannot synchronize)",
}


@pytest.mark.parametrize("command", [
    ("enumerate", "--max-size", "1", "--count-only"),
    ("selftest", "--max-size", "1"),
], ids=["enumerate", "selftest"])
@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
def test_alphabet_entries_must_be_action_names(capsys, command, entry):
    code, out, err = run(capsys, *command, "--alphabet", f"a,{entry}")
    assert code == 2 and out == ""
    assert err == f"error: --alphabet entry {entry!r} {_BAD_ENTRIES[entry]}\n"


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
def test_sync_entries_must_be_action_names(capsys, entry):
    code, out, err = run(capsys, "expand", "a.0", "b.0", "--sync", entry)
    assert code == 2 and out == ""
    assert err == f"error: --sync entry {entry!r} {_BAD_ENTRIES[entry]}\n"


def test_valid_alphabets_and_sync_sets_keep_their_output(capsys):
    family = "0\na.0\na!.0\nb.0\nb!.0\n0 + 0\n0 |[]| 0\n0 |[a]| 0\n0 |[b]| 0\n"
    for alphabet in ("a,b", "a,,b,"):
        assert run(capsys, "enumerate", "--max-size", "1", "--alphabet", alphabet) == (
            0, family, "")
    assert run(capsys, "enumerate", "--max-size", "2", "--alphabet", "a,b",
               "--count-only") == (0, "113\n", "")
    assert run(capsys, "expand", "a.c.0", "c.b.0", "--sync", "c,d") == (0, "a.c.b.0\n", "")
    assert run(capsys, "expand", "a.0", "b.0", "--sync", "") == (0, "a.b.0 + b.a.0\n", "")


@pytest.mark.parametrize("command", [["enumerate", "--alphabet", "a,b"],
                                     ["enumerate", "--alphabet", "a", "--count-only"],
                                     ["selftest"]])
@pytest.mark.parametrize("size", ["-1", "-3"])
def test_a_negative_max_size_is_an_error(capsys, command, size):
    code, out, err = run(capsys, *command, "--max-size", size)
    assert code == 2 and out == ""
    assert err == f"error: --max-size must be a non-negative integer, not {size}\n"


def test_size_zero_keeps_its_output(capsys):
    assert run(capsys, "enumerate", "--max-size", "0", "--alphabet", "a,b") == (0, "0\n", "")
    assert run(capsys, "enumerate", "--max-size", "0", "--alphabet", "a",
               "--count-only") == (0, "1\n", "")
    code, out, err = run(capsys, "selftest", "--max-size", "0")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "PASS completeness F vs FB:ps: 0 checks, 0 failures"
    assert len(out.splitlines()) == 9


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--max-size", "2", "--alphabet", "a,b")
    assert code == 0
    assert "PASS completeness F vs FB:ps" in out


_SELFTEST_3 = """\
PASS completeness F vs FB:ps: 5263470 checks, 0 failures
FAIL completeness R vs RB: 5263470 checks, 6 failures; first: a!.0 |[]| b!.a!.0 vs b!.a!.a!.0: one side identifies them, the other does not
PASS completeness FR vs FRB: 5263470 checks, 0 failures
FAIL encoding preserves RB: 5263450 checks, 6 failures; first: a!.0 |[]| b!.a!.0 vs b!.a!.a!.0: one side identifies them, the other does not
PASS encoding preserves FRB: 5263450 checks, 0 failures
PASS transition correspondence: 2704 checks, 0 failures
PASS ready sets are necessary conditions: 12980 checks, 0 failures
PASS encoding preserves initiality and ready sets: 3245 checks, 0 failures
PASS loop and tree properties: 3245 checks, 0 failures
"""


def test_selftest_output_at_size_3_is_pinned(capsys):
    # the suite's counts and first failures, byte for byte; the two R vs RB
    # lines fail by design (see notes/decisions.md)
    assert run(capsys, "selftest", "--max-size", "3", "--alphabet", "a,b") == (
        1, _SELFTEST_3, "")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_selftest_state_cap_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("REVEXP_STATE_CAP", value)
    code, out, err = run(capsys, "selftest", "--max-size", "1")
    assert code == 2 and out == ""
    assert err == (
        f"error: REVEXP_STATE_CAP must be a positive integer, not {value!r}\n"
    )


def test_selftest_state_cap_env_bounds_the_family(capsys, monkeypatch):
    # a.b.0 has three states
    monkeypatch.setenv("REVEXP_STATE_CAP", "2")
    code, out, err = run(capsys, "selftest", "--max-size", "2")
    assert code == 2 and out == ""
    assert err == "error: state budget of 2 states exceeded\n"


def test_check_state_cap_env_is_per_process(capsys, monkeypatch):
    # four states on each side, eight in the union, each ready to fire a and b
    monkeypatch.setenv("REVEXP_STATE_CAP", "4")
    code, out, _ = run(capsys, "check", "--variant", "fb", "a.0 |[]| b.0", "a.b.0 + b.0")
    assert code == 1 and out.startswith("not equivalent")
    monkeypatch.setenv("REVEXP_STATE_CAP", "3")
    code, out, err = run(capsys, "check", "--variant", "fb", "a.0 |[]| b.0", "a.b.0 + b.0")
    assert code == 2 and out == ""
    assert err == "error: state budget of 3 states exceeded\n"
    # ready to fire {a, b} against {a, c}: round 1 answers, building nothing
    code, out, _ = run(capsys, "check", "--variant", "fb", "a.0 |[]| b.0", "a.b.0 + c.0")
    assert code == 1 and out.startswith("not equivalent")


def test_deep_terms_are_an_error_not_a_verdict(capsys):
    chain = "a." * 1200 + "0"
    code, out, err = run(capsys, "check", "--variant", "fb", chain, "a.0")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "encode", chain)
    assert code == 2 and out == "" and err.startswith("error:")

"""End-to-end CLI behaviour: payloads, exit codes, determinism."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartaut import cli, isometry, links, pell, surface
from quartaut.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_classify_z2_report(capsys):
    code, rep = run_json(capsys, "classify", "--r", "41")
    assert code == 0
    assert rep["command"] == "classify"
    assert rep["results"]["tag"] == "Z2"
    assert rep["results"]["generators"] == [[[27, 104], [-7, -27]]]
    assert "Aut-general surface assumed" in rep["assumptions"]
    assert rep["results"]["curve"]["gd"] == [6, 9]
    assert rep["inputs"] == {"r": 41}


def test_classify_out_of_range_discriminant_gets_caveat(capsys):
    code, rep = run_json(capsys, "classify", "--r", "52")
    assert code == 2
    assert "caveat" in rep["results"]
    assert rep["results"]["tag"] in ("Trivial", "Z2", "Z2starZ2", "Z")


def test_classify_forbidden_disc_witness(capsys):
    code, rep = run_json(capsys, "classify", "--b", "3", "--c", "1")
    assert code == 2
    assert rep["results"]["witness"]["pairing"] == [0, 1]
    assert rep["results"]["witness"]["class"] == [1, -1]


def test_classify_rejects_half_model(capsys):
    code, rep = run_json(capsys, "classify", "--b", "3")
    assert code == 2
    assert "error" in rep["results"]


def test_classify_model_override_matches_r(capsys):
    _, by_r = run_json(capsys, "classify", "--r", "56", "--no-timestamp")
    _, by_bc = run_json(capsys, "classify", "--b", "8", "--c", "1", "--no-timestamp")
    assert by_r["results"]["tag"] == by_bc["results"]["tag"] == "Z2starZ2"


_MODEL_TAILS = {
    "classify": (),
    "realize": (),
    "curve-class": ("--genus", "2", "--degree", "8"),
    "pell": ("--n", "8"),
}


@pytest.mark.parametrize("cmd", sorted(_MODEL_TAILS))
def test_r_disagreeing_with_b_c_is_refused(capsys, cmd):
    code, rep = run_json(capsys, cmd, "--r", "17", "--b", "8", "--c", "1",
                         *_MODEL_TAILS[cmd], "--no-timestamp")
    assert code == 2
    err = rep["results"]["error"]
    assert "--r 17" in err and "56" in err
    assert set(rep["results"]) == {"error"}


@pytest.mark.parametrize("cmd", sorted(_MODEL_TAILS))
def test_r_agreeing_with_b_c_is_accepted(capsys, cmd):
    tail = (*_MODEL_TAILS[cmd], "--no-timestamp")
    code, rep = run_json(capsys, cmd, "--r", "56", "--b", "8", "--c", "1", *tail)
    _, by_bc = run_json(capsys, cmd, "--b", "8", "--c", "1", *tail)
    assert code == 0
    assert "error" not in rep["results"]
    assert rep["results"] == by_bc["results"]
    assert rep["inputs"] == {**by_bc["inputs"], "r": 56}


@pytest.mark.parametrize("cmd", ["classify", "curve-class", "realize"])
@pytest.mark.parametrize("b, c", [(0, 0), (0, 1), (2, 1), (1, 1)])
def test_nonpositive_discriminant_is_refused_alike_by_r_and_b_c(capsys, cmd, b, c):
    """--r R and a --b/--c pair of the same R <= 0 give one refusal."""
    r = b * b - 8 * c
    tail = (*_MODEL_TAILS[cmd], "--no-timestamp")
    code_r, by_r = run_json(capsys, cmd, "--r", str(r), *tail)
    code_bc, by_bc = run_json(capsys, cmd, "--b", str(b), "--c", str(c), *tail)
    assert code_r == code_bc == 2
    assert by_r["results"] == by_bc["results"] == {"error": f"discriminant {r} is not positive"}


def test_pell_report(capsys):
    code, rep = run_json(capsys, "pell", "--r", "17", "--n", "8", "--bound", "1")
    assert code == 0
    assert rep["results"]["equation"] == "x^2 - 17 y^2 = 8"
    assert rep["results"]["solvable"] is True
    assert rep["results"]["witness"] == [5, 1]
    assert sorted(map(tuple, rep["results"]["solutions_up_to_bound"])) == [
        (-5, -1), (-5, 1), (5, -1), (5, 1),
    ]


def test_pell_unsolvable(capsys):
    code, rep = run_json(capsys, "pell", "--r", "20", "--n", "8")
    assert code == 0
    assert rep["results"]["solvable"] is False
    assert rep["results"]["witness"] is None
    assert rep["results"]["orbit_representatives"] == []


def test_pell_zero_lists_no_trivial_solution(capsys):
    """For n = 0 the trivial (0, 0) is no solution, as in pell.solve."""
    code, rep = run_json(capsys, "pell", "--r", "2", "--n", "0", "--bound", "3")
    assert code == 0
    assert rep["results"]["solvable"] is False
    assert rep["results"]["solutions_up_to_bound"] == []
    code, rep = run_json(capsys, "pell", "--r", "9", "--n", "0", "--bound", "2")
    assert code == 0
    assert rep["results"]["witness"] == [3, 1]
    assert sorted(map(tuple, rep["results"]["solutions_up_to_bound"])) == sorted(
        (x * s, y * t) for x, y in ((3, 1), (6, 2)) for s in (-1, 1) for t in (-1, 1)
    )


def test_pell_bad_inputs(capsys):
    code, rep = run_json(capsys, "pell", "--r", "0", "--n", "8")
    assert code == 2
    code, rep = run_json(capsys, "pell", "--r", "17", "--n", "8", "--bound", "0")
    assert code == 2


def test_pell_refuses_a_bad_bound_before_solving(capsys, monkeypatch):
    def solve(r, n):
        raise AssertionError("pell ran before --bound was checked")

    monkeypatch.setattr(pell, "solve", solve)
    monkeypatch.setattr(pell, "solution_class_reps", solve)
    code, rep = run_json(capsys, "pell", "--r", "1999", "--n", "999983", "--bound", "0")
    assert code == 2
    assert rep["results"]["error"] == "--bound must be at least 1"


@pytest.mark.parametrize("n", ["8", "-8", "9", "20", "999983", "1", "-1", "5", "-5"])
def test_pell_report_runs_one_lmm_search(capsys, monkeypatch, n):
    """The witness is read off the orbit representatives, so a report with
    n != 0 runs one class search, and reports what solve reports: one period
    of sqrt(41) when n^2 < 41, the LMM search otherwise."""
    calls, lmm, period = [], pell._lmm_reps, pell._period_reps
    monkeypatch.setattr(pell, "_lmm_reps",
                        lambda D, N: calls.append(("lmm", D, N)) or lmm(D, N))
    monkeypatch.setattr(pell, "_period_reps",
                        lambda D, N: calls.append(("period", D, N)) or period(D, N))
    code, rep = run_json(capsys, "pell", "--r", "41", "--n", n, "--bound", "5")
    assert code == 0
    assert calls == [("period" if int(n) ** 2 < 41 else "lmm", 41, int(n))]
    w = pell.solve(41, int(n))
    assert rep["results"]["witness"] == (list(w) if w else None)


def test_curve_class_report(capsys):
    code, rep = run_json(capsys, "curve-class", "--r", "56", "--genus", "2",
                         "--degree", "8")
    assert code == 0
    assert rep["results"]["class"] == [4, -1]
    assert rep["results"]["span_disc"] == 56
    assert rep["results"]["index"] == 1


def test_curve_class_is_exact_at_large_index(capsys):
    code, rep = run_json(capsys, "curve-class", "--b", "1", "--c", "-2", "--genus", "17",
                         "--degree", "71")
    assert code == 0
    assert rep["results"]["exists"] is True
    assert rep["results"]["class"] == [22, -17]
    assert rep["results"]["index"] == 17


def test_curve_class_rejects_unrealizable_pair(capsys):
    code, rep = run_json(capsys, "curve-class", "--r", "17", "--genus", "3",
                         "--degree", "5")
    assert code == 2
    assert "error" in rep["results"]


def test_link_catalog_and_row(capsys):
    code, rep = run_json(capsys, "link")
    assert code == 0
    assert len(rep["results"]["rows"]) == 9
    code, rep = run_json(capsys, "link", "--genus", "14", "--degree", "11")
    assert code == 0
    assert rep["results"]["row"]["abc"] == [19, 5, 19]
    assert rep["results"]["row"]["matrix"] == [[19, 72], [-5, -19]]
    code, rep = run_json(capsys, "link", "--genus", "7", "--degree", "7")
    assert code == 2


def test_realize_infinite_case(capsys):
    code, rep = run_json(capsys, "realize", "--r", "48")
    assert code == 0
    (item,) = rep["results"]["realizations"]
    assert item["matches_generator"] is True
    assert item["composite"] == [[209, 56], [-56, -15]]
    assert [w["gd"] for w in item["word"]] == [[3, 8], [3, 8]]
    assert [w["abc"] for w in item["word"]] == [[15, 4, 15], [15, 4, 15]]


def test_realize_reflection_case(capsys):
    code, rep = run_json(capsys, "realize", "--r", "17")
    assert code == 0
    (item,) = rep["results"]["realizations"]
    assert [w["gd"] for w in item["word"]] == [[14, 11]]
    assert item["composite"] == [[19, 72], [-5, -19]]


def test_realize_through_x5(capsys):
    code, rep = run_json(capsys, "realize", "--r", "40")
    assert code == 0
    (item,) = rep["results"]["realizations"]
    assert [w["target"] for w in item["word"]] == ["X5", "P3"]
    assert [w["abc"] for w in item["word"]] == [[11, 3, 5], [5, 3, 5]]


def test_realize_trivial_group_is_an_error(capsys):
    code, rep = run_json(capsys, "realize", "--r", "9")
    assert code == 2
    assert "trivial" in rep["results"]["error"]


def test_realize_outside_the_classification_gets_caveat(capsys):
    # r = 52 is no curve discriminant, so no step has a frame to start from;
    # the report still lists the generator, with classify's caveat and exit code
    code, rep = run_json(capsys, "realize", "--r", "52")
    assert code == 2
    assert rep["results"]["tag"] == "Z"
    (item,) = rep["results"]["realizations"]
    assert item["generator"] == [[469, 1080], [360, 829]]
    assert item["word"] is None
    assert item["error"] == "no word of length <= 2 found"
    _, classified = run_json(capsys, "classify", "--r", "52")
    assert rep["results"]["caveat"] == classified["results"]["caveat"]
    assert "r <= 57" in rep["results"]["caveat"]
    # a trivial group outside the classification gets the caveat as well
    code, rep = run_json(capsys, "realize", "--r", "64")
    assert code == 2
    assert "trivial" in rep["results"]["error"] and "caveat" in rep["results"]


def test_realize_without_a_word_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(links, "realize_generator", lambda L, target: None)
    code, rep = run_json(capsys, "realize", "--r", "48")
    assert code == 3
    assert "caveat" not in rep["results"]
    (item,) = rep["results"]["realizations"]
    assert item["word"] is None


def test_exclusion_report(capsys):
    code, rep = run_json(capsys, "exclusion", "--no-timestamp")
    assert code == 0
    assert rep["results"]["excluded_leq57"] == [52]
    assert rep["results"]["admissible_count"] == 18
    assert rep["results"]["pair_count"] == 34
    assert "duration_s" not in rep["results"]


def test_antiflip_report(capsys):
    code, rep = run_json(capsys, "antiflip-check", "--no-timestamp")
    assert code == 0
    assert rep["results"]["solvable"] == [[15, 11]]
    assert rep["results"]["configurations"] == 1590
    assert rep["results"]["witnesses"]
    assert all(w["frame_class"] == [3, -1] for w in rep["results"]["witnesses"])


def test_verify_paper_all_green(capsys):
    code, rep = run_json(capsys, "verify-paper", "--no-timestamp")
    assert code == 0
    assert rep["results"]["passed"] is True
    assert rep["results"]["failures"] == 0
    assert len(rep["results"]["suites"]) == 8
    assert all(s["passed"] for s in rep["results"]["suites"])


def test_verify_paper_text_output(capsys):
    code, out = run(capsys, "verify-paper", "--no-timestamp")
    assert code == 0
    assert "[pass]" in out
    assert "failures: 0" in out
    assert "[FAIL]" not in out


def test_verify_paper_catches_tampered_catalog(capsys, monkeypatch):
    # negative control: swap a and c in the X5 row (still a valid record)
    rows = list(links._CATALOG)
    rows[7] = links.LinkRecord((4, 8), "X5", (4, 10), 5, 3, 11)
    monkeypatch.setattr(links, "_CATALOG", tuple(rows))
    code, out = run(capsys, "verify-paper", "--no-timestamp")
    assert code == 1
    assert "[FAIL]" in out
    assert "form (4, 8)" in out
    assert "first counterexample" in out


@pytest.mark.parametrize("module, name, suite, check, detail", [
    (surface, "find_curve_class", "curve-classes", "r=17", "no class with (g, d) = (14, 11)"),
    (links, "lookup", "realization", "compose r=28", "catalog row (10, 10) missing"),
    (links, "realize_generator", "realization", "realize r=17 #1", "no word found"),
])
def test_verify_paper_names_the_first_counterexample(capsys, monkeypatch, module, name, suite,
                                                     check, detail):
    monkeypatch.setattr(module, name, lambda *args: None)
    code, rep = run_json(capsys, "verify-paper", "--no-timestamp")
    assert code == 1
    assert rep["results"]["passed"] is False
    failed = [(s["name"], c["name"], c.get("detail"))
              for s in rep["results"]["suites"] for c in s["checks"] if not c["ok"]]
    assert failed[0] == (suite, check, detail)


def test_verify_paper_text_prints_the_first_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(surface, "find_curve_class", lambda L, target: None)
    code, out = run(capsys, "verify-paper", "--no-timestamp")
    assert code == 1
    assert out.splitlines()[-1] == (
        "first counterexample: [FAIL] curve-classes: r=17 (no class with (g, d) = (14, 11))")


def test_pqa_cap_becomes_a_report_with_exit_3(capsys, monkeypatch):
    # sqrt(17) has period 1, so the cap is reached in the LMM search's PQa run
    monkeypatch.setattr(pell, "_PQA_CAP", 3)
    pell._unit_data.cache_clear()
    code, rep = run_json(capsys, "pell", "--r", "17", "--n", "8", "--no-timestamp")
    assert code == 3
    assert rep["results"] == {"error": "PQa expansion did not cycle within the iteration cap",
                              "layer": "pell._pqa"}


def test_period_cap_becomes_a_report_with_exit_3(capsys, monkeypatch):
    # sqrt(94) has period 16, past the cap of 3
    monkeypatch.setattr(pell, "_PQA_CAP", 3)
    pell._unit_data.cache_clear()
    code, rep = run_json(capsys, "pell", "--r", "94", "--n", "7", "--no-timestamp")
    assert code == 3
    assert rep["results"] == {"error": "PQa expansion did not cycle within the iteration cap",
                              "layer": "pell._period"}


def test_search_bound_becomes_a_report_with_exit_3(capsys):
    code, rep = run_json(capsys, "classify", "--r", "265", "--no-timestamp")
    assert code == 3
    assert rep["inputs"] == {"r": 265}
    assert rep["results"]["layer"] == "isometry.minimal_quadeq_solution"
    assert "1000000" in rep["results"]["error"]


def test_layer_value_error_becomes_a_report_with_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(pell, "solution_class_reps", lambda r, n: pell.is_square(-r))
    code, rep = run_json(capsys, "pell", "--r", "17", "--n", "8")
    assert code == 2
    assert rep["command"] == "pell"
    assert rep["inputs"] == {"r": 17, "n": 8}
    assert rep["results"] == {"error": "is_square expects a nonnegative integer",
                              "layer": "pell.is_square"}
    assert "timestamp" in rep


def test_layer_runtime_error_becomes_a_report_with_exit_3(capsys, monkeypatch):
    def stop(L):
        raise RuntimeError("forced stop")

    monkeypatch.setattr(isometry, "minimal_quadeq_solution", stop)
    code, rep = run_json(capsys, "classify", "--r", "48", "--no-timestamp")
    assert code == 3
    assert rep["inputs"] == {"r": 48}
    assert rep["results"] == {"error": "forced stop",
                              "layer": "test_cli.stop"}
    assert rep["assumptions"] == [] and rep["paper_refs"] == []


def test_closed_stdout_is_no_traceback():
    """A reader that closes the pipe early gets no traceback, and the exit
    code stays the command's own, not the one for a failed verification."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quartaut.cli", "verify-paper", "--json", "--no-timestamp"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_computes_each_witness_once(capsys, monkeypatch):
    calls = {"class_with_square_exists": 0, "_axes": 0}
    for name in calls:
        def counted(*a, _f=getattr(surface, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*a, **kw)
        monkeypatch.setattr(surface, name, counted)
    code, _ = run_json(capsys, "classify", "--r", "48", "--no-timestamp")
    assert code == 0
    assert calls == {"class_with_square_exists": 1, "_axes": 1}


def test_reports_are_deterministic(capsys):
    for argv in (
        ("classify", "--r", "28"),
        ("realize", "--r", "56"),
        ("exclusion",),
        ("antiflip-check",),
        ("verify-paper",),
    ):
        _, first = run(capsys, *argv, "--json", "--no-timestamp")
        _, second = run(capsys, *argv, "--json", "--no-timestamp")
        assert first == second, argv


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ quartaut ...` line of README's sh blocks, with the lines shown
    under it up to the next prompt or the end of the block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            out.append((command, shown))
    return out


_README_EXAMPLES = _readme_examples()


def test_readme_has_shell_examples():
    assert len(_README_EXAMPLES) >= 3


@pytest.mark.parametrize("command, shown", _README_EXAMPLES,
                         ids=[command for command, _ in _README_EXAMPLES])
def test_readme_shell_example_prints_what_it_shows(capsys, command, shown):
    """Run in process: a shown line that strips to "..." ends the
    comparison, and "| tail -1" keeps the last printed line."""
    command, _, pipe = command.partition(" | ")
    prog, *argv = command.split()
    assert prog == "quartaut" and pipe in ("", "tail -1"), command
    main(argv)
    printed = capsys.readouterr().out.splitlines()
    if pipe:
        printed = printed[-1:]
    stripped = [line.strip() for line in shown]
    if "..." in stripped:
        shown = shown[:stripped.index("...")]
        printed = printed[:len(shown)]
    assert printed == shown


def test_timestamp_present_by_default(capsys):
    _, rep = run_json(capsys, "classify", "--r", "17")
    assert "timestamp" in rep
    assert rep["results"]["duration_s"] >= 0
    _, rep = run_json(capsys, "classify", "--r", "17", "--no-timestamp")
    assert "timestamp" not in rep
    assert "duration_s" not in rep["results"]


def test_text_mode_renders_flat_lines(capsys):
    code, out = run(capsys, "classify", "--r", "41")
    assert code == 0
    assert "tag" in out and "Z2" in out
    assert "\t" not in out


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["classify", "--bogus"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["pell", "--r", "17"])  # missing required --n
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["curve-class", "--r", "17", "--degree", "8"])  # missing required --genus
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["classify", "--r", "17", "--n", "8"])  # an option of pell only
    assert e.value.code == 2


_MODEL_FLAGS = ("--r", "--b", "--c")
_REPORT_FLAGS = ("--json", "--no-timestamp", "--help")


@pytest.mark.parametrize("cmd, flags", [
    ("classify", _MODEL_FLAGS),
    ("pell", (*_MODEL_FLAGS, "--n", "--bound")),
    ("curve-class", (*_MODEL_FLAGS, "--genus", "--degree")),
    ("link", ("--genus", "--degree")),
    ("realize", _MODEL_FLAGS),
    ("exclusion", ()),
    ("antiflip-check", ()),
    ("verify-paper", ()),
])
def test_help_lists_each_subcommands_options_in_order(capsys, cmd, flags):
    """A report's inputs echo the options in the order the parser declares
    them, so each subcommand's --help must list exactly its own, in order."""
    with pytest.raises(SystemExit) as e:
        main([cmd, "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    listed = tuple(dict.fromkeys(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)))
    assert listed == (*flags, *_REPORT_FLAGS)


def _model_args(r, b, c):
    out = []
    for flag, v in (("--r", r), ("--b", b), ("--c", c)):
        if v is not None:
            out += [flag, str(v)]
    return out


def _opt(lo, hi):
    return st.none() | st.integers(lo, hi)


_MODEL = st.builds(_model_args, _opt(-3, 60), _opt(-6, 6), _opt(-6, 3))
_ARGVS = st.one_of(
    st.builds(lambda cmd, m: [cmd, *m], st.sampled_from(["classify", "realize"]), _MODEL),
    st.builds(lambda m, n, bound: ["pell", *m, "--n", str(n)]
              + ([] if bound is None else ["--bound", str(bound)]),
              _MODEL, st.integers(-60, 60), _opt(-1, 5)),
    st.builds(lambda m, g, d: ["curve-class", *m, "--genus", str(g), "--degree", str(d)],
              _MODEL, st.integers(-1, 20), st.integers(-1, 16)),
    st.builds(lambda g, d: ["link"]
              + ([] if g is None else ["--genus", str(g)])
              + ([] if d is None else ["--degree", str(d)]),
              _opt(-1, 20), _opt(-1, 16)),
)


@settings(max_examples=300, deadline=None)
@given(_ARGVS, st.booleans())
def test_fuzzed_argv_gives_a_json_report_and_a_documented_exit(argv, stamp):
    """Small inputs to every model-taking subcommand, in process: each call
    prints one JSON report and exits 0, 1, 2 or 3, never a traceback."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--json", *([] if stamp else ["--no-timestamp"])])
    assert code in (0, 1, 2, 3), argv
    rep = json.loads(buf.getvalue())
    assert rep["command"] == argv[0]

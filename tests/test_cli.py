import argparse
import csv
import gc
import importlib
import importlib.util
import io
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

import primscan
from primscan import blocks
from primscan.cli import build_parser, main, run
from primscan.scans import ExcursionProfile

MARKOFF = {
    "model": "H2",
    "A": [[1, 0], [1, 0], [1, 0], [2, 0]],
    "B": [[1, 0], [-1, 0], [-1, 0], [2, 0]],
}
ELLIPTIC_B = {
    "model": "H2",
    "A": [[1, 0], [1, 0], [1, 0], [2, 0]],
    "B": [[0, 0], [1, 0], [-1, 0], [0, 0]],
}
ELLIPTIC_A = {
    "model": "H2",
    "A": [[0, 0], [1, 0], [-1, 0], [0, 0]],
    "B": [[1, 0], [1, 0], [1, 0], [2, 0]],
}
PARABOLIC = {
    "model": "H2",
    "A": [[1, 0], [1, 0], [0, 0], [1, 0]],
    "B": [[1, 0], [0, 0], [1, 0], [1, 0]],
}


@pytest.fixture
def rep_file(tmp_path):
    def write(payload, name="rep.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


def capture(argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    parser = build_parser()
    stream = io.StringIO()
    code = run(parser.parse_args(argv), stream=stream)
    return code, stream.getvalue()


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def lines_of(text):
    """The JSON records of a report; a NaN or Infinity token fails."""
    return [json.loads(line, parse_constant=_refuse_constant)
            for line in text.splitlines()]


# ----------------------------------------------------------------- bounds

def test_bounds_prints_bare_integer(capsys):
    code = main(["bounds", "--d", "40", "--delta", "1",
                 "--cprime", "1", "--regime", "near"])
    assert code == 0
    assert capsys.readouterr().out == "16382\n"


def test_bounds_cprime_is_alias_for_C(capsys):
    main(["bounds", "--d", "40", "--delta", "1", "--C", "1"])
    assert capsys.readouterr().out == "16382\n"


def test_bounds_other_regimes(capsys):
    main(["bounds", "--d", "10", "--K", "6", "--delta", "1",
          "--regime", "close"])
    assert capsys.readouterr().out == "6\n"
    main(["bounds", "--d", "0", "--regime", "near"])
    assert capsys.readouterr().out == "0\n"


# -------------------------------------------------------------- enumerate

def test_enumerate_counts_and_schema():
    code, out = capture(["enumerate", "--max-den", "4"])
    rows = lines_of(out)
    assert code == 0
    assert rows[-1] == {"classes": 13}
    assert {"p", "q", "len", "cf", "swap", "word"} == set(rows[0])
    assert {(r["p"], r["q"]) for r in rows[:-1]} >= {(1, 0), (0, 1), (3, 4)}


def test_blocks_levels():
    code, out = capture(["blocks", "--slope", "3/2"])
    rows = lines_of(out)
    assert code == 0
    assert [r["w"] for r in rows[:-1]] == ["a", "ab", "abaab"]
    assert [r["lp"] for r in rows[:-1]] == [2, 3, 7]
    assert rows[-1] == {"p": 3, "q": 2, "cf": [1, 2], "swap": "none",
                        "word": "abaab"}


def test_blocks_negative_slope():
    code, out = capture(["blocks", "--slope=-3/2"])
    assert code == 0
    assert lines_of(out)[-1]["p"] == -3


@pytest.mark.parametrize("argv", [
    ["blocks"],
    ["excursion", "--rep", MARKOFF],
    ["quasi-loops", "--rep", MARKOFF, "--eps", "0.1"],
], ids=["blocks", "excursion", "quasi-loops"])
def test_negative_slope_as_separate_argument(rep_file, capsys, argv):
    argv = [rep_file(a) if a is MARKOFF else a for a in argv]
    assert main([*argv, "--slope=-3/2"]) == 0
    joined = capsys.readouterr().out
    assert main([*argv, "--slope", "-3/2"]) == 0
    assert capsys.readouterr().out == joined
    assert '"aBaaB"' in joined


@pytest.mark.parametrize("argv", [
    ["blocks"],
    ["excursion", "--rep", MARKOFF],
    ["quasi-loops", "--rep", MARKOFF, "--eps", "0.1"],
], ids=["blocks", "excursion", "quasi-loops"])
@pytest.mark.parametrize("slope, length", [
    ("99999999999999999999/1", 10 ** 20),
    ("-1/99999999999999999999", 10 ** 20),
    (f"{sys.maxsize}/1", sys.maxsize + 1),
], ids=["p", "-q", "maxsize+1"])
def test_slope_past_the_string_range_is_refused(rep_file, capsys, argv,
                                                slope, length):
    # a class word longer than sys.maxsize cannot be built; lengths a str
    # could hold but memory could not are not tried: they allocate
    argv = [rep_file(a) if a is MARKOFF else a for a in argv]
    assert main([*argv, "--slope", slope]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("primscan: error: the class word of "
                                   f"slope {slope} has {length} letters")


# ----------------------------------------------------------- verify-lemmas

def test_verify_lemmas_single_suite_passes():
    code, out = capture(["verify-lemmas", "--suite", "magic-len",
                         "--max-block-len", "20"])
    rows = lines_of(out)
    assert code == 0
    assert rows[0]["failures"] == 0 and rows[0]["checks"] > 0
    assert rows[-1] == {"suites": 1, "checks": rows[0]["checks"],
                        "failures": 0}


def test_verify_lemmas_all_suites_pass_at_small_caps():
    code, out = capture(["verify-lemmas", "--max-den", "30",
                         "--max-block-len", "20"])
    rows = lines_of(out)
    assert code == 0
    assert [r["suite"] for r in rows[:-1]] == [
        "recurrences", "magic-len", "perm-cycl", "bloc"]
    assert rows[-1]["failures"] == 0
    caps = {r["suite"]: r["cap"] for r in rows[:-1]}
    assert caps["recurrences"] == 30 and caps["bloc"] == 20


def test_verify_lemmas_reports_perm_rotation_violation(monkeypatch, capsys):
    real = blocks.adapted_rotations

    def broken(t, i):
        out = real(t, i)
        if (t.p, t.q, i) == (10, 9, 1):
            out[1] = blocks.LemmaViolation("injected")
        return out

    monkeypatch.setattr(blocks, "adapted_rotations", broken)
    code = main(["verify-lemmas", "--suite", "perm-cycl",
                 "--max-block-len", "20"])
    rows = lines_of(capsys.readouterr().out)
    assert code == 1
    assert rows[0]["failures"] == 1
    assert rows[1] == {"suite": "perm-cycl", "p": 10, "q": 9, "i": 1, "k": 1,
                       "error": "injected"}
    assert rows[2] == {"suites": 1, "checks": rows[0]["checks"],
                       "failures": 1}


# ------------------------------------------------------------------ scans

def test_scan_bowditch_markoff(rep_file):
    code, out = capture(["scan-bowditch", "--rep", rep_file(MARKOFF),
                         "--max-den", "20"])
    rows = lines_of(out)
    agg = rows[-1]
    assert code == 0
    assert agg["classes"] == 257 and agg["violations"] == 0
    assert agg["min_trace"] == pytest.approx(3.0, abs=1e-9)
    assert agg["commutator_trace"][0] == pytest.approx(-2.0, abs=1e-9)
    assert all(not r["flags"] for r in rows[:-1])


def test_scan_bowditch_elliptic_generator_exits_one(rep_file):
    code, out = capture(["scan-bowditch", "--rep", rep_file(ELLIPTIC_B),
                         "--max-den", "4"])
    rows = lines_of(out)
    assert code == 1
    flagged = {(r["p"], r["q"]): r for r in rows[:-1] if r["flags"]}
    assert (0, 1) in flagged
    assert flagged[(0, 1)]["flags"] == ["elliptic"]
    assert flagged[(0, 1)]["ratio"] == 0.0
    assert rows[-1]["violations"] >= 1


HUGE = {"model": "H2", "A": [[1e20, 0], [0, 0], [0, 0], [1e-20, 0]],
        "B": [[2, 0], [1, 0], [1, 0], [1, 0]]}


def test_scan_bowditch_huge_traces_stay_finite(rep_file):
    # rho(a) = diag(1e20, 1e-20): traces pass 1e240 by cap 12, where
    # tr^2 - 4 overflows; the translation length must still be 2 ln|tr|
    code, out = capture(["scan-bowditch", "--rep", rep_file(HUGE),
                         "--max-den", "12"])
    rows = lines_of(out)
    records = rows[:-1]
    assert code == 0 and rows[-1]["violations"] == 0
    assert len(records) == 93
    assert all(map(math.isfinite, (*r["tr"], r["tl"], r["ratio"]))
               for r in records)
    huge = [r for r in records if math.hypot(*r["tr"]) > 1e8]
    assert huge
    for r in huge:
        assert r["tl"] == pytest.approx(2 * math.log(math.hypot(*r["tr"])),
                                        rel=1e-12)


def test_scan_bowditch_refuses_non_finite_records(rep_file, capsys):
    # at cap 16 the deepest traces overflow a double themselves (8 classes,
    # the first 16/1): the scan refuses and names that class and the cap
    # instead of writing records that are not JSON
    path = rep_file(HUGE)
    code, out = capture(["scan-bowditch", "--rep", path, "--max-den", "15"])
    rows = lines_of(out)
    assert code == 0 and len(rows) - 1 == 145
    assert main(["scan-bowditch", "--rep", path, "--max-den", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("class 16/1 is not finite at max_den 16: its image leaves the "
            "float range") in captured.err


def test_scan_ps_refuses_non_finite_axes(rep_file, capsys):
    # from cap 8 the fixed points of the rotation images of 8/1 = a^8 b
    # overflow (tr^2 passes the float range) while its trace and
    # translation length stay finite: the scan refuses and names that
    # class and the cap; at cap 16 8/1 still comes before the overflowing
    # trace of 16/1
    path = rep_file(HUGE)
    code, out = capture(["scan-ps", "--rep", path, "--max-den", "7"])
    rows = lines_of(out)
    assert code == 0 and len(rows) - 1 == 37 and rows[-1]["violations"] == 0
    for cap in ("8", "16"):
        assert main(["scan-ps", "--rep", path, "--max-den", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the axis of class 8/1 leaves the float range (about "
                f"1.8e308) at max_den {cap}") in captured.err


def test_scan_ps_markoff(rep_file):
    code, out = capture(["scan-ps", "--rep", rep_file(MARKOFF),
                         "--max-den", "5"])
    rows = lines_of(out)
    agg = rows[-1]
    assert code == 0
    assert agg["violations"] == 0 and agg["min_rate"] > 0.5
    assert all(r["rate"] > 0 and r["osc"] >= 0 for r in rows[:-1])
    # the tube is a vertex maximum: no sampling step to set
    with pytest.raises(SystemExit) as exc:
        main(["scan-ps", "--rep", rep_file(MARKOFF), "--step", "0.5"])
    assert exc.value.code == 2


def test_local_global_past_the_float_range_exits_two(rep_file, capsys):
    # tr A = 1001: the subword products of the default words overflow
    rep = {**MARKOFF, "A": [[1000, 0], [1, 0], [999, 0], [1, 0]]}
    assert main(["local-global", "--rep", rep_file(rep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"\d+-letter subword .* float range", captured.err)


def test_excursion_profile_rows(rep_file):
    code, out = capture(["excursion", "--rep", rep_file(MARKOFF),
                         "--slope", "2/1", "--step", "0.25"])
    rows = lines_of(out)
    agg = rows[-1]
    assert code == 0
    assert agg["gamma"] == "aab" and agg["period"] == 3
    assert agg["periodicity_defect"] < 1e-6
    assert rows[0]["u"] == 0.0
    assert len(rows) - 1 == 13  # 0, 0.25, ..., 3.0
    assert max(r["E"] for r in rows[:-1]) == pytest.approx(agg["max"])


def test_quasi_loops_none_on_markoff(rep_file):
    code, out = capture(["quasi-loops", "--rep", rep_file(MARKOFF),
                         "--slope", "3/2", "--eps", "0.01"])
    rows = lines_of(out)
    assert code == 0
    assert rows[-1]["loops"] == 0 and rows[-1]["contradiction"] is None


def test_quasi_loops_contradiction_exits_one(rep_file):
    code, out = capture(["quasi-loops", "--rep", rep_file(PARABOLIC),
                         "--slope", "1/0", "--eps", "0.97", "--C", "1.0"])
    rows = lines_of(out)
    assert code == 1
    assert rows[-1]["coverage"] == 1.0
    assert rows[-1]["contradiction"]["confirmed"] is True


def test_local_global_scan(rep_file):
    code, out = capture(["local-global", "--rep", rep_file(MARKOFF),
                         "--power", "3", "--window", "10", "--words", "3"])
    rows = lines_of(out)
    assert code == 0
    assert rows[-1]["worst_global_rate"] > 0
    assert rows[-1]["worst_local_rate"] >= rows[-1]["worst_global_rate"]


def test_perturb_zero_radius_matches_unperturbed(rep_file):
    code, out = capture(["perturb", "--rep", rep_file(MARKOFF),
                         "--radius", "0", "--trials", "3", "--max-den", "4"])
    rows = lines_of(out)
    agg = rows[-1]
    assert code == 0
    assert agg["min"] == pytest.approx(agg["unperturbed"], abs=1e-12)
    assert [r["trial"] for r in rows[:-1]] == [0, 1, 2]


def test_detour_and_quadrilateral_pass():
    code, out = capture(["detour", "--trials", "40", "--seed", "5"])
    assert code == 0
    assert lines_of(out)[-1]["violations"] == 0
    code, out = capture(["quadrilateral", "--trials", "40", "--seed", "5"])
    assert code == 0
    assert lines_of(out)[-1]["violations"] == 0


def test_seed_only_on_seeded_commands(capsys):
    seeded = {"detour", "quadrilateral", "local-global", "perturb"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        assert ("--seed" in options) == (name in seeded), name
    with pytest.raises(SystemExit) as exc:
        main(["scan-bowditch", "--rep", "rep.json", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_detour_seed_selects_the_samples():
    def run_detour(*extra):
        return capture(["detour", "--trials", "20", *extra])

    seeded = run_detour("--seed", "5")
    assert seeded[0] == 0
    assert seeded == run_detour("--seed", "5")
    assert seeded != run_detour("--seed", "6")
    assert run_detour() == run_detour("--seed", "0")


# ------------------------------------------------------------ determinism

def test_seeded_commands_are_byte_identical(rep_file):
    markoff = rep_file(MARKOFF)
    for argv in (
        ["detour", "--trials", "30", "--seed", "11"],
        ["quadrilateral", "--trials", "30", "--seed", "11"],
        ["perturb", "--rep", markoff, "--radius", "1e-5",
         "--trials", "4", "--max-den", "4", "--seed", "11"],
        ["scan-bowditch", "--rep", markoff, "--max-den", "8"],
    ):
        first = capture(argv)
        second = capture(argv)
        assert first == second, argv


# -------------------------------------------------------------------- csv

def test_csv_output_is_well_formed():
    code, out = capture(["enumerate", "--max-den", "4", "--out", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    header, body = rows[0], rows[1:]
    assert header[0] == "kind"
    assert all(len(r) == len(header) for r in body)
    assert [r[0] for r in body] == ["record"] * 13 + ["aggregate"]


def test_csv_joins_lists_with_pipes(rep_file):
    _, out = capture(["scan-bowditch", "--rep", rep_file(MARKOFF),
                      "--max-den", "3", "--out", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    tr = rows[0].index("tr")
    values = {r[tr] for r in rows[1:] if r[0] == "record"}
    assert "3.0|0.0" in values


# ------------------------------------------------------------- exit codes

def test_input_errors_are_value_errors():
    # `main` turns every ValueError into exit code 2, so the library's own
    # input errors need no entry of their own
    from primscan.geometry import NotLoxodromic, RepresentationError
    from primscan.scans import PreconditionError
    for error in (NotLoxodromic, RepresentationError, PreconditionError):
        assert issubclass(error, ValueError)


def test_missing_rep_file_exits_two(capsys):
    assert main(["scan-bowditch", "--rep", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_slope_exits_two(capsys):
    assert main(["blocks", "--slope", "abc"]) == 2
    assert "slope" in capsys.readouterr().err


def test_non_coprime_slope_exits_two(capsys):
    assert main(["blocks", "--slope", "4/2"]) == 2
    assert "coprime" in capsys.readouterr().err


def test_main_restores_the_gc_threshold(capsys):
    saved = gc.get_threshold()
    gc.set_threshold(1234, 11, 12)
    try:
        assert main(["enumerate", "--max-den", "3"]) == 0
        assert gc.get_threshold() == (1234, 11, 12)
        assert main(["blocks", "--slope", "4/2"]) == 2
        assert gc.get_threshold() == (1234, 11, 12)
    finally:
        gc.set_threshold(*saved)


@pytest.mark.parametrize("flag, other", [
    ("--max-block-len", "--max-den"), ("--max-den", "--max-block-len")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_lemmas_names_the_cap_at_fault(capsys, flag, other, value):
    assert main(["verify-lemmas", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be >= 1, got {value}" in captured.err
    assert other not in captured.err


# explicit ids: a row keeps its id when another is added or deleted; the
# argvN-name ids are those the positional ids gave the table
@pytest.mark.parametrize("argv, name", [
    # tanh K subnormal
    pytest.param(["detour", "--K", "5e-324"], "K", id="argv0-K"),
    pytest.param(["detour", "--K", "2e-308"], "K", id="argv1-K"),
    pytest.param(["local-global", "--window", "0"], "window",
                 id="argv2-window"),
    pytest.param(["local-global", "--words", "0"], "words", id="argv3-words"),
    pytest.param(["local-global", "--power", "-5"], "power_floor",
                 id="argv4-power_floor"),
    pytest.param(["perturb", "--radius", "1e-3", "--trials", "0"], "trials",
                 id="argv5-trials"),
    pytest.param(["detour", "--trials", "0"], "trials", id="argv6-trials"),
    pytest.param(["detour", "--K", "0"], "K", id="argv7-K"),
    pytest.param(["detour", "--C", "-1"], "C", id="argv8-C"),
    pytest.param(["quadrilateral", "--trials", "-2"], "trials",
                 id="argv9-trials"),
    pytest.param(["quadrilateral", "--delta", "0"], "delta",
                 id="argv10-delta"),
    pytest.param(["quasi-loops", "--slope", "3/2", "--eps", "0.1", "--C", "0"],
                 "C", id="argv11-C"),
    pytest.param(["quadrilateral", "--delta", "nan"], "delta",
                 id="argv12-delta"),
    pytest.param(["quadrilateral", "--delta", "inf"], "delta",
                 id="argv13-delta"),
    pytest.param(["detour", "--K", "nan"], "K", id="argv14-K"),
    pytest.param(["detour", "--K", "inf"], "K", id="argv15-K"),
    pytest.param(["detour", "--C", "nan"], "C", id="argv16-C"),
    pytest.param(["detour", "--C", "inf"], "C", id="argv17-C"),
    pytest.param(["detour", "--delta", "nan"], "delta", id="argv18-delta"),
    pytest.param(["detour", "--delta", "inf"], "delta", id="argv19-delta"),
    pytest.param(["detour", "--K", "720"], "K + C", id="argv20-K + C"),
    pytest.param(["detour", "--C", "1e6"], "K + C", id="argv21-K + C"),
    pytest.param(["bounds", "--d", "nan"], "d", id="argv22-d"),
    pytest.param(["bounds", "--d", "inf"], "d", id="argv23-d"),
    pytest.param(["bounds", "--d", "1", "--K", "nan"], "K", id="argv24-K"),
    pytest.param(["bounds", "--d", "1", "--Kx", "inf"], "Kx", id="argv25-Kx"),
    pytest.param(["bounds", "--d", "1", "--delta", "nan"], "delta",
                 id="argv26-delta"),
    # far-regime paths past the step cap
    pytest.param(["detour", "--K", "7"], "K", id="detour-K-past-far-limit"),
    pytest.param(["detour", "--C", "0"], "K", id="detour-C-zero"),
    pytest.param(["detour", "--delta", "5"], "K", id="detour-delta-far-draw"),
    # below the thin-triangle constant ln(1 + sqrt 2) of H^2
    pytest.param(["detour", "--delta", "0.25"], "delta",
                 id="detour-delta-below-thin"),
    pytest.param(["detour", "--delta", "0.88"], "delta",
                 id="detour-delta-just-below-thin"),
    pytest.param(["quadrilateral", "--delta", "0.25"], "delta",
                 id="quadrilateral-delta-below-thin"),
    pytest.param(["quadrilateral", "--delta", "0.5"], "delta",
                 id="quadrilateral-delta-half"),
    # non-finite constants
    pytest.param(["quasi-loops", "--slope", "3/2", "--eps", "nan"], "eps",
                 id="quasi-loops-eps-nan"),
    pytest.param(["quasi-loops", "--slope", "3/2", "--eps", "inf"], "eps",
                 id="quasi-loops-eps-inf"),
    pytest.param(["quasi-loops", "--slope", "3/2", "--eps", "0.1", "--C",
                  "nan"], "C", id="quasi-loops-C-nan"),
    pytest.param(["quasi-loops", "--slope", "3/2", "--eps", "0.1", "--C",
                  "inf"], "C", id="quasi-loops-C-inf"),
    pytest.param(["perturb", "--radius", "nan"], "radius",
                 id="perturb-radius-nan"),
    pytest.param(["perturb", "--radius", "inf"], "radius",
                 id="perturb-radius-inf"),
    # finite, but the noise interval [-radius, radius] is not
    pytest.param(["perturb", "--radius", "1e308"], "radius",
                 id="perturb-radius-1e308"),
    pytest.param(["perturb", "--radius", repr(sys.float_info.max)], "radius",
                 id="perturb-radius-float-max"),
])
def test_out_of_range_inputs_exit_two(rep_file, capsys, argv, name):
    if argv[0] not in ("detour", "quadrilateral", "bounds"):
        argv = [*argv, "--rep", rep_file(MARKOFF)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must" in captured.err


@pytest.mark.parametrize("command", ["detour", "quadrilateral"])
def test_delta_below_the_thin_triangle_constant_names_both(capsys, command):
    assert main([command, "--trials", "10", "--delta", "0.25"]) == 2
    err = capsys.readouterr().err
    assert "got 0.25" in err and "ln(1 + sqrt 2) = 0.8814" in err
    # the constant itself is accepted
    assert main([command, "--trials", "10", "--delta", "0.8814"]) == 0


@pytest.mark.parametrize("argv, named", [
    (["--d", "3000"], "d=3000"),
    (["--K", "2000", "--regime", "close"], "K=2000"),
    (["--d", "1e300", "--K", "1000", "--regime", "far"], "K=1000"),
    (["--d", "1e308", "--K", "1e308", "--regime", "general"], "K=1e+308"),
])
def test_bound_past_the_float_range_exits_two(capsys, argv, named):
    if "--d" not in argv:
        argv = [*argv, "--d", "1"]
    assert main(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the float range" in captured.err
    assert named in captured.err


@pytest.mark.parametrize("argv", [
    ["--K", "1e-300"],                  # chord limits past e^u's range
    ["--K", "1", "--delta", "40"],      # a far target past it
])
def test_detour_past_the_float_range_exits_two(capsys, argv):
    assert main(["detour", "--trials", "100", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float range" in captured.err


def test_excursion_refuses_failed_periodicity(rep_file, capsys,
                                             monkeypatch):
    # no known input breaks the seams of the closed form, so the refusal
    # is driven by a stand-in defect
    monkeypatch.setattr(ExcursionProfile, "periodicity_defect",
                        lambda self: 1e-3)
    code = main(["excursion", "--rep", rep_file(MARKOFF), "--slope", "2/1"])
    assert code == 2
    assert "periodicity" in capsys.readouterr().err


@pytest.mark.parametrize("slope", ["8/5", "34/21", "55/34", "199/200"])
def test_excursion_holds_precision_on_deep_classes(rep_file, slope):
    # 13- to 399-letter class words: every sample is taken at the
    # basepoint, from the fixed points of a rotation image
    code, out = capture(["excursion", "--rep", rep_file(MARKOFF),
                         "--slope", slope])
    agg = lines_of(out)[-1]
    assert code == 0
    assert agg["periodicity_defect"] <= 1e-12
    assert agg["lipschitz_defect"] <= 0.0


def test_excursion_refuses_axes_past_the_float_range(rep_file, capsys):
    # tr^2 - 4 det of the rotation images of b^369 a overflows, so its
    # axes are not finite: the profile refuses and names the word length
    path = rep_file(MARKOFF)
    code, out = capture(["excursion", "--rep", path, "--slope", "1/368"])
    assert code == 0 and len(lines_of(out)) == 4 * 369 + 2
    for slope, n in (("1/369", 370), ("400/401", 801), ("-1/370", 371)):
        assert main(["excursion", "--rep", path, "--slope", slope]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the axis of the {n}-letter word leaves the float range "
                f"(about 1.8e308)") in captured.err


def test_excursion_on_elliptic_class_exits_two(rep_file, capsys):
    code = main(["excursion", "--rep", rep_file(ELLIPTIC_B),
                 "--slope", "0/1"])
    assert code == 2
    assert "elliptic" in capsys.readouterr().err


def test_local_global_precondition_exits_two(rep_file, capsys):
    code = main(["local-global", "--rep", rep_file(ELLIPTIC_A)])
    assert code == 2
    assert capsys.readouterr().err


def test_bad_rep_payload_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "H4"}))
    assert main(["scan-bowditch", "--rep", str(path)]) == 2
    assert capsys.readouterr().err


# ------------------------------------------------------------ entry point

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "primscan.cli", "bounds", "--d", "40",
         "--delta", "1", "--cprime", "1", "--regime", "near"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "16382\n"


def fresh_stdout(code, *args):
    """The stdout of `code` in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_commands_run_without_numpy():
    # numpy loads at its first use, which the exact commands never reach;
    # a numpy imported before the package is bound as it is
    assert fresh_stdout(
        "import sys, primscan.cli; "
        "print([m for m in sys.modules if m.startswith('numpy.')])") == "[]\n"
    assert fresh_stdout("import numpy, primscan.geometry as g; "
                        "print(g.np is numpy)") == "True\n"
    without_numpy = ("import sys; sys.modules['numpy'] = None; "
                     "from primscan.cli import main; "
                     "sys.exit(main(sys.argv[1:]))")
    for argv in (["verify-lemmas", "--max-den", "20", "--max-block-len", "20"],
                 ["enumerate", "--max-den", "5"],
                 ["blocks", "--slope", "7/5"]):
        code, out = capture(argv)
        assert code == 0 and out
        assert fresh_stdout(without_numpy, *argv) == out
    # where numpy is needed, its first use names it
    assert fresh_stdout(
        "import sys; sys.modules['numpy'] = None\n"
        "from primscan.geometry import as_matrix\n"
        "try:\n    as_matrix([[1, 0], [0, 1]])\n"
        "except ModuleNotFoundError as e:\n    print(e.name)") == "numpy\n"


# ------------------------------------------------------------ public API

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve():
    # `perfbench/run.py --trace 1` rebinds every target by getattr
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, qualname in tracer.TARGETS:
        obj = importlib.import_module(f"primscan.{module_name}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj)


def test_flat_api_is_the_readme_tour():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python", 1)[1]
    tour = tour.split("```", 1)[0]
    exceptions = {"LemmaViolation", "NotLoxodromic", "RepresentationError",
                  "SamplerError"}
    assert (set(re.findall(r"\bps\.(\w+)", tour)) | exceptions
            == set(primscan.__all__))
    for name in primscan.__all__:
        assert hasattr(primscan, name)

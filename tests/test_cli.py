import argparse
import ast
import csv
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tokenize

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
MARKOFF_FILE = str(pathlib.Path(__file__).resolve().parent / "data"
                   / "markoff.json")
ELLIPTIC_FILE = str(pathlib.Path(__file__).resolve().parent / "data"
                    / "elliptic.json")
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
    real = blocks._level_rotations

    def broken(t, i, ks):
        out = real(t, i, ks)
        if (t.p, t.q, i) == (10, 9, 1):
            out[1] = blocks.LemmaViolation("injected")
        return out

    monkeypatch.setattr(blocks, "_level_rotations", broken)
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
    assert ("the trace of class 16/1 is not finite at max_den 16: it leaves "
            "the float range (about 1.8e308)") in captured.err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_refused_as_json(monkeypatch, rep_file,
                                                capsys, value):
    # every scan refuses a non-finite class before it returns, so only a
    # defect hands `emit` a NaN or an infinity: it exits 2 at that line,
    # after the lines before it, and writes no bare NaN or Infinity token
    from primscan import cli
    from primscan.scans import ScanReport
    report = ScanReport([{"p": 1, "tl": 1.0}, {"p": 2, "tl": value}],
                        {"violations": 0})
    monkeypatch.setattr(cli, "bowditch_scan", lambda rep, cap: report)
    assert main(["scan-bowditch", "--rep", rep_file(MARKOFF)]) == 2
    captured = capsys.readouterr()
    assert captured.out == '{"p": 1, "tl": 1.0}\n'
    assert captured.err == (
        "primscan: error: the report holds a non-finite number (NaN or "
        "infinity), which cannot be written as JSON\n")


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


def test_scan_ps_refusal_names_the_first_class_in_walk_order(capsys):
    # on elliptic.json the axes of the odd classes p/2 from 41/2 on leave
    # the float range; the Farey walk meets the row of q = 2 in decreasing
    # p, after the whole row of q = 1, so the refusal names the largest
    # such p within the cap, where the records' order would name 41/2
    for cap, name in (("41", "41/2"), ("80", "79/2")):
        assert main(["scan-ps", "--rep", ELLIPTIC_FILE, "--max-den",
                     cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the axis of class {name} leaves the float range (about "
                f"1.8e308) at max_den {cap}") in captured.err


# the Markoff generators conjugated by diag(l, 1/l), l^2 = 7e307 (1 + i):
# finite entries b = l^2 whose modulus passes the float range
WIDE_B = 7e307
WIDE = {"model": "H3",
        "A": [[1, 0], [WIDE_B, WIDE_B], [0.5 / WIDE_B, -0.5 / WIDE_B],
              [2, 0]],
        "B": [[1, 0], [-WIDE_B, -WIDE_B], [-0.5 / WIDE_B, 0.5 / WIDE_B],
              [2, 0]]}


def test_scan_ps_refuses_axes_whose_modulus_passes_the_float_range(
        rep_file, capsys):
    # the fixed point -2b of rho(a) has a modulus past the float range,
    # where abs() raises: the scan refuses and names the class, as for a
    # non-finite axis
    assert main(["scan-ps", "--rep", rep_file(WIDE), "--max-den", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("the axis of class 1/0 leaves the float range (about 1.8e308) "
            "at max_den 1") in captured.err


def test_excursion_refuses_leaf_edges_past_the_float_range(rep_file,
                                                           capsys):
    # rho(a) o is finite, but the geodesic through o and it is not: the
    # leaf edge of letter a is refused by name, as its image would be
    assert main(["excursion", "--rep", rep_file(WIDE),
                 "--slope", "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("the segment from the basepoint HPoint(z=0j, t=1.0) to its "
            "image under letter a leaves the float range (about 1.8e308)"
            ) in captured.err


# rho(a) = diag(1e300, 1e-300): the height of rho(a) o would be 1e600
TINY_HEIGHT = {**MARKOFF, "A": [[1e300, 0], [0, 0], [0, 0], [1e-300, 0]]}
# rho(b) = diag(1e-300, 1e300): the height of rho(b) o would be 1e-600
HUGE_DEN = {**MARKOFF, "B": [[1e-300, 0], [0, 0], [0, 0], [1e300, 0]]}


@pytest.mark.parametrize("argv", [["scan-ps", "--max-den", "5"],
                                  ["excursion", "--slope", "1/1"]])
def test_point_action_past_the_float_range_exits_two(rep_file, capsys, argv):
    # the denominator of the point action underflows to 0, or overflows
    # and the image height rounds to 0; the refusal names the letter
    for rep, letter in ((TINY_HEIGHT, "a"), (HUGE_DEN, "b")):
        assert main([*argv, "--rep", rep_file(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the image of the basepoint HPoint(z=0j, t=1.0) under "
                f"letter {letter} leaves the float range (about 1.8e308)"
                in captured.err)


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


def test_perturb_past_the_float_range_writes_no_warning(rep_file):
    # every draw at radius 1e200 overflows the determinant and is drawn
    # again until the retries run out: degenerate, and silent
    proc = subprocess.run(
        [sys.executable, "-m", "primscan.cli", "perturb", "--rep",
         rep_file(MARKOFF), "--radius", "1e200", "--trials", "5",
         "--seed", "3"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = lines_of(proc.stdout)
    assert rows[:-1] == [{"trial": k, "min_ratio": None} for k in range(5)]
    assert rows[-1] == {"radius": 1e200, "trials": 5,
                        "unperturbed": 0.9624236501192069, "min": None,
                        "median": None, "degenerate": 5}


def test_perturb_near_the_float_range_on_h3_exits_zero(rep_file, capsys):
    # at radius 1.2e154 a draw's complex determinant can be finite with a
    # modulus past the float range, where abs() of a complex raises
    argv = ["perturb", "--rep", rep_file({**MARKOFF, "model": "H3"}),
            "--radius", "1.2e154", "--trials", "5", "--seed", "3"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert lines_of(captured.out)[-1]["degenerate"] == 0


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
        ["local-global", "--rep", markoff, "--words", "3", "--seed", "11"],
        ["scan-bowditch", "--rep", markoff, "--max-den", "8"],
    ):
        first = capture(argv)
        second = capture(argv)
        assert first == second, argv


# SHA-256 of the stdout of exact commands, recorded from a run of the
# tree where towers still stored their lengths beside a separate slope
# value: the outputs must not move when the towers change form.  The
# tower commands hold integers and strings only, so their bytes are the
# same on every supported Python; the two scans at the end hold floats.
RECORDED_DIGESTS = {
    ("enumerate", "--max-den", "60"):
        "68e9c02c7f4b9e0647e5781aebe8f4f654244f2f87b65876eed30ec1f0bf6c53",
    ("blocks", "--slope", "13/8"):
        "12af30f109be96623ca13d8c2a776136a58713e377c1f187acfd1ffc815a41e8",
    ("blocks", "--slope", "7/5"):
        "1b1ad95928a81906f40560dce51a0d4639bae13e944a0d4ae424d7effc8ce98a",
    ("blocks", "--slope", "-3/2"):
        "7faff8f5d848a693aa90e077075e75a743ca39d7633a24ed1ee545e504f5eddd",
    ("blocks", "--slope", "1/2"):
        "e873f744da23111c0afbd802ada14eddeb8d275f7a07216447e8ea00779ed921",
    ("blocks", "--slope", "-1/2"):
        "78dfd2a3a15588ba92952cfe9653ba76a97a59300d4175b37d693967db51e04f",
    ("blocks", "--slope", "0/1"):
        "c4242a01dcd2a8a14132d399ac1432ca24a14f0d36f82bc98ad33518a7b05e7b",
    ("blocks", "--slope", "1/0"):
        "2488966af8d4c688dcb8c175f8e04b19090080a17597f8f55b851303662ae9b8",
    ("verify-lemmas", "--max-den", "30", "--max-block-len", "40"):
        "10c088723295b2e6dd168354ffcfb520ff35911df2d024a5f7ae8c8036343ed6",
    # the benchmark's lemmas command, and the other reader of the towers'
    # level table at its deepest cap
    ("verify-lemmas",):
        "1fb599628a291e0e72f668f6b4f58f2b163d4140571e665f7e7caaf9726cf561",
    ("enumerate", "--max-den", "200"):
        "ef385ecb011450e8fd86b15d5e72736e8cb70f2ac0a22a0347071fadd1cd37ca",
    # the benchmark's bowditch-deep command on its seed-0 input, recorded
    # once every trace matched the exact integer recursion to 1e-12
    # relative
    ("scan-bowditch", "--rep", MARKOFF_FILE, "--max-den", "200"):
        "7ae9098c6a0de6ae89146ac075f62b61f047835bf95fd6664f71b7949d4fab78",
    # the benchmark's ps-scan command on its seed-0 input, recorded while
    # the scan's classes still came in the records' order, before the
    # Farey walk went depth first: the records must not move with it
    ("scan-ps", "--rep", MARKOFF_FILE, "--max-den", "20"):
        "363f2424a0d853b093a0b74b3ac3c2f203a9dd0c8bd1d25bc28d69d72ccf0ff6",
}


def test_exact_commands_match_recorded_digests():
    for argv, digest in RECORDED_DIGESTS.items():
        code, out = capture(list(argv))
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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


@pytest.mark.parametrize("command", ["enumerate", "scan-bowditch", "scan-ps"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_den_refusal_names_the_flag_and_value(capsys, command, value):
    rep = [] if command == "enumerate" else ["--rep", MARKOFF_FILE]
    assert main([command, *rep, "--max-den", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-den must be >= 1, got {value}" in captured.err


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
    pytest.param(["detour", "--seed", "-1"], "seed",
                 id="detour-seed-negative"),
    pytest.param(["quadrilateral", "--seed", "-1"], "seed",
                 id="quadrilateral-seed-negative"),
    pytest.param(["local-global", "--seed", "-1"], "seed",
                 id="local-global-seed-negative"),
    pytest.param(["perturb", "--radius", "1e-3", "--seed", "-1"], "seed",
                 id="perturb-seed-negative"),
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
    # more samples than output records allowed, refused before any is made
    pytest.param(["excursion", "--slope", "1/1", "--step", "1e-9"], "step",
                 id="excursion-step-1e-9"),
    pytest.param(["excursion", "--slope", "1/1", "--step", "1e-300"], "step",
                 id="excursion-step-1e-300"),
    pytest.param(["excursion", "--slope", "1/1", "--step", "5e-324"], "step",
                 id="excursion-step-5e-324"),
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


@pytest.mark.parametrize("payload, error", [
    ({"model": "H4"}, "missing field 'A'"),
    (5, "must be a JSON object, got a number"),
    (3.5, "must be a JSON object, got a number"),
    (True, "must be a JSON object, got a boolean"),
    (None, "must be a JSON object, got null"),
    ("model A B", "must be a JSON object, got a string"),
    ([1, 2], "must be a JSON object, got an array"),
], ids=["model-only", "int", "float", "true", "null", "string", "array"])
def test_bad_rep_payload_exits_two(tmp_path, capsys, payload, error):
    # a top level that is not an object is refused before any field is
    # read (a string holds the field names as substrings)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for command in ("scan-bowditch", "scan-ps"):
        assert main([command, "--rep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("primscan: error: ")
        assert error in captured.err and str(path) in captured.err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", ["A", "B"])
def test_non_finite_entry_exits_two_naming_the_matrix(tmp_path, capsys,
                                                      token, name):
    # the JSON tokens parse to float nan and inf; every command that
    # reads a rep refuses them before any scan
    text = json.dumps(MARKOFF).replace(
        f'"{name}": [[1, 0], ', f'"{name}": [[{token}, 0], ')
    path = tmp_path / "rep.json"
    path.write_text(text)
    assert token in text
    for argv in (["scan-bowditch", "--max-den", "5"], ["scan-ps"],
                 ["excursion", "--slope", "1/1"]):
        assert main([*argv, "--rep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"primscan: error: matrix {name} has a non-finite entry"
                in captured.err)


@pytest.mark.parametrize("entry, message", [
    ('"x"', "is not numeric: could not convert string to float: 'x'"),
    ("1" + "0" * 400, "is not numeric: int too large to convert to float"),
    ("null", "is not numeric"),
    ("[1]", "is not numeric"),
])
def test_non_numeric_entry_exits_two(tmp_path, capsys, entry, message):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(MARKOFF).replace('"A": [[1, 0], ',
                                                f'"A": [[{entry}, 0], '))
    assert main(["scan-bowditch", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"primscan: error: matrix A {message}" in captured.err


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


def test_import_loads_no_dataclasses_inspect_or_typing():
    # the import is most of a short command's time: the value types are
    # slotted classes and the records namedtuples, so neither `dataclasses`
    # (which loads `inspect`, `ast`, `dis` and `tokenize`) nor `typing`
    # loads; `csv` is imported by `--out csv` alone; -S keeps the imports
    # of site-packages' .pth files out
    code = ("import sys, primscan.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', "
            "'__future__', 'csv') if m in sys.modules)); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('primscan.')))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str(
        [f"primscan.{m}" for m in ("blocks", "certify", "cli", "geometry",
                                   "scans", "words")])]


# the CLI in a fresh interpreter where `import numpy` fails
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from primscan.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")


def test_every_command_runs_without_numpy(rep_file, capsys):
    # primscan runs on the standard library alone: importing the CLI loads
    # no numpy, and every subcommand, once each at a small size, exits as
    # in-process and prints the same bytes where `import numpy` fails
    assert fresh_stdout(
        "import sys, primscan.cli; print([m for m in sys.modules "
        "if m.partition('.')[0] == 'numpy'])") == "[]\n"
    markoff = rep_file(MARKOFF)
    runs = (["enumerate", "--max-den", "5"],
            ["blocks", "--slope", "7/5"],
            ["verify-lemmas", "--max-den", "20", "--max-block-len", "20"],
            ["scan-bowditch", "--rep", rep_file(ELLIPTIC_B, "elliptic.json"),
             "--max-den", "8"],
            ["scan-ps", "--rep", markoff, "--max-den", "20"],
            ["excursion", "--rep", markoff, "--slope", "3/2"],
            ["quasi-loops", "--rep", rep_file(PARABOLIC, "parabolic.json"),
             "--slope", "1/0", "--eps", "0.97", "--C", "1.0"],
            ["bounds", "--d", "40", "--cprime", "1"],
            ["detour", "--trials", "20", "--seed", "5"],
            ["quadrilateral", "--trials", "20", "--seed", "5"],
            ["local-global", "--rep", markoff, "--words", "3", "--seed", "2"],
            ["perturb", "--rep", markoff, "--radius", "1e-3", "--trials", "5",
             "--max-den", "10", "--seed", "3"])
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in runs) == sorted(sub.choices)
    codes = set()
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        assert out, argv
        proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, out), argv
        codes.add(code)
    assert codes == {0, 1}


def test_scan_bowditch_runs_without_numpy(rep_file):
    # a rep file parses to kernel tuples, and the line fit is the stdlib's
    argv = ["scan-bowditch", "--rep", rep_file(MARKOFF), "--max-den", "20"]
    code, out = capture(argv)
    assert code == 0 and out
    assert fresh_stdout(WITHOUT_NUMPY, *argv) == out


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


def _readme_tour():
    """The python block of the README's library tour."""
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python", 1)[1]
    return tour.split("```", 1)[0]


def test_flat_api_is_the_readme_tour():
    tour = _readme_tour()
    exceptions = {"LemmaViolation", "NotLoxodromic", "RepresentationError",
                  "SamplerError"}
    assert (set(re.findall(r"\bps\.(\w+)", tour)) | exceptions
            == set(primscan.__all__))
    for name in primscan.__all__:
        assert hasattr(primscan, name)


def test_readme_tour_runs():
    # every statement runs in order; an expression whose whole trailing
    # comment is a Python literal must evaluate to that literal
    tour = _readme_tour()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(tour).readline)
        if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for stmt in ast.parse(tour).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md",
                             "eval"), namespace)
        try:
            want = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            continue
        assert value == want, ast.unparse(stmt)
        checked += 1
    assert checked >= 4

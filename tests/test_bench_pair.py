"""Tests for tools/bench_pair.py: seed lists, the paired summary, the
refusal to pool runs of other revisions, the refusal of a workdir inside
the checkout and of a run outside any checkout."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pair():
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pair = load_bench_pair()
BETTER = {"wall_s": "lower", "items_per_s": "higher"}


def result(wall, items, failed=0):
    return {"failed": failed, "metrics": {"wall_s": {"value": wall},
                                          "items_per_s": {"value": items}}}


def run(seed, side, res, workload="w"):
    return {"workload": workload, "seed": seed, "side": side,
            "first": "parent", "result": res}


def no_result():
    return {"error": "Traceback ...", "exit": 1}


@pytest.mark.parametrize("text, seeds", [
    ("10-12,15", [10, 11, 12, 15]),
    ("3", [3]),
    ("1,2,5", [1, 2, 5]),
    ("7-7", [7]),
])
def test_parse_seeds(text, seeds):
    assert bench_pair.parse_seeds(text) == seeds


def test_summarize_counts_wins_per_direction():
    runs = [run(1, "parent", result(1.0, 10.0)),
            run(1, "change", result(0.5, 12.0)),
            run(2, "change", result(1.0, 9.0)),
            run(2, "parent", result(1.5, 11.0))]
    summary = bench_pair.summarize(runs, BETTER)["w"]
    assert summary["pairs"] == 2
    assert summary["wall_s"]["wins"] == {"parent": 0, "change": 2}
    # higher is better: the change won seed 1 and lost seed 2
    assert summary["items_per_s"]["wins"] == {"parent": 1, "change": 1}
    assert summary["wall_s"]["change"] == {"median": 0.75, "q1": 0.625,
                                           "q3": 0.875}
    assert summary["no_result"] == {"parent": 0, "change": 0}


def test_summarize_tie_counts_for_neither_side():
    runs = [run(1, "parent", result(1.0, 10.0)),
            run(1, "change", result(1.0, 10.0))]
    summary = bench_pair.summarize(runs, BETTER)["w"]
    assert summary["pairs"] == 1
    for metric in BETTER:
        assert summary[metric]["wins"] == {"parent": 0, "change": 0}


def test_summarize_pair_needs_both_result_lines():
    runs = [run(1, "parent", result(1.0, 10.0)),
            run(1, "change", no_result()),
            run(2, "parent", no_result()),
            run(2, "change", no_result()),
            run(3, "parent", result(1.0, 10.0)),
            run(3, "change", result(0.5, 20.0, failed=2)),
            run(4, "change", result(0.5, 20.0))]    # its parent never ran
    summary = bench_pair.summarize(runs, BETTER)["w"]
    assert summary["pairs"] == 1
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["no_result"] == {"parent": 1, "change": 2}
    assert summary["wall_s"]["wins"] == {"parent": 0, "change": 1}
    assert summary["wall_s"]["parent"]["median"] == 1.0
    assert summary["wall_s"]["change"]["median"] == 0.5


def test_summarize_keeps_workloads_apart():
    runs = [run(1, "parent", result(1.0, 10.0), workload="a"),
            run(1, "change", result(2.0, 5.0), workload="a"),
            run(1, "parent", result(1.0, 10.0), workload="b"),
            run(1, "change", no_result(), workload="b")]
    summary = bench_pair.summarize(runs, BETTER)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["wall_s"]["wins"] == {"parent": 1, "change": 0}
    assert summary["b"]["pairs"] == 0
    assert summary["b"]["no_result"] == {"parent": 0, "change": 1}
    # no pair, so no quartiles for either side
    assert "parent" not in summary["b"]["wall_s"]


REVS = {"parent": "a" * 40, "change": "b" * 40}


def test_check_revs_accepts_runs_of_the_same_pair():
    data = {"meta": {"revs": dict(REVS)},
            "runs": [run(1, "parent", result(1.0, 10.0))]}
    bench_pair.check_revs(data, REVS)
    # a file with no runs yet pools nothing
    bench_pair.check_revs({"runs": []}, REVS)
    bench_pair.check_revs({"meta": {"revs": {"parent": "c", "change": "d"}},
                           "runs": []}, REVS)


@pytest.mark.parametrize("old", [
    {"parent": "a" * 40, "change": "c" * 40},
    {"parent": "c" * 40, "change": "b" * 40},
    {"parent": "b" * 40, "change": "a" * 40},
], ids=["change", "parent", "swapped"])
def test_check_revs_refuses_runs_of_other_revisions(old):
    data = {"meta": {"revs": old},
            "runs": [run(1, "parent", result(1.0, 10.0))]}
    with pytest.raises(SystemExit) as refused:
        bench_pair.check_revs(data, REVS)
    message = str(refused.value)
    assert f"parent {old['parent']} and change {old['change']}" in message
    assert f"parent {REVS['parent']} and change {REVS['change']}" in message


def test_check_revs_refuses_runs_without_revisions():
    data = {"runs": [run(1, "parent", result(1.0, 10.0))]}
    with pytest.raises(SystemExit, match="unrecorded revisions"):
        bench_pair.check_revs(data, REVS)


@pytest.mark.parametrize("inside", [".", "bench", "bench/../work",
                                    "src/deeper"])
def test_check_workdir_refuses_a_directory_inside_the_checkout(tmp_path,
                                                               inside):
    checkout = tmp_path / "repo"
    workdir = checkout / inside
    with pytest.raises(SystemExit) as refused:
        bench_pair.check_workdir(workdir, checkout)
    message = str(refused.value)
    assert str(workdir.resolve()) in message
    assert str(checkout.resolve()) in message


@pytest.mark.parametrize("outside", ["work", "repo-bench", "repo/../work"])
def test_check_workdir_accepts_a_directory_outside_the_checkout(tmp_path,
                                                                outside):
    bench_pair.check_workdir(tmp_path / outside, tmp_path / "repo")


def test_child_env_drops_dontwritebytecode(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("BENCH_PAIR_PROBE", "kept")
    env = bench_pair.child_env()
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["BENCH_PAIR_PROBE"] == "kept"
    # the tool's own environment is left as it was
    assert bench_pair.os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert "PYTHONDONTWRITEBYTECODE" not in bench_pair.child_env()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_checkout_root_refuses_a_directory_outside_any_checkout(
        tmp_path, monkeypatch):
    # git searches no directory above tmp_path, which holds no repository
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    for name in ("GIT_DIR", "GIT_WORK_TREE"):
        monkeypatch.delenv(name, raising=False)
    with pytest.raises(SystemExit, match="root of a git checkout"):
        bench_pair.checkout_root()

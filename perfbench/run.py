"""End-to-end benchmark of the primscan CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lemmas, ps-scan, bowditch-deep, certify-mc (see README.md).
Each is a closed loop with one client: the next command starts when the
previous one has exited, one fresh child process at a time, with the
package imported from ./src.  Every output is validated; a command that
exits nonzero or whose output fails validation counts as failed and its
iteration is not timed as a success.

--trace 0 measures the end-to-end metrics, each time scaled to a nominal
machine speed by a probe on the children's CPU (SpeedProbe).  --trace 1
runs each command in-process through `primscan.cli.main`, untraced and
then traced (tracer.py), and reports the per-layer metrics.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are run metadata and a readable table.
"""

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import inputs
import validate
from tracer import TARGETS

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170.0     # every child is killed past this point of the run
SETUP_REPEATS = 11      # single imports vary by up to 2x; a median steadies them
PROBE_PERIOD_S = 0.01   # the speed probe times one reference loop this often
NOMINAL_LOOP_S = 2e-4   # CPU time of one reference loop at the nominal speed

CLI_CODE = "import sys; from primscan.cli import main; sys.exit(main())"
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import primscan.cli
if len(sys.argv) > 1:
    primscan.cli.parse_rep_file(sys.argv[1])
print(time.perf_counter() - t0, primscan.cli.__file__)
"""


@dataclass(frozen=True)
class Workload:
    commands: tuple     # (argv with {rep}/{seed} fields, output check)
    items: int          # work units per iteration

    @property
    def uses_rep(self):
        return any("{rep}" in argv for argv, _ in self.commands)


WORKLOADS = {
    # exhaustive suites at the default caps; they take no seed
    "lemmas": Workload(
        ((("verify-lemmas",), validate.check_lemmas),),
        items=sum(validate.LEMMA_CHECKS.values())),
    "ps-scan": Workload(
        ((("scan-ps", "--rep", "{rep}", "--max-den", "20"),
          partial(validate.check_scan, max_den=20)),),
        items=validate.SCAN_CLASSES[20]),
    "bowditch-deep": Workload(
        ((("scan-bowditch", "--rep", "{rep}", "--max-den", "200"),
          partial(validate.check_scan, max_den=200)),),
        items=validate.SCAN_CLASSES[200]),
    "certify-mc": Workload(
        ((("detour", "--trials", str(validate.TRIALS), "--seed", "{seed}"),
          validate.check_trials),
         (("quadrilateral", "--trials", str(validate.TRIALS), "--seed",
           "{seed}"),
          validate.check_trials)),
        items=2 * validate.TRIALS),
}


def _reference_loop():
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S, by its thread
    CPU time, from a thread pinned to the CPU the children run on.

    The host's speed drifts by up to 1.7x over seconds to minutes, with the
    load of other tenants, and a child's times drift with it.  The loop runs
    between the child's time slices on the same CPU and slows by the same
    factor, so a child's time scaled by NOMINAL_LOOP_S / (median loop time
    over the child's life) is steady where the raw time is not."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.thread_time()
        _reference_loop()
        self.samples.append(time.thread_time() - t0)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, since):
        """Factor that takes a time measured from sample index `since` on to
        the nominal speed."""
        loops = self.samples[since:] or self.samples[-1:]
        return NOMINAL_LOOP_S / statistics.median(loops)


@dataclass(frozen=True)
class Child:
    code: int
    wall: float         # s, as measured
    cpu: float          # s, user + system, as measured
    rss_mb: float       # peak resident set
    out: str
    err: str
    scale: float        # SpeedProbe.scale over the child's life


class Runner:
    """Starts one child at a time from the checkout root, each with a
    deadline, and reaps it with os.wait4 for its own resource usage.  The
    caller and its children are pinned to one CPU, the probe's."""

    def __init__(self, tmp, deadline, probe):
        self.tmp = tmp
        self.deadline = deadline
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.count = 0

    def spawn(self, argv):
        """Run `python3 *argv` to its end; returns its Child."""
        self.count += 1
        out_path = self.tmp / f"child{self.count}.out"
        err_path = self.tmp / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            since = len(self.probe.samples)
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv],
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.1, self.deadline - time.perf_counter()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        return Child(os.waitstatus_to_exitcode(status), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     out_path.read_text(), err_path.read_text(),
                     self.probe.scale(since))


def layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        out.append((f"{name}.calls", "count"))
        if qualname == "HPoint":
            continue
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s")]
        if name == "cli.emit":
            out.append(("cli.emit.bytes", "B"))
        if name == "geometry.axis_of":
            out.append(("geometry.axis_of.errors", "count"))
        if name == "blocks.run_suite":
            for suite in validate.LEMMA_CHECKS:
                out += [(f"{name}.{suite}.s", "s"),
                        (f"{name}.{suite}.checks", "count")]
    return out + [("scans.fricke_rel_err", "ratio"),
                  ("trace.overhead_s", "s")]


END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))


class Bench:
    """One run of one workload: its seeded commands, the validation of
    their outputs and the attempted/failed counts."""

    def __init__(self, workload, seed, seconds, runner, rep):
        self.workload = workload
        self.seconds = seconds
        self.runner = runner
        self.rep = rep
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def commands(self, iteration):
        """(argv, validator) of each command of one iteration.  Iteration
        k passes --seed 1000*seed + k: certify-mc's work varies by about
        10% with its seed, and the run's median over several seeds is
        steadier than one seed's cost."""
        seed = 1000 * self.seed + iteration
        fields = {"rep": str(self.rep), "seed": str(seed)}
        return [([arg.format(**fields) for arg in argv], validator)
                for argv, validator in self.workload.commands]

    def check(self, code, text, err, validator):
        """Count and validate one command's result; returns the Fricke
        error, or None for a failed command."""
        self.attempted += 1
        try:
            if code != 0:
                raise validate.Invalid(f"exit code {code}: {err.strip()}")
            return validator(text)
        except validate.Invalid as e:
            self.failed += 1
            print(f"perfbench: failed command: {e}", file=sys.stderr)
            return None

    def loop(self, iteration):
        """Run iteration() back to back until the next one would end past
        the measuring time (at least once); returns the results."""
        start = time.perf_counter()
        results, took = [], []
        while True:
            t0 = time.perf_counter()
            results.append(iteration())
            took.append(time.perf_counter() - t0)
            if (time.perf_counter() - start + statistics.median(took)
                    > self.seconds):
                return results

    def setup(self):
        """Median time for a fresh interpreter to import primscan.cli and
        parse the representation file; the first, untimed start compiles
        the bytecode cache and checks that ./src is what gets imported."""
        argv = ["-c", SETUP_CODE, *([str(self.rep)] if self.rep else [])]
        times = []
        for _ in range(SETUP_REPEATS + 1):
            child = self.runner.spawn(argv)
            if child.code != 0:
                raise SystemExit(f"perfbench: set-up failed: "
                                 f"{child.err.strip()}")
            seconds, module_file = child.out.split()
            if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"perfbench: imported {module_file}, "
                                 f"not the package under {ROOT / 'src'}")
            times.append(float(seconds) * child.scale)
        return statistics.median(times[1:])

    def end_to_end(self):
        setup_s = self.setup()
        peak = 0.0

        def iteration():
            nonlocal peak
            wall = cpu = raw = 0.0
            ok = True
            for argv, validator in self.commands(next(counter)):
                child = self.runner.spawn(["-c", CLI_CODE, *argv])
                wall += child.wall * child.scale
                cpu += child.cpu * child.scale
                raw += child.wall
                peak = max(peak, child.rss_mb)
                ok = (self.check(child.code, child.out, child.err, validator)
                      is not None and ok)
            return ok, wall, cpu, raw

        counter = itertools.count()
        results = self.loop(iteration)
        good = [r for r in results if r[0]] or results
        walls = sorted(r[1] for r in good)
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(r[2] for r in good),
            "setup_s": setup_s,
            "items_per_s": self.workload.items / wall_s,
            "peak_rss_mb": peak,
        }
        n = len(walls)
        rank = n - 10   # the highest rank with 10 samples beyond it
        tail = (f"p{100 * rank // n}={walls[rank - 1]:.4f} s" if rank >= 1
                else "no percentile has 10 samples beyond it")
        print(f"wall_s samples: n={n}, median {wall_s:.4f} s, {tail}; "
              f"all: {' '.join(f'{w:.4f}' for w in walls)}; unscaled "
              f"median {statistics.median(r[3] for r in good):.4f} s")
        return metrics

    def traced(self, trace_file):
        """Per-layer values of each (untraced, traced) pair of in-process
        runs; the last traced run's aggregates and spans go to trace_file.
        Every pair runs the commands of iteration 0, so the counts of all
        pairs agree."""
        commands = self.commands(0)

        def child(trace, index):
            outdir = self.runner.tmp / f"inproc{index}-{int(trace)}"
            outdir.mkdir()
            spec = outdir / "spec.json"
            spec.write_text(json.dumps({
                "commands": [argv for argv, _ in commands],
                "trace": trace, "outdir": str(outdir)}))
            child = self.runner.spawn(
                [str(ROOT / "perfbench" / "tracer.py"), str(spec)])
            if child.code != 0:
                raise SystemExit(f"perfbench: in-process run failed: "
                                 f"{child.err.strip()}")
            result = json.loads((outdir / "result.json").read_text())
            errors = [self.check(c["code"], Path(c["out"]).read_text(), "",
                                 validator)
                      for c, (_, validator) in zip(result["commands"],
                                                   commands)]
            result["fricke"] = max((e or 0.0) for e in errors)
            result["wall_s"] = sum(c["wall_s"] for c in result["commands"])
            return result

        def pair():
            index = next(indices)
            return child(False, index), child(True, index)

        indices = itertools.count()
        pairs = self.loop(pair)
        last = pairs[-1][1]
        trace_file.write_text(json.dumps(
            {"stats": last["stats"], "spans": last["spans"]}))
        return [self.layer_values(*p) for p in pairs]

    @staticmethod
    def layer_values(plain, traced):
        stats, values = traced["stats"], {}
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            calls, incl, child, errors = stats[name]
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = incl / 1e9
            values[f"{name}.self_s"] = (incl - child) / 1e9
            if name == "geometry.axis_of":
                values[f"{name}.errors"] = errors
        values["cli.emit.bytes"] = sum(c["bytes"]
                                       for c in traced["commands"])
        for suite in validate.LEMMA_CHECKS:
            spans = [s for s in traced["spans"] if s.get("suite") == suite]
            values[f"blocks.run_suite.{suite}.s"] = sum(
                s["end_ns"] - s["start_ns"] for s in spans) / 1e9
            values[f"blocks.run_suite.{suite}.checks"] = sum(
                s["checks"] for s in spans)
        values["scans.fricke_rel_err"] = traced["fricke"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return values


def metadata():
    rev = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or rev
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.perf_counter() + RUN_LIMIT_S
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "primscan" / "cli.py").is_file():
        print(f"perfbench: no primscan sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = contract["per_layer" if args.trace else "end_to_end"]
    units = dict(layer_metrics() if args.trace else END_TO_END)
    if {m["name"]: m["unit"] for m in expected} != units:
        print("perfbench: metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 2

    print("meta", json.dumps({**metadata(), "workload": args.workload,
                              "seed": args.seed, "trace": args.trace}))
    workload = WORKLOADS[args.workload]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with (tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp,
          SpeedProbe() as probe):
        tmp = Path(tmp)
        rep = None
        if workload.uses_rep:
            rep = tmp / "rep.json"
            inputs.write_rep(rep, args.seed)
        bench = Bench(workload, args.seed, args.seconds,
                      Runner(tmp, deadline, probe), rep)
        if args.trace:
            runs = bench.traced(ROOT / ".perfbench" /
                                f"trace-{args.workload}-seed{args.seed}.json")
            values = {name: statistics.median(run[name] for run in runs)
                      for name in units}
        else:
            values = bench.end_to_end()
    for name, unit in units.items():
        print(f"{name:44s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

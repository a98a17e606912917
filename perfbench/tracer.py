"""Run primscan commands in-process, optionally with per-layer tracing.

Usage: python3 tracer.py SPEC.json

SPEC holds {"commands": [argv, ...], "trace": bool, "outdir": path}.  Each
command runs through `primscan.cli.main(argv)` with stdout captured in a
buffer (so `cli.emit` does its real work) and written to
OUTDIR/cmd<i>.out; the result goes to OUTDIR/result.json.

With tracing on, every function in TARGETS is replaced, in every
`primscan.*` namespace that holds it, by a wrapper that counts calls and
inclusive and child time.  The functions in COARSE also record a span with
its parent, so one suite or scan can be told from the next.  Nothing is
written until the commands are done.
"""

import contextlib
import io
import json
import sys
import time
import traceback

# (module, qualified name) of every traced callable; a class stands for
# its __init__, "Class.method" for a method.
TARGETS = (
    ("cli", "main"), ("cli", "emit"),
    ("blocks", "run_suite"), ("blocks", "enumerate_primitive_classes"),
    ("blocks", "build_blocks"), ("blocks", "adapted_permutation"),
    ("blocks", "classify_magic_subword"),
    ("words", "rotate"), ("words", "rotations"),
    ("geometry", "apply"), ("geometry", "HPoint"), ("geometry", "distance"),
    ("geometry", "fermi_point"), ("geometry", "axis_of"),
    ("geometry", "geodesic_metrics"), ("geometry", "dist_to_geodesic"),
    ("geometry", "Segment"), ("geometry", "dist_to_segment"),
    ("geometry", "minimize_convex"), ("geometry", "Representation.word_image"),
    ("geometry", "classify"), ("geometry", "translation_length"),
    ("geometry", "parse_rep_file"),
    ("scans", "class_matrix"), ("scans", "ps_scan"),
    ("scans", "bowditch_scan"),
    ("certify", "detour_verify"), ("certify", "measure_detour"),
    ("certify", "quadrilateral_check"), ("certify", "check_quadrilateral"),
    ("certify", "segment_gap"),
)
COARSE = frozenset({
    "cli.main", "blocks.run_suite", "scans.ps_scan", "scans.bowditch_scan",
    "certify.detour_verify", "certify.quadrilateral_check",
})


class Tracer:
    """Per-name aggregates [calls, inclusive ns, child ns, errors] for every
    wrapped callable, plus spans for the coarse ones."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self._child_ns = []      # wrapped-child time of each open call
        self._open_spans = []    # ids of the open coarse spans
        self.command = 0

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        def hot(*args, **kwargs):
            child_ns.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += child_ns.pop()
                if child_ns:
                    child_ns[-1] += dt

        if name not in COARSE:
            return hot

        def coarse(*args, **kwargs):
            span = {"id": len(self.spans), "command": self.command,
                    "parent": self._open_spans[-1] if self._open_spans
                    else None, "name": name, "start_ns": clock()}
            self.spans.append(span)
            self._open_spans.append(span["id"])
            try:
                result = hot(*args, **kwargs)
            finally:
                self._open_spans.pop()
                span["end_ns"] = clock()
            if name == "blocks.run_suite":
                span["suite"], span["checks"] = result.suite, result.checks
            return result

        return coarse

    def install(self, modules):
        """Rebind each target in every module namespace holding it."""
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = modules[f"primscan.{module_name}"]
            cls_name, _, method = qualname.partition(".")
            obj = getattr(owner, cls_name)
            if method:
                setattr(obj, method, self.wrap(name, getattr(obj, method)))
            elif isinstance(obj, type):
                obj.__init__ = self.wrap(name, obj.__init__)
            else:
                wrapper = self.wrap(name, obj)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is obj:
                            setattr(module, attr, wrapper)


def run(spec):
    import primscan.cli as cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name == "primscan" or name.startswith("primscan.")})
    commands = []
    for i, argv in enumerate(spec["commands"]):
        if tracer:
            tracer.command = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - t0
        text = buf.getvalue()
        out_path = f"{spec['outdir']}/cmd{i}.out"
        with open(out_path, "w") as fh:
            fh.write(text)
        commands.append({"code": code, "wall_s": wall, "out": out_path,
                         "bytes": len(text.encode())})
    result = {"commands": commands}
    if tracer:
        result["stats"] = tracer.stats
        result["spans"] = tracer.spans
    with open(f"{spec['outdir']}/result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        run(json.load(fh))

"""Checks on the package source itself, parsed with `ast`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "primscan"

# every function or class that nothing in src/ names, with the reason it
# stays; a new entry needs a reason, and an entry whose last user goes
# must go with it
UNNAMED_IN_SRC = {
    "adapted_permutation": "tracer target; one checked adapted rotation as "
                           "a value, the per-rotation reference of the "
                           "perm-cycl suite",
    "axis_of": "tracer target; test reference for the per-rotation frames",
    "class_matrix": "tracer target; the image of a tower's class word",
    "classify_magic_subword": "tracer target; the checked entry to the "
                              "magic-subword matcher",
    "dist_to_geodesic": "tracer target; test reference for the "
                        "per-rotation frames",
    "fermi_point": "tracer target",
    "is_primitive": "public API: the README's library tour",
    "minimize_convex": "tracer target; test reference for the line searches",
    "power_displacement": "test reference: criterion 7 reads it",
    "rotations": "tracer target; test reference for cyclic words",
    "slope_of": "public API: the README's library tour",
    "sub_excursion_in": "public API: the README's excursion example",
    "substitute": "test reference: letter substitutions of words",
    "translation_length": "tracer target; public API: the README's "
                          "library tour",
}


def unnamed_definitions(trees):
    """Names of the functions and classes (dunders aside) defined in
    `trees` that none of them names as a name or an attribute.  A string
    of `__all__` is no use: exporting a name does not call it."""
    defined, named = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined - named


def test_unnamed_definitions_are_the_allowlist():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "blocks.py" for p in paths)
    trees = [ast.parse(p.read_text()) for p in paths]
    assert unnamed_definitions(trees) == set(UNNAMED_IN_SRC)


def bound_names(tree):
    """Every name a module reads, assigns or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_no_module_imports_numpy():
    # primscan has no runtime dependency: no module imports numpy, by a
    # statement or by its name as a string, and none binds `np`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names
                          if a.name.partition(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").partition(".")[0] == "numpy":
                    found.append((path.name, node.module))
            elif isinstance(node, ast.Constant) and node.value == "numpy":
                found.append((path.name, repr(node.value)))
        if "np" in set(bound_names(tree)):
            found.append((path.name, "np"))
    assert found == []


def test_seeded_commands_share_one_generator():
    # every seeded command draws from `geometry._seeded`: no module reads
    # numpy's generators, and only `geometry` builds a `random.Random`
    generators = [
        (p.name, ast.unparse(node)) for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute)
        and ast.unparse(node) in ("np.random", "random.Random")]
    assert generators == [("geometry.py", "random.Random")]


def test_certify_reads_no_private_attribute_of_geodesics_and_segments():
    # the frame of a geodesic, and where a segment lies in it, stay behind
    # `Geodesic` and `Segment`: `certify` uses their public methods
    geometry = ast.parse((SRC / "geometry.py").read_text())
    private = set()
    for node in geometry.body:
        if isinstance(node, ast.ClassDef) and node.name in ("Geodesic",
                                                            "Segment"):
            for item in ast.walk(node):
                if isinstance(item, ast.FunctionDef):
                    private.add(item.name)
                elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    private.update(ast.literal_eval(item.value))
    private = {name for name in private
               if name.startswith("_") and not name.endswith("__")}
    assert {"_g", "_norm", "_anchor_coord", "_lo", "_hi"} <= private
    certify = ast.parse((SRC / "certify.py").read_text())
    read = {node.attr for node in ast.walk(certify)
            if isinstance(node, ast.Attribute)}
    assert read & private == set()

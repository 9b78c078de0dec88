"""The package holds the pipeline: every top-level name is used by it or by the bench,
no module imports another's private names, and the names the bench traces exist."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from gmstruct import inducing, pliss
from gmstruct.dynamics import ModelSystem, uniform_solenoid

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmstruct"


def _defined(stmt):
    """Names a top-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read(stmt):
    """Names a statement reads, as a Name or as an Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_top_level_name_is_used_by_the_pipeline_or_the_bench():
    # a name counts as used when a statement other than its own definition
    # reads it, in the package or in bench/; the tests do not count
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    stmts = [(path, stmt) for path in sources
             for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    reads = [_read(stmt) for _, stmt in stmts]
    unused = []
    for i, (path, stmt) in enumerate(stmts):
        if path.parent != PACKAGE:
            continue
        for name in sorted(_defined(stmt)):
            if not name.startswith("__") and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def _callers(method):
    """Top-level functions and class methods of the package that call
    ``<obj>.<method>(...)`` or ``<method>(...)``."""
    found = set()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and not in_function:
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and method in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                found.add(".".join(scope))
            visit(child, inner, in_function or isinstance(child, ast.FunctionDef))

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,), False)
    return found


def test_one_stepper_pushes_the_tangent_cocycle():
    # every forward orbit with its tangent, Newton's replay of g^R included,
    # goes through CocycleScan.advance; cu_directions pushes along supplied
    # (dithered) history rows, not along g(t)
    assert _callers("push_tangent") == {"dynamics.CocycleScan.advance",
                                        "dynamics.cu_directions"}
    assert _callers("base_step") == {"dynamics.CocycleScan.advance"}


def test_one_element_sample_feeds_every_verify_check():
    # (P1), (P3) and (P4) read one sample and one edge solve, so no second
    # sample and no edge cache on the structure
    for name in ("_verifiable_elements", "element_edges"):
        assert _callers(name) == {"inducing.verify_structure"}, name
    tree = ast.parse((PACKAGE / "inducing.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "GibbsMarkovStructure")
    assert "_edges" not in {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}


#: the orbit state a ``CocycleScan`` steps: points, slopes and its buffer of g(t)
ORBIT_STATE = {"t", "s1", "s2", "spare", "_spare"}


def _is_scan_t(node):
    return (isinstance(node, ast.Attribute) and node.attr == "t"
            and "scan" in (getattr(node.value, "id", None), getattr(node.value, "attr", None)))


def test_only_the_stepper_writes_orbit_state():
    # carved orbits step on unread, so no stage rewinds or edits the points
    # and slopes that CocycleScan.advance steps
    writes = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if (isinstance(node, ast.Attribute) and node.attr in ORBIT_STATE
                    and path.name != "dynamics.py"
                    or isinstance(node, ast.Subscript) and _is_scan_t(node.value)):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name belongs to its own module; a name another module
    # imports is public
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("gmstruct")):
                found += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_names_the_bench_traces_exist():
    # every `--trace 1` run patches these: a missing model method crashes the
    # run, and a missing counted function or probe drops its counters
    tracer = _bench_tracer()
    assert set(tracer.MODEL_METHODS) <= set(vars(ModelSystem))
    names = list(tracer.RESULT_COUNTERS) + [f"{m}.{f}" for m, fs in tracer.PRIVATE_PROBES.items()
                                            for f in fs]
    for name in names:
        module, fn = name.split(".")
        assert inspect.isfunction(vars(importlib.import_module(f"gmstruct.{module}")).get(fn)), name


def test_the_bench_counters_read_the_real_results():
    # under the bench's tracer, each counted function runs on a small fixture
    # and its counter reads the real return value
    tracer = _bench_tracer()
    sys_ = uniform_solenoid(lambda_s=0.25)
    params = inducing.ConstructionParams(delta0=0.02, sigma=0.51, c=0.5, n_max=200,
                                         resolution=2.0 ** -14)
    with tracer.Tracer() as tr:
        structure = inducing.run_construction(sys_, params, p_base=0.37)
        inducing.verify_structure(structure, sys_, max_elements=10)
        pliss.disk_scan(sys_, pliss.disk_grid_points(0.3, 0.1, 1000), 100, 0.5)
    assert all(tr.calls[name][0] == 1 for name in tracer.RESULT_COUNTERS)
    assert tr.counters["inducing.verify.checked"] == 10
    assert tr.counters["inducing.newton.solves"] == 20
    assert tr.counters["pliss.scanned_points"] == 1000
    assert tr.counters["inducing.active_point_steps"] == sum(
        rec["delta_prev"] for rec in structure.trace)


def test_the_constant_expansion_scan_still_steps_every_orbit():
    # `bench/run.py --trace 1` holds the disk scan to grid x horizon tangent
    # pushes: the uniform scan sums one number, but pushes every orbit
    tracer = _bench_tracer()
    with tracer.Tracer() as tr:
        pliss.disk_scan(uniform_solenoid(), pliss.disk_grid_points(0.25, 0.45, 2048), 50, 0.5)
    assert tr.owner_points[("pliss.disk_scan", "dynamics.push_tangent")] == 2048 * 50

"""The benchmark's traced pass wraps fronttrack functions by their names in
perfbench/tracing.py SPANS; each must stay a module-level callable. The
shipped audit and p-system scenarios are benchmark inputs, README's
library example runs as written and its example scenario passes check,
the benchmark and README name the checks of cli.CHECKS, README's numerics
rows are the settings of tracker.NUMERICS and its diagnostics rows the
keys of cli._DIAGNOSTICS, the package exports only what the program
itself uses, the program names every function, class and method it
defines (or an allow-list says why not), and the solvers name no catalog
model."""

import ast
import importlib
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import fronttrack
from fronttrack import cli
from fronttrack import tracker as tk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_to_a_callable():
    tracing = load_tracing()
    assert "tracker.apply_event" in tracing.SPANS
    assert "tracker.slice_at" in tracing.SPANS
    for name in tracing.SPANS:
        mod_name, fn_name = name.split(".")
        module = importlib.import_module(f"fronttrack.{mod_name}")
        assert callable(getattr(module, fn_name, None)), name
    assert set(tracing.PARENT_SPANS) <= set(tracing.SPANS)


def load_workloads():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return root, workloads


def test_shipped_audit_scenario_is_the_benchmark_input(tmp_path):
    # scenarios/remark_audit.json is the audit-remark workload at seed 0,
    # so CI's check and run-twice steps cover the audited system path
    root, workloads = load_workloads()
    (job,) = workloads.build_jobs("audit-remark", 0, str(tmp_path / "job"))
    bench = json.loads(Path(job.path).read_text())
    job.close()
    shipped = json.loads((root / "scenarios" / "remark_audit.json").read_text())
    assert shipped.pop("outputs") == {"dir": "out/remark_audit"}
    bench.pop("outputs")
    assert shipped == bench


def test_shipped_psystem_scenario_is_a_corpus_draw(tmp_path):
    # scenarios/psystem_waves.json is corpus-200's p-system/0 at seed 0, so
    # CI's check and run-twice steps cover the p-system accurate solver
    root, workloads = load_workloads()
    (job,) = [job for job in workloads.build_jobs("corpus-200", 0, str(tmp_path))
              if job.label == "p-system/0"]
    shipped = json.loads((root / "scenarios" / "psystem_waves.json").read_text())
    cfg = job.config
    assert shipped["model"] == {"id": cfg.model_id}
    assert shipped["initial"] == cfg.initial
    assert shipped["numerics"] == {"epsilon": cfg.epsilon, "t_end": cfg.t_end}


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0],
                         re.S)
    namespace = {}
    exec(compile(code, "README.md (Library use)", "exec"), namespace)
    led = namespace["led"]
    assert namespace["timeline"].events and namespace["fronts"]
    assert (namespace["upsilon"] == led.Upsilons).all()


def test_check_lists_are_the_cli_table():
    # cli.CHECKS is the one list and order of checks; the benchmark's copy
    # and README's diagnostics.checks row must name the same
    root, workloads = load_workloads()
    assert workloads.ALL_CHECKS == list(cli.CHECKS)
    readme = (root / "README.md").read_text()
    (row,) = [line for line in readme.splitlines()
              if line.startswith("| `diagnostics.checks` |")]
    accepted = row.split("|")[3]
    assert re.findall(r"`(\w+)`", accepted) == list(cli.CHECKS)


def test_readme_example_scenario_passes_check(tmp_path):
    # the JSON block under "Scenario files" is a scenario check accepts
    section = README.read_text().split("### Scenario files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "example.json"
    path.write_text(block)
    assert cli.main(["check", str(path)]) == cli.EXIT_OK


def test_readme_numerics_rows_are_the_run_settings():
    # README's key table names numerics.<name> for each setting a scenario
    # gives RunConfig, and no other numerics key
    keys = set()
    for line in README.read_text().splitlines():
        if line.startswith("| `numerics."):
            keys |= set(re.findall(r"`(numerics\.[\w.]+)`", line.split("|")[1]))
    assert keys == {f"numerics.{name}" for name in tk.NUMERICS}


def test_readme_diagnostics_rows_are_the_plan_keys():
    # README's key table names diagnostics.<name> for each key of
    # cli._DIAGNOSTICS (the convergence section by its two keys), and no
    # other diagnostics key: no row documents a key the plan refuses
    keys = set()
    for line in README.read_text().splitlines():
        if line.startswith("| `diagnostics."):
            keys |= set(re.findall(r"`(diagnostics\.[\w.]+)`",
                                   line.split("|")[1]))
    assert keys == ({f"diagnostics.{name}" for name in cli._DIAGNOSTICS
                     if name != "convergence"}
                    | {"diagnostics.convergence.scenario",
                       "diagnostics.convergence.ladder"})


def test_every_export_is_used_by_the_program():
    # a name in fronttrack.__all__ must appear as a Name or an Attribute in
    # some module of the package other than __init__.py: an export that
    # only tests call is public API nothing calls
    src = Path(fronttrack.__file__).resolve().parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = set(fronttrack.__all__) - {"__version__"}
    assert sorted(exported - used) == []


# definitions nothing in src/ names, each with the reason it stays
UNREFERENCED_ALLOWED = {
    "diagnostics.min_characteristic": "perfbench's SPANS trace it by name",
    "diagnostics.make_region": "perfbench's SPANS trace it by name",
    "tracker.FrontField.validate": "perfbench's gate_timeline calls it",
    "measures.lambda_component_slice": "waits to become a check (ROADMAP item 2)",
}


def unreferenced_definitions(src):
    """The module-level functions and classes (module.name) and non-dunder
    methods (module.Class.method) of the .py files in src that no Name or
    Attribute in those files names outside the definition itself, leaving
    out the names in fronttrack.__all__."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr

    used = Counter(n for tree in trees.values() for n in names(tree))
    defs = (ast.FunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            exported = node.name in fronttrack.__all__
            members = [] if exported else [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))]
            for qualname, d in members:
                name = qualname.rsplit(".", 1)[-1]
                if used[name] == Counter(names(d))[name]:
                    found.append(f"{module}.{qualname}")
    return found


def test_every_definition_is_used_by_the_program():
    # a function, class or method that src/ never names outside itself is
    # code the program does not run; the allow-list says why each is kept
    src = Path(fronttrack.__file__).resolve().parent
    assert sorted(unreferenced_definitions(src)) == sorted(UNREFERENCED_ALLOWED)


def test_solvers_name_no_catalog_model():
    # each model owns its wave curve, so riemann.py names no catalog model
    # class (ScalarModel, the envelope path's base, is not one), and
    # flux_core.py, which the solvers lend brentq, does not import riemann
    src = Path(fronttrack.__file__).resolve().parent
    names = set()
    for node in ast.walk(ast.parse((src / "riemann.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "ScalarModel" in names
    assert not names & {"Burgers", "Cubic", "Remark2x2", "PSystem", "Linear"}
    imported = set()
    for node in ast.walk(ast.parse((src / "flux_core.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported |= {alias.name for alias in node.names}
    assert "riemann" not in imported

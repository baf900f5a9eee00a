"""Import layering of the package, read from its source with ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairdiv"

# the engine and everything built on it; the oracles audit them, so they
# must not share their code
ENGINE = {"mechanisms", "axioms", "strategic", "claims", "cli"}


def _imports(module):
    """``(imported module, name)`` for each name ``module`` takes from a
    sibling module of the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("fairdiv."):
                source = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                # `from . import x` imports the module x itself
                found.append((source or alias.name, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fairdiv."):
                    found.append((alias.name.split(".")[1], ""))
    return found


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_the_package_is_read():
    assert {"core", "oracle", "mechanisms", "instances"} <= set(MODULES)
    assert ("core", "integer_rows") in _imports("oracle")


def test_the_oracle_imports_nothing_from_the_engine():
    assert {source for source, _ in _imports("oracle")} & ENGINE == set()


def test_no_module_imports_a_private_name_from_another():
    private = [(module, source, name) for module in MODULES
               for source, name in _imports(module) if name.startswith("_")]
    assert private == []


def _validating_calls(module):
    """Line numbers where ``module`` calls `AllocationDistribution` or its
    ``from_map``, the path that validates outside input."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "from_map":
                func = func.value
            if isinstance(func, ast.Name) and func.id == "AllocationDistribution":
                lines.append(node.lineno)
    return lines


def test_engines_build_distributions_past_the_validating_path():
    # only the worked examples build distributions from outside input;
    # the engines hand core their int weights
    assert _validating_calls("instances")
    calls = {module: _validating_calls(module) for module in MODULES
             if module not in ("core", "instances")}
    assert {module: lines for module, lines in calls.items() if lines} == {}


def test_the_pea_certificate_reaches_no_oracle_code():
    # the reference pea checker audits the supporting-weights certificate
    # through the oracle's LP, so the certificate must not reach the
    # oracle: it uses no name from a sibling module and no other function
    # of axioms, through which it could
    tree = ast.parse((PACKAGE / "axioms.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_supporting_weights")
    imported = _imports("axioms")
    assert ("oracle", "pea_solution") in imported
    local = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not helper}
    used = {node.id for node in ast.walk(helper) if isinstance(node, ast.Name)}
    assert used & ({name for _, name in imported} | local) == set()


def _functions_taking(module, parameter):
    """Names of the functions and lambdas in ``module`` with a parameter
    named ``parameter``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    taking = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            if parameter in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                taking.append(getattr(node, "name", "<lambda>"))
    return taking


def test_no_function_takes_a_work_bound_parameter():
    # the work bound is one scoped setting; only the setting itself,
    # `core.work_bound`, takes it, and no layer hands it on
    taking = [(module, name) for module in MODULES
              for name in _functions_taking(module, "max_nodes")]
    assert taking == [("core", "work_bound")]


def test_no_checker_takes_a_utilities_parameter():
    # every axiom is judged on the distribution's own instance, which
    # holds the true utilities of a run on bids too
    assert _functions_taking("axioms", "utilities") == []

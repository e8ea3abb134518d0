"""The import graph stays lean: packages re-export lazily, entry points
load only the modules they run, and registries fill whatever is imported
first.

Each import check runs in a fresh interpreter, so modules an earlier test
imported cannot mask what an import really loads.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)
HEAVY = ("multiprocessing", "subprocess", "asyncio", "numpy")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def modules_loaded_by(statements: str) -> list:
    """Every module ``statements`` adds to ``sys.modules``."""
    return run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        + textwrap.dedent(statements)
        + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n"
    )


def test_import_repro_loads_only_the_helper():
    loaded = modules_loaded_by("import repro")
    assert [name for name in loaded if name.startswith("repro")] == [
        "repro", "repro._lazy",
    ]
    assert not set(HEAVY) & set(loaded)


def test_cli_import_loads_no_subcommand():
    loaded = modules_loaded_by("import repro.cli")
    assert not set(HEAVY) & set(loaded)
    assert not [name for name in loaded if name.startswith(
        ("repro.service", "repro.fuzz", "repro.obs", "repro.analysis"))]


def test_generator_sweep_loads_no_optional_layer():
    loaded = set(modules_loaded_by("""
        from repro.analysis.experiments import run_conciliator_trials
        from repro.core.sifting_conciliator import SiftingConciliator

        stats = run_conciliator_trials(
            lambda: SiftingConciliator(4), list(range(4)), trials=2
        )
        assert stats.trials == 2
    """))
    unwanted = {
        "repro.runtime.vectorized", "multiprocessing", "subprocess",
        "repro.obs.bench", "repro.obs.analyze", "repro.obs.timeline",
        "repro.obs.trend", "repro.runtime.faults",
    }
    assert not unwanted & loaded
    assert not [name for name in loaded
                if name.startswith(("repro.service", "repro.fuzz"))]


def test_service_loads_no_simulation_fault_vocabulary():
    loaded = set(modules_loaded_by("import repro.service.service"))
    assert not {"repro.runtime.faults", "repro.runtime.backoff"} & loaded


def test_every_public_name_resolves_to_its_defining_module():
    problems = run_fresh(f"""
        import importlib, json

        problems = []
        for package_name in {PACKAGES!r}:
            package = importlib.import_module(package_name)
            listed = dir(package)
            for module_name, names in package._EXPORTS.items():
                module = importlib.import_module(module_name)
                for name in names:
                    value = getattr(package, name)
                    owner = getattr(value, "__module__", module_name)
                    if (name not in package.__all__ or name not in listed
                            or value is not getattr(module, name)
                            or (callable(value) and owner != module_name)):
                        problems.append(f"{{package_name}}.{{name}}")
        namespace = {{}}
        exec("from repro import *", namespace)
        missing = set(importlib.import_module("repro").__all__) - set(namespace)
        problems += sorted(f"star-import: {{name}}" for name in missing)
        print(json.dumps(problems))
    """)
    assert problems == []


def test_unknown_package_attribute_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name  # noqa: B018


def test_planted_stacks_register_when_stacks_is_imported_first():
    names = run_fresh("""
        import json
        from repro.fuzz.stacks import get_stack, stack_names

        get_stack("planted-validity")
        print(json.dumps(stack_names(include_planted=True)))
    """)
    assert [name for name in names if name.startswith("planted-")] == [
        "planted-validity", "planted-termination", "planted-coherence",
        "planted-agreement",
    ]


def _type_checking_imports(package_name: str) -> dict:
    """``{module: names}`` from the ``if TYPE_CHECKING:`` block of a
    package ``__init__``, checking each import re-exports its own name."""
    init = SRC.joinpath(*package_name.split("."), "__init__.py")
    imports: dict = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom)
                for alias in statement.names:
                    assert alias.asname == alias.name, alias.name
                    imports.setdefault(statement.module, set()).add(alias.name)
    return imports


@pytest.mark.parametrize("package_name", PACKAGES)
def test_static_imports_match_the_export_table(package_name):
    # Static analysis reads the TYPE_CHECKING imports and the runtime the
    # table: they must list the same names from the same modules.
    package = importlib.import_module(package_name)
    table = {module: set(names) for module, names in package._EXPORTS.items()}
    assert _type_checking_imports(package_name) == table

"""The simulator layer never imports the runner, the harness or the CLI.

``repro.runners.points`` states the layering: the runner imports the
simulator packages, the experiment harness imports the runner, and the
CLI sits on top, so nothing below may import upwards.  An AST scan of
every module below the runner (function-level imports included, since a
lazy import is still a dependency) keeps it that way.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: The layers above the simulators, as module names.
UPPER = ("repro.runners", "repro.experiments", "repro.cli")


def lower_layer_modules():
    """Every module except the upper layers and the root ``__init__``."""
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in ("runners", "experiments", "cli.py", "__init__.py"):
            continue
        yield path


def module_name(path):
    parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path):
    """(line, module) for each import in ``path``, relative ones resolved."""
    package = module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            # ``from repro import runners`` names the module in the alias.
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def is_upper(module):
    return any(module == name or module.startswith(name + ".") for name in UPPER)


def test_scan_covers_the_simulator_layer():
    scanned = {module_name(path) for path in lower_layer_modules()}
    assert {"repro.ideal.simulator", "repro.detailed.simulator",
            "repro.detailed.batched", "repro.obs.recorder"} <= scanned
    assert not any(is_upper(name) for name in scanned)


def test_no_lower_layer_module_imports_upwards():
    offenders = sorted({
        f"{path.relative_to(ROOT)}:{line}"
        for path in lower_layer_modules()
        for line, module in imported_modules(path)
        if is_upper(module)
    })
    assert offenders == []

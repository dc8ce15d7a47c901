"""Package layering: the lower layers never import the replay layer.

``repro.isa`` (the instruction set) and ``repro.detector`` (happens-
before detection over an event stream) sit below ``repro.replay``; an
upward import couples them to replay internals and invites package
cycles.  The scan reads every module's source, so it also catches
imports inside functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = "repro.replay"


def imported_modules(path: Path, root: Path = SRC):
    """Absolute names of the modules *path* imports (relative imports
    resolved against its package under *root*)."""
    package = ".".join(path.relative_to(root).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
            else:
                base = ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", ["isa", "detector"])
def test_layer_does_not_import_replay(layer):
    offenders = sorted(
        f"{path.relative_to(SRC)} imports {name}"
        for path in (SRC / "repro" / layer).rglob("*.py")
        for name in imported_modules(path)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    )
    assert offenders == []


def test_scan_resolves_relative_imports(tmp_path):
    """The scanner itself: ``from ..replay import x`` inside
    ``repro.isa`` resolves to ``repro.replay``."""
    module = tmp_path / "repro" / "isa" / "probe.py"
    module.parent.mkdir(parents=True)
    module.write_text("from ..replay.program_map import Known\n"
                      "from .. import replay\n")
    names = set(imported_modules(module, root=tmp_path))
    assert "repro.replay.program_map" in names
    assert "repro.replay" in names

"""Package layering: the lower layers never import the replay layer,
and no layer fans out over threads.

``repro.isa`` (the instruction set) and ``repro.detector`` (happens-
before detection over an event stream) sit below ``repro.replay``; an
upward import couples them to replay internals and invites package
cycles.  Parallel work is whole traces on worker processes
(:mod:`repro.parallel`): the analysis is pure Python, so a thread pool
only adds GIL contention.  The scans read every module's source, so
they also catch imports inside functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = "repro.replay"
#: Thread fan-out: the module, or the pool class however it is reached.
THREAD_POOL = "ThreadPoolExecutor"


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


def thread_fan_out(path: Path, root: Path = SRC):
    """Where *path* imports ``threading`` or reaches
    ``concurrent.futures.ThreadPoolExecutor``."""
    found = [name for name in imported_modules(path, root)
             if name == "threading" or name.startswith("threading.")
             or name.endswith("." + THREAD_POOL)]
    found += [f"attribute {node.attr}"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and node.attr == THREAD_POOL]
    return found


def test_no_thread_fan_out():
    offenders = sorted(
        f"{path.relative_to(SRC)} uses {name}"
        for path in (SRC / "repro").rglob("*.py")
        for name in thread_fan_out(path)
    )
    assert offenders == []


def test_thread_scan_catches_every_spelling(tmp_path):
    module = tmp_path / "repro" / "probe.py"
    module.parent.mkdir(parents=True)
    for source in ("import threading\n",
                   "from threading import Thread\n",
                   "def f():\n    from concurrent.futures import "
                   "ThreadPoolExecutor\n",
                   "import concurrent.futures as cf\n"
                   "cf.ThreadPoolExecutor\n"):
        module.write_text(source)
        assert thread_fan_out(module, root=tmp_path), source
    module.write_text("from concurrent.futures import ProcessPoolExecutor\n")
    assert thread_fan_out(module, root=tmp_path) == []


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

import ast
import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import egomwf
from egomwf.config import EnhanceConfig


def test_every_export_resolves():
    assert len(set(egomwf.__all__)) == len(egomwf.__all__)
    for name in egomwf.__all__:
        obj = getattr(egomwf, name)
        # each export is defined in a package module that still carries it
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("egomwf.")
        assert getattr(module, name) is obj


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, including quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _referenced_names(ast.parse(ann.value, mode="eval"))
    return names


def test_no_unused_imports():
    """Each package module uses every name it imports (__init__ re-exports
    and __future__ imports are exempt)."""
    unused = []
    for path in sorted(Path(egomwf.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def test_every_config_field_is_read():
    """Each EnhanceConfig field is read as `.<field>` by some package module
    other than config.py, so a setting that nothing acts on fails here."""
    read = set()
    for path in Path(egomwf.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text())
            read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(EnhanceConfig) if f.name not in read]
    assert not unread, unread


def test_benchmark_probe_bindings_resolve(monkeypatch):
    """Every name the benchmark tracer wraps (the bindings of PROBES in
    perfbench/spans.py) is still a callable, so a refactor that renames or
    drops a probed function fails here instead of in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up; leave no bytecode beside the benchmark
    monkeypatch.setitem(sys.modules, spec.name, spans)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    bindings = [binding for probe in spans.PROBES for binding in probe.bindings]
    assert len(bindings) >= 20
    missing = []
    for binding in bindings:
        module, name = binding.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.append(binding)
    assert not missing, missing


# public names no package or benchmark module reads, kept on purpose:
# implied_speech_covariance is the paper's R_ss estimate, the reference the
# filter tests compare weights against (R_yy^-1 R_ss e_ref)
TEST_REFERENCE_API = {"implied_speech_covariance"}


def _read_names(tree: ast.AST) -> set[str]:
    """Bare names and attribute names a module reads."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _referenced_names(tree) | attrs


def test_no_test_only_public_api():
    """Every public module-level function and class of the package is read
    by a package module other than __init__.py, or by a non-test benchmark
    module (where a probe's binding string counts), so no public code path
    lives on for the tests alone."""
    defined = {}
    read = set()
    for path in Path(egomwf.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        if path.name != "__init__.py":
            read |= _read_names(tree)
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text())
            strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
            read |= _read_names(tree) | {s.rsplit(".", 1)[-1] for s in strings if isinstance(s, str)}
    unread = sorted(f"{defined[n]}:{n}" for n in set(defined) - read - TEST_REFERENCE_API)
    assert not unread, unread


# modules that may start threads; every other module uses scenegen.spread
THREAD_MODULES = {"scenegen.py"}


def test_spread_is_the_only_way_to_start_threads():
    """Only scenegen imports threading or concurrent.futures, no package
    module uses cached_property, so no lazy, locked state comes back, and
    none imports multiprocessing or names ProcessPoolExecutor or os.fork,
    so the sweep stays in one process."""
    found = []
    for path in sorted(Path(egomwf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                top = module.split(".")[0]
                if top in ("threading", "concurrent") and path.name not in THREAD_MODULES:
                    found.append(f"{path.name}:{node.lineno} imports {module}")
                if top == "multiprocessing":
                    found.append(f"{path.name}:{node.lineno} imports {module}")
        names = _read_names(tree) | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for name in ("cached_property", "ProcessPoolExecutor", "fork"):
            if name in names:
                found.append(f"{path.name} uses {name}")
    assert not found, found


# lines src/egomwf/*.py may hold (the seed had 2588): lower it whenever a
# change leaves the package smaller, so the count only ever ratchets down;
# raised from 2606 by the numpy-only WAV I/O, resampler and speech filters
LINE_BUDGET = 2621


def test_package_stays_within_its_line_budget():
    paths = Path(egomwf.__file__).parent.glob("*.py")
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines <= LINE_BUDGET, f"src/egomwf has {lines} lines, over its budget of {LINE_BUDGET}"


def test_package_runs_without_scipy(tmp_path):
    """In a fresh interpreter, importing every package module and using the
    speech generator, the resampler and WAV reading and writing loads no
    scipy module: numpy is the only runtime dependency."""
    package = Path(egomwf.__file__).parent
    modules = sorted(f"egomwf.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    code = f"""
import importlib, sys
sys.path.insert(0, {str(package.parent)!r})
for name in {modules!r}:
    importlib.import_module(name)
from egomwf import read_wav, resample, write_wav
from egomwf.speechgen import speech_like
write_wav(resample(speech_like(1.0, 16000, 0), 10000), {str(tmp_path / "s.wav")!r}, "16")
assert read_wav({str(tmp_path / "s.wav")!r}).n_frames == 10000
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout

"""perfbench's layer hooks still find every package attribute they wrap, and
the symbolic reports still match its golden digests.

``perfbench/layers.py`` wraps package functions and methods by name, so a
rename under ``src/`` would otherwise break only a traced benchmark run
(``run.py --trace 1``).  This installs the hooks, runs no workload, and
restores them.  The golden digests are those ``perfbench/golden.py`` records,
recomputed here and compared with ``perfbench/golden.json``.  Nothing under
``perfbench/`` is edited.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOOKS = 23  # wrap_function / wrap_method calls that layers.install makes up front
MODULES = ("layers", "tracer", "workloads")


@pytest.fixture
def perfbench_modules(monkeypatch):
    if not (PERFBENCH / "layers.py").is_file():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracer
    import workloads

    yield layers, tracer, workloads
    for name in MODULES:
        sys.modules.pop(name, None)


def test_layer_hooks_find_and_restore_every_attribute(perfbench_modules):
    layers, tracer, _ = perfbench_modules
    hooked = []  # (owner, attribute, original), one per wrap call

    class RecordingPatcher(tracer.Patcher):
        def wrap_function(self, module, attr, make):
            hooked.append((module, attr, vars(module)[attr]))
            super().wrap_function(module, attr, make)

        def wrap_method(self, cls, attr, make):
            hooked.append((cls, attr, vars(cls)[attr]))
            super().wrap_method(cls, attr, make)

    patcher = RecordingPatcher()
    try:
        layers.install(tracer.Tracer(), patcher)
        assert len(hooked) == HOOKS
        assert len({(id(owner), attr) for owner, attr, _ in hooked}) == HOOKS
        for owner, attr, original in hooked:
            assert vars(owner)[attr] is not original, attr
    finally:
        patcher.restore()  # raises if a wrapper is left anywhere in the package
    for owner, attr, original in hooked:
        assert vars(owner)[attr] is original, attr


def test_symbolic_reports_match_the_golden_digests(perfbench_modules):
    """Every symbolic report, runtime_info dropped, is byte-identical to the recorded one."""
    workloads = perfbench_modules[2]
    golden = workloads.load_golden()
    entries = {**workloads.golden_entries("tiny"), **workloads.golden_entries("full")}
    assert sorted(entries) == sorted(golden)
    for key, entry in entries.items():
        assert entry == golden[key], key

"""perfbench's layer hooks still find every package attribute they wrap, the
symbolic reports still match its golden digests, and the oracle-eigen checks
still hold at the seeds where they come closest to their bounds, with the
eigencheck ratios of three of those seeds pinned bit for bit.

``perfbench/layers.py`` wraps package functions and methods by name, so a
rename under ``src/`` would otherwise break only a traced benchmark run
(``run.py --trace 1``).  This installs the hooks, runs no workload, and
restores them.  The golden digests are those ``perfbench/golden.py`` records,
recomputed here and compared with ``perfbench/golden.json``.  Nothing under
``perfbench/`` is edited.
"""

import json
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


# Seeds 0-19, and the two seeds of 0-299 where a Coulomb [2,2] eigencheck comes
# closest to its criterion-9 bound: J = 1 at 0.755 of it at seed 89, and
# N_r = 1, J = 1 at 0.436 at seed 233 (the oscillator checks stay at or below
# 0.002 of theirs).
ORACLE_SEEDS = (*range(20), 89, 233)


def test_oracle_eigen_checks_hold_at_their_thinnest_seeds(perfbench_modules):
    """Every oracle-eigen item passes its check at each of ORACLE_SEEDS.  A
    coefficient's terms are summed in their stored order, so a change that
    reorders them moves these floats and can tip a seed over the bound."""
    workloads = perfbench_modules[2]
    for seed in ORACLE_SEEDS:
        state = workloads.setup_oracle("full", seed)
        out = workloads.run_oracle(state)
        items = workloads.check_oracle(state, out, [sec for _, sec, _ in out["results"]])
        assert len(items) == 10
        failed = [(item.name, item.detail) for item in items if not item.ok]
        assert not failed, (seed, failed)


# float.hex of every eigencheck ratio of run_oracle at seeds 5, 89 and 233, as
# recorded when the block-radial picture came in; the radial eigensolves, whose
# values come from LAPACK, are left out.  A change that reorders a coefficient's
# terms moves these floats, which can tip a thin seed over its bound in a
# benchmark pass; this shows the move here first.
PINNED_ORACLE_RATIOS = Path(__file__).with_name("oracle_eigen_ratios.json")


def test_oracle_eigen_ratios_are_pinned_bit_for_bit(perfbench_modules):
    workloads = perfbench_modules[2]
    pinned = json.loads(PINNED_ORACLE_RATIOS.read_text())
    for seed, items in pinned.items():
        out = workloads.run_oracle(workloads.setup_oracle("full", int(seed)))
        got = {name: [float(v).hex() for v in value] for name, _, value in out["results"]
               if name.startswith("eigencheck")}
        assert got == items, seed

"""CLI behavior: exit codes, reports, schema validation, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import blocksep
from blocksep import cli
from blocksep.cli import build_catalog, load_config, main, run_verify
from blocksep.errors import ConfigError
from blocksep.models import oscillator_spec
from blocksep.report import serialize
from oracles import validate_report


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_proposition_exit_zero(runner):
    res = runner.invoke(main, ["verify", "--catalog", "proposition-A"])
    assert res.exit_code == 0, res.output
    assert "prop-A-2" in res.output


def test_verify_oscillator_2_2(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(
        main, ["verify", "--catalog", "oscillator-algebra", "--blocks", "2,2",
               "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["summary"]["failed"] == 0
    assert (tmp_path / "report.txt").exists()


def test_verify_negative_controls_exit_one(runner, tmp_path):
    out = tmp_path / "neg.json"
    res = runner.invoke(main, ["verify", "--catalog", "negative-controls",
                               "--out", str(out)])
    assert res.exit_code == 1
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["summary"]["controls_flagged"] >= 2
    assert doc["summary"]["failed"] == 0  # controls behaved as designed


def test_invalid_blocks_exit_two(runner):
    res = runner.invoke(main, ["verify", "--catalog", "oscillator", "--blocks", "0,3"])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["verify", "--catalog", "nosuch", "--blocks", "2,2"])
    assert res2.exit_code == 2


def test_missing_blocks_exit_two(runner):
    res = runner.invoke(main, ["verify", "--catalog", "coulomb-yx"])
    assert res.exit_code == 2


def test_config_file_unknown_field_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"catalog": "proposition-A", "bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(str(p), {})


@pytest.mark.parametrize("doc", ["5", "null", '["catalog"]'])
def test_config_file_not_an_object_exit_two(runner, tmp_path, doc):
    config = tmp_path / "cfg.json"
    config.write_text(doc)
    res = runner.invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "config error:" in res.output


def test_config_validation():
    with pytest.raises(ConfigError):
        load_config(None, {"seed": 2**65})
    with pytest.raises(ConfigError):
        load_config(None, {"tol": -1.0})


@pytest.mark.parametrize("values", [
    {"probes": 0}, {"points": 0}, {"fd_order": 5}, {"fd_step": 0}, {"tol": "x"},
    {"jobs": "two"}, {"kmax": 3},
    {"catalog": 5}, {"catalog": ["oscillator"]}, {"params": {"w2": "x"}},
    {"params": {"w2": True}}, {"params": {"w2": math.nan}}, {"params": [1]},
    {"out": 7}, {"relation_file": 3}, {"family": "bogus"}, {"mode": "fast"},
    # numbers of the wrong JSON type, which would run as 3, 1, 2 and 2
    {"seed": 3.9}, {"probes": True}, {"points": "2"}, {"jobs": 2.7},
])
def test_bad_config_values_exit_two(runner, tmp_path, values):
    """Each value comes from the config file alone: no flag overrides it."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"catalog": "oscillator-algebra", "blocks": [1, 1],
                                  "mode": "numeric", "probes": 1, "points": 1} | values))
    res = runner.invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error:" in res.output


def test_fd_step_too_large_for_the_sampling_box_exit_two(runner, tmp_path):
    """A grid wider than the sampling box admits is a config error naming fd_step."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"catalog": "oscillator-algebra", "blocks": [2, 1],
                                  "mode": "numeric", "fd_step": 0.2, "probes": 1,
                                  "points": 2}))
    res = runner.invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error:" in res.output
    assert "fd_step 0.2" in res.output


@pytest.mark.parametrize("config, args", [
    ({"catalog": "oscillator-algebra",
      "model": {"family": "oscillator", "blocks": [2, 1], "omega2": "w2"}}, []),
    ({"catalog": "oscillator-algebra", "model": {"family": "oscillator", "blocks": "x"}}, []),
    ({}, ["--blocks", "0,2", "--relation-file", "REL"]),
], ids=["omega2-not-a-number", "blocks-not-a-list", "relation-file-bad-blocks"])
def test_bad_model_exit_two(runner, tmp_path, config, args):
    rel = tmp_path / "user.rel"
    rel.write_text("check-1: [Z[2], Hsum[2]]\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = [str(rel) if a == "REL" else a for a in args]
    res = runner.invoke(main, ["verify", "--config", str(cfg), *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error:" in res.output


@pytest.mark.parametrize("catalog", ["coulomb-yx", "coulomb"])
def test_coulomb_catalog_with_a_zero_potential(runner, tmp_path, catalog):
    """The closed-form correction of the yx displays folds a zero potential away."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": catalog, "model": {
        "family": "coulomb", "blocks": [1, 2], "potentials": [{"kind": "zero"}], "eta": "2"}}))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    items = json.loads(out.read_text())["items"]
    assert items and all(i["passed"] for i in items)


_OTHER_FAMILY = {
    "coulomb": {"family": "oscillator", "blocks": [1, 2],
                "potentials": [{"kind": "zero"}, {"kind": "zero"}]},
    "oscillator": {"family": "coulomb", "blocks": [1, 2], "potentials": [{"kind": "zero"}],
                   "eta": "2"},
}


@pytest.mark.parametrize("catalog", [c for c in cli.CATALOG_NAMES if c != "proposition-A"])
def test_catalog_over_a_model_of_the_other_family_exit_two(runner, tmp_path, catalog):
    """A catalog is written for one family; a model of the other is a config error."""
    family = "coulomb" if catalog.startswith("coulomb") else "oscillator"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": catalog, "model": _OTHER_FAMILY[family]}))
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"config error: catalog {catalog!r} is written for the {family} family" in res.output


@pytest.mark.parametrize("mode, code", [("symbolic", 2), ("both", 2), ("numeric", 0)])
def test_model2_potential_has_no_symbolic_run(runner, tmp_path, monkeypatch, mode, code):
    """A model2 potential has no exact form: symbolic items are inapplicable, so a
    symbolic run evaluates nothing and exits 2, ``both`` before its numeric pass,
    which could not change that verdict; the numeric run is unaffected."""
    if mode == "both":
        def no_numeric_pass(rs, config):
            raise AssertionError("numeric pass ran")

        monkeypatch.setattr(cli, "_verify_numeric", no_numeric_pass)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": "oscillator-algebra", "model": {
        "family": "oscillator", "blocks": [2, 1],
        "potentials": [{"kind": "model2", "A": "4", "B": "1"}, {"kind": "zero"}]}}))
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--mode", mode])
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    if code == 2:
        assert res.output == ("config error: catalog 'oscillator-algebra' has no relation "
                              "this model can evaluate\n")
    else:
        assert "summary: 3/3 passed" in res.output


@pytest.mark.parametrize("config, args", [
    ({"catalog": "proposition-A"}, ["--blocks", "2,2"]),
    ({"catalog": "proposition-A", "model": {
        "family": "coulomb", "blocks": [1, 2], "potentials": [{"kind": "zero"}], "eta": "2"}}, []),
], ids=["blocks", "config-model"])
def test_proposition_A_rejects_a_model(runner, tmp_path, config, args):
    """proposition-A runs on its own operator table; a model given to it would be
    echoed in the report without ever running, so it is a config error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["verify", "--config", str(cfg)] + args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.output == "config error: proposition-A carries its own model\n"


_CONST3 = {"kind": "constant", "value": "3"}


@pytest.mark.parametrize("levels, message", [
    ([{"kind": "hierarchy", "levels": [_CONST3, {"kind": "constant", "value": "5"}]},
      {"kind": "zero"}], "a hierarchy level is zero, constant or model2, not 'hierarchy'"),
    ([{"kind": "zero"}, {"kind": "model2", "A": "4", "B": "1"}],
     "Model2F11 is only allowed at the innermost hierarchy level"),
], ids=["nested-hierarchy", "model2-above-the-innermost-level"])
def test_hierarchy_level_exit_two(runner, tmp_path, levels, message):
    """Levels are parsed as levels: a nested hierarchy is not cut down to its first entry."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": "oscillator-commutativity", "model": {
        "family": "oscillator", "blocks": [3, 1],
        "potentials": [{"kind": "hierarchy", "levels": levels}, _CONST3]}}))
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"config error: {message}" in res.output


def test_symbolic_constant_inside_a_hierarchy_takes_its_default(runner, tmp_path):
    """beta1 of a hierarchy level is a model parameter, so numeric mode binds its default."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": "oscillator-algebra", "mode": "numeric",
                               "probes": 1, "points": 2, "model": {
        "family": "oscillator", "blocks": [3, 1],
        "potentials": [{"kind": "hierarchy", "levels": [{"kind": "zero"},
                                                        {"kind": "constant"}]}, _CONST3]}}))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    items = json.loads(out.read_text())["items"]
    assert len(items) == 3
    assert all(i["status"] == "zero" and i["passed"] for i in items)


def test_report_determinism():
    config = {"command": "verify", "catalog": "oscillator-algebra", "blocks": [1, 2],
              "mode": "symbolic", "seed": 7}
    r1 = run_verify(dict(config))
    r2 = run_verify(dict(config))
    assert serialize(r1, drop_runtime=True) == serialize(r2, drop_runtime=True)


def test_numeric_mode_report(runner, tmp_path):
    out = tmp_path / "num.json"
    res = runner.invoke(
        main,
        ["verify", "--catalog", "oscillator-algebra", "--blocks", "1,1",
         "--mode", "numeric", "--seed", "11", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    numeric_items = [i for i in doc["items"] if i["mode"] == "numeric"]
    assert numeric_items
    for item in numeric_items:
        assert item["residual"]["max_relative"] <= 1e-5


def test_mode_both_carries_both_item_sets(runner, tmp_path):
    out = tmp_path / "both.json"
    res = runner.invoke(
        main,
        ["verify", "--catalog", "oscillator-algebra", "--blocks", "1,1",
         "--mode", "both", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    modes = {i["mode"] for i in doc["items"]}
    assert modes == {"symbolic", "numeric"}


@pytest.mark.parametrize("source, blocks", [
    pytest.param({"catalog": "oscillator-algebra"}, [1, 1], id="oscillator-algebra"),
    pytest.param({"catalog": "gauge"}, [1, 1, 1], id="gauge"),  # one table env per level
    # table and model envs
    pytest.param({"catalog": "negative-controls"}, [2, 2], id="negative-controls"),
    # reading groups; two-atom denominators
    pytest.param({"catalog": "coulomb-zy"}, [1, 1, 1], id="coulomb-zy"),
    # brackets shared between relations
    pytest.param({"catalog": "oscillator"}, [2, 2], id="oscillator"),
    # workers read the file again
    pytest.param({"relation_file": "REL"}, [2, 2], id="relation-file"),
])
def test_parallel_jobs_match_serial(tmp_path, source, blocks):
    rel = tmp_path / "user.rel"
    rel.write_text("check-1: [Z[2], Hsum[2]]\ncheck-2: G[1,2] == T[1]\n")
    source = {k: str(rel) if v == "REL" else v for k, v in source.items()}
    config = {"command": "verify", "blocks": blocks, "mode": "symbolic"} | source
    serial = run_verify(dict(config))
    parallel = run_verify(dict(config) | {"jobs": 2})
    items_s = [i.to_json() for i in serial.items]
    items_p = [i.to_json() for i in parallel.items]
    assert items_s == items_p


@pytest.mark.parametrize("jobs, expect", [(10**6, [3]), (2, [2]), (1, []), (0, []), (-5, [])])
def test_jobs_clamped_to_cpus_and_relations(monkeypatch, jobs, expect):
    """No worker process starts: the pool is a stub that runs the work here."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    config = {"command": "verify", "catalog": "oscillator-algebra", "blocks": [1, 1],
              "mode": "symbolic", "jobs": jobs}
    report = run_verify(config)
    assert len(report.items) == 3
    assert started == expect


def test_gauge_numeric_reports_table_envs_inapplicable(runner, tmp_path):
    out = tmp_path / "gauge.json"
    res = runner.invoke(main, ["verify", "--catalog", "gauge", "--blocks", "1,1,1",
                               "--mode", "numeric", "--out", str(out)])
    assert res.exit_code == 0, res.output
    items = json.loads(out.read_text())["items"]
    assert len(items) == 8
    for item in items:
        level = item["name"].split("-")[1]  # gauge-l2-seed-2 -> l2
        assert item["status"] == "inapplicable" and item["passed"] is None
        assert f"gauge-{level} is an operator table" in item["note"]


def test_negative_controls_numeric_notes_the_table_env(runner, tmp_path):
    out = tmp_path / "neg.json"
    res = runner.invoke(main, ["verify", "--catalog", "negative-controls", "--blocks", "1,1",
                               "--mode", "numeric", "--out", str(out)])
    assert res.exit_code == 1, res.output  # the block-model control fires as designed
    items = {i["name"]: i for i in json.loads(out.read_text())["items"]}
    prop = items["prop-A-3-negative"]
    assert prop["status"] == "inapplicable"
    assert prop["note"] == "numeric mode needs a model; proposition-A is an operator table"
    assert items["osc-alg-l2-ZY-negative[numeric]"]["status"] == "residual"


@pytest.mark.parametrize("catalog", ["coulomb", "coulomb-yx"])
def test_coulomb_catalog_on_one_dimensional_blocks_exit_two(runner, catalog):
    res = runner.invoke(main, ["verify", "--catalog", catalog, "--blocks", "1,1"])
    assert res.exit_code == 2
    assert "config error: S index 1 out of [2,1]" in res.output


@pytest.mark.parametrize("catalog", cli.CATALOG_NAMES)
@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_exit_contract_every_catalog(runner, catalog, mode):
    """Every catalog in every mode ends with exit 0, 1 or 2 and no traceback."""
    blocks = [] if catalog == "proposition-A" else ["--blocks", "1,1"]
    res = runner.invoke(main, ["verify", "--catalog", catalog, "--mode", mode] + blocks)
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)


@pytest.mark.parametrize("eta", ["0", "-1"])
def test_spectrum_coulomb_needs_positive_eta(runner, eta):
    res = runner.invoke(main, ["spectrum", "--family", "coulomb", "--blocks", "2,2",
                               "--eta", eta])
    assert res.exit_code == 2
    assert "config error: eta must be positive" in res.output


@pytest.mark.parametrize("family, flag, value", [
    ("oscillator", "--omega2", "1/0"),
    ("oscillator", "--omega2", "1e400"),
    ("coulomb", "--eta", "1e400"),
    ("coulomb", "--eta", "1e200"),  # eta fits a float but its square does not
    ("coulomb", "--eta", "1e-200"),  # its square underflows to 0
])
def test_spectrum_model_value_out_of_range_exit_two(runner, family, flag, value):
    res = runner.invoke(main, ["spectrum", "--family", family, "--blocks", "2,2", flag, value])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "config error:" in res.output


def test_spectrum_command_row_count(runner):
    res = runner.invoke(
        main, ["spectrum", "--family", "oscillator", "--blocks", "1,1",
               "--kmax", "2", "--lmax", "0"]
    )
    assert res.exit_code == 0
    rows = [l for l in res.output.splitlines() if l.startswith("{")]
    assert len(rows) == 6  # total k up to 2 over two blocks


def test_spectrum_coulomb_monotone(runner):
    res = runner.invoke(
        main, ["spectrum", "--family", "coulomb", "--blocks", "2,2",
               "--nrmax", "2", "--jmax", "1", "--lmax", "0"]
    )
    assert res.exit_code == 0
    values = []
    for line in res.output.splitlines():
        if line.startswith("{"):
            values.append(float(line.split()[-3]))
    # grouped by N_r blocks of J values; energies head toward zero with N_r
    nr_ground = values[::2]
    assert all(b > a for a, b in zip(nr_ground, nr_ground[1:]))


def test_eigencheck_command(runner):
    res = runner.invoke(
        main,
        ["eigencheck", "--family", "oscillator", "--blocks", "2,2",
         "--quantum", '{"angular": [1, 0], "radial": [0, 1]}',
         "--potentials", '[{"kind":"constant","value":"1"},{"kind":"constant","value":"2"}]'],
    )
    assert res.exit_code == 0, res.output
    assert "spread" in res.output


_OSC_GROUND = '{"angular": [0, 0], "radial": [0, 0]}'


@pytest.mark.parametrize("args", [
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", '{"angular": [1]}'],
                 id="missing-radial"),
    pytest.param(["--family", "oscillator", "--blocks", "3",
                  "--quantum", '{"angular": [[0, 0]], "radial": [0]}', "--potentials",
                  '[{"kind": "hierarchy", "levels": [{"kind": "zero"},'
                  ' {"kind": "constant", "value": "2"}]}]'],
                 id="zero-innermost-hierarchy"),
    pytest.param(["--family", "oscillator", "--blocks", "3",
                  "--quantum", '{"angular": [[1, 0]], "radial": [0]}', "--potentials",
                  '[{"kind": "hierarchy", "levels": [{"kind": "model2", "A": "4", "B": "1"},'
                  ' {"kind": "constant", "value": "5"}]}]'],
                 id="model2-under-a-constant"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--omega2", "-1"], id="negative-omega2"),
    pytest.param(["--family", "coulomb", "--blocks", "2,2",
                  "--quantum", '{"angular": [0, 0], "radial": [0], "hyper_J": [0]}',
                  "--eta", "0"], id="zero-eta"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--potentials", '[{"kind": "constant", "value": "-10"}, {"kind": "zero"}]'],
                 id="negative-discriminant"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--potentials", '[{"kind": "constant"}, {"kind": "zero"}]'],
                 id="symbolic-constant"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2",
                  "--quantum", '{"angular": 5, "radial": [0, 0]}'], id="angular-not-a-list"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", "[1]"],
                 id="quantum-not-an-object"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--potentials", '{"kind": "zero"}'], id="potentials-not-a-list"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--potentials", "[1, 2]"], id="potential-not-an-object"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--seed", "-1"], id="negative-seed"),
    pytest.param(["--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
                  "--tol", "nan"], id="nan-tol"),
    pytest.param(["--family", "oscillator", "--blocks", "2",
                  "--quantum", '{"angular": [[0]], "radial": [0]}', "--potentials",
                  '[{"kind": "model2", "A": "3/2", "B": "1/100"}]'],
                 id="sampling-always-rejects"),
    pytest.param(["--family", "coulomb", "--blocks", "2,2",
                  "--quantum", '{"angular": [0, 0], "radial": [0], "hyper_J": [0]}',
                  "--eta", "1e400"], id="eta-beyond-float"),
])
def test_eigencheck_bad_quantum_exit_two(runner, args):
    res = runner.invoke(main, ["eigencheck"] + args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "config error:" in res.output


@pytest.mark.parametrize("points", ["0", "-1"])
def test_eigencheck_points_must_be_positive(runner, points):
    res = runner.invoke(main, ["eigencheck", "--family", "oscillator", "--blocks", "2,2",
                               "--quantum", _OSC_GROUND, "--points", points])
    assert res.exit_code == 2, res.output
    assert "--points" in res.output


def test_build_catalog_gauge_all_levels():
    rs = build_catalog("gauge", oscillator_spec([1, 1, 1]))
    names = [r.name for r in rs.relations]
    assert any("gauge-l2" in n for n in names)
    assert any("gauge-l3" in n for n in names)


def test_relation_file_flow(runner, tmp_path):
    rel = tmp_path / "user.rel"
    rel.write_text("check-1: [Z[2], Hsum[2]]\ncheck-2: G[1,2] == T[1]\n")
    out = tmp_path / "rep.json"
    res = runner.invoke(
        main, ["verify", "--relation-file", str(rel), "--blocks", "2,2",
               "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert {i["name"] for i in doc["items"]} == {"check-1", "check-2"}
    bad = tmp_path / "bad.rel"
    bad.write_text("oops: [Z[2], \n")
    res2 = runner.invoke(main, ["verify", "--relation-file", str(bad), "--blocks", "2,2"])
    assert res2.exit_code == 2


@pytest.mark.parametrize("text, args, message", [
    pytest.param("", [], "has no relations", id="empty"),
    pytest.param("# only a comment\n", [], "has no relations", id="comment-only"),
    # every relation is a record display, which numeric mode skips
    pytest.param(None, ["--catalog", "coulomb-sj", "--blocks", "3"], "only record displays",
                 id="coulomb-sj-3-numeric"),
    pytest.param(None, ["--catalog", "coulomb-sj", "--blocks", "2,2"], "only record displays",
                 id="coulomb-sj-2,2-numeric"),
    pytest.param(None, ["--catalog", "coulomb-zy", "--blocks", "1,1,1"], "only record displays",
                 id="coulomb-zy-1,1,1-numeric"),
])
def test_run_that_checks_nothing_exit_two(runner, tmp_path, text, args, message):
    """A relation file with no relation checks nothing, like a catalog with
    none, and so does a numeric run of record displays only."""
    if text is not None:
        rel = tmp_path / "empty.rel"
        rel.write_text(text)
        args = ["--relation-file", str(rel), "--blocks", "2,2"]
    else:
        args = args + ["--mode", "numeric"]
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert "config error:" in res.output and message in res.output


@pytest.mark.parametrize("mode, expect", [
    ("numeric", {"check-1[numeric]", "check-2[numeric]"}),
    ("both", {"check-1", "check-2", "check-1[numeric]", "check-2[numeric]"}),
])
def test_relation_file_honours_numeric_mode(runner, tmp_path, mode, expect):
    rel = tmp_path / "user.rel"
    rel.write_text("check-1: [Z[2], Hsum[2]]\ncheck-2: G[1,2] == T[1]\n")
    out = tmp_path / "rep.json"
    res = runner.invoke(
        main, ["verify", "--relation-file", str(rel), "--blocks", "2,2", "--mode", mode,
               "--seed", "3", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert {i["name"] for i in doc["items"]} == expect
    for item in doc["items"]:
        if item["mode"] == "numeric":
            assert item["residual"]["max_relative"] <= 1e-5


@pytest.mark.parametrize("args, expect", [
    (["--catalog", "oscillator-algebra", "--blocks", "2,1"],
     {"osc-alg-l2-def[numeric]", "osc-alg-l2-ZY[numeric]", "osc-alg-l2-HY[numeric]"}),
    (["--relation-file", "REL", "--blocks", "2,2"], {"c1[numeric]"}),
], ids=["catalog", "relation-file"])
def test_numeric_config_params_extend_the_defaults(runner, tmp_path, args, expect):
    """Config params override the model's default values key by key; w2 keeps its default."""
    rel = tmp_path / "user.rel"
    rel.write_text("c1: [Z[2], T[1]] - w2*T[1] + w2*T[1]\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"beta1": 1.0}, "probes": 1, "points": 1}))
    out = tmp_path / "report.json"
    args = [str(rel) if a == "REL" else a for a in args]
    res = runner.invoke(main, ["verify", *args, "--mode", "numeric", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert {i["name"] for i in doc["items"]} == expect
    assert all(i["mode"] == "numeric" and i["status"] == "zero" for i in doc["items"])
    assert doc["config"]["params"] == {"beta1": 1.0}


@pytest.mark.parametrize("line, message", [("H[x] == 0", "bad index"),
                                           ("1/0 == 0", "bad rational")])
def test_relation_file_bad_token_exit_two(runner, tmp_path, line, message):
    bad = tmp_path / "bad.rel"
    bad.write_text(f"ok: [Z[2], Hsum[2]]\n{line}\n")
    res = runner.invoke(main, ["verify", "--relation-file", str(bad), "--blocks", "2,2"])
    assert res.exit_code == 2
    assert f"line 2: {message}" in res.output


@pytest.mark.parametrize("line, args, message", [
    ("Q[1] == 0", ["--blocks", "2,2"], "Q integrals belong to the coulomb family"),
    ("H[9] == 0", ["--blocks", "2,2"], "H index 9 out of [1,2]"),
    # a model of one block has no structural constants, in either mode
    ("Nc[1] * H[1]", ["--blocks", "2"], "no structural constants"),
    ("Nc[1] * H[1]", ["--blocks", "2", "--mode", "numeric"], "no structural constants"),
])
def test_relation_file_unknown_integral_exit_two(runner, tmp_path, line, args, message):
    bad = tmp_path / "bad.rel"
    bad.write_text(f"ok: [H[1], T[1]]\ntypo: {line}\n")
    res = runner.invoke(main, ["verify", "--relation-file", str(bad), *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"config error: relation typo: {message}" in res.output


@pytest.mark.parametrize("line", ["-" * 3000 + "H[1]", "(" * 3000 + "H[1]" + ")" * 3000],
                         ids=["3000-minus", "3000-parens"])
def test_relation_file_deep_nesting_exit_two(tmp_path, line):
    deep = tmp_path / "deep.rel"
    deep.write_text(line + "\n")
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    res = subprocess.run(
        [sys.executable, "-m", "blocksep.cli", "verify", "--relation-file", str(deep),
         "--blocks", "2,2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: line 1:")
    assert "Traceback" not in res.stderr and len(res.stderr) < 200


def test_verify_runs_without_test_extras():
    """verify needs only the runtime dependencies pyproject.toml declares."""
    code = ("import sys\n"
            "sys.modules['jsonschema'] = sys.modules['hypothesis'] = None\n"
            "from blocksep.cli import main\n"
            "main(['verify', '--catalog', 'proposition-A'])\n")
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "prop-A-2" in res.stdout


def test_unnamed_relation_report_independent_of_hash_seed(tmp_path):
    rel = tmp_path / "user.rel"
    rel.write_text("[Z[2], Hsum[2]]\nG[1,2] == T[1]\n")
    out = tmp_path / "rep.json"
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    docs, stdouts = [], []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-m", "blocksep.cli", "verify", "--relation-file", str(rel),
             "--blocks", "2,2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        doc.pop("runtime_info")
        docs.append(doc)
        stdouts.append(res.stdout)
    assert docs[0] == docs[1]
    assert stdouts[0] == stdouts[1]
    assert all(item["name"].startswith("user-") for item in docs[0]["items"])


def test_negative_controls_numeric_without_blocks_uses_the_default_model(runner, tmp_path):
    out = tmp_path / "neg.json"
    config = tmp_path / "few-samples.json"
    config.write_text(json.dumps({"probes": 1, "points": 2}))  # the 2,2 model is slow to sample
    res = runner.invoke(main, ["verify", "--catalog", "negative-controls", "--mode", "numeric",
                               "--config", str(config), "--out", str(out)])
    assert res.exit_code == 1, res.output  # the block-model control fires as designed
    items = {i["name"]: i for i in json.loads(out.read_text())["items"]}
    assert items["prop-A-3-negative"]["status"] == "inapplicable"
    flagged = items["osc-alg-l2-ZY-negative[numeric]"]
    assert flagged["status"] == "residual" and flagged["passed"] is True


@pytest.mark.parametrize("catalog", cli.CATALOG_NAMES)
def test_one_block_sweep(runner, tmp_path, catalog):
    """On a single block every catalog either checks something and passes or
    is a configuration error; none passes on nothing."""
    out = tmp_path / "report.json"
    blocks = [] if catalog == "proposition-A" else ["--blocks", "3"]
    res = runner.invoke(main, ["verify", "--catalog", catalog, "--out", str(out)] + blocks)
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in ((1, 2) if catalog == "negative-controls" else (0, 2)), res.output
    if res.exit_code == 0:
        items = json.loads(out.read_text())["items"]
        assert any(item["status"] != "inapplicable" for item in items)


def test_summary_written_next_to_out(runner, tmp_path):
    """The summary replaces only the report's extension, not a dot in a directory."""
    out = tmp_path / "results.v2" / "report"
    out.parent.mkdir()
    res = runner.invoke(main, ["verify", "--catalog", "proposition-A", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.exists() and (tmp_path / "results.v2" / "report.txt").exists()
    assert not (tmp_path / "results.txt").exists()


@pytest.mark.parametrize("args", [
    ["verify", "--catalog", "proposition-A"],
    ["spectrum", "--family", "oscillator", "--blocks", "1", "--kmax", "0"],
    ["eigencheck", "--family", "oscillator", "--blocks", "2,2", "--quantum", _OSC_GROUND,
     "--points", "1"],
], ids=["verify", "spectrum", "eigencheck"])
def test_out_in_missing_directory_exit_two(runner, tmp_path, args):
    res = runner.invoke(main, args + ["--out", str(tmp_path / "missing" / "report.json")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    # exit 2 means nothing was produced: no summary, table or H psi / psi line
    assert res.output.startswith("config error:") and len(res.output.splitlines()) == 1

"""CLI behavior: exit codes, reports, schema validation, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import blocksep
from blocksep import cli
from blocksep.cli import build_catalog, load_config, main, run_verify
from blocksep.errors import ConfigError
from blocksep.models import (Constant, Hierarchy, Model2F11, Zero, model2_potential, oscillator_spec,
                             spec_to_json)
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


@pytest.mark.parametrize("args, message", [
    pytest.param(["--catalog", "oscillator", "--blocks", "x"], "bad --blocks value 'x'",
                 id="blocks-not-a-number"),
    pytest.param(["--catalog", "oscillator", "--blocks", ","], "empty --blocks value",
                 id="blocks-empty"),
    pytest.param(["--blocks", "2,2"], "verify needs a catalog name or a relation file",
                 id="no-catalog-no-relation-file"),
    pytest.param(["--config", "missing.json"], "cannot read config", id="config-missing"),
    pytest.param(["--config", "broken.json"], "cannot read config", id="config-not-json"),
])
def test_unusable_verify_input_exit_two(runner, tmp_path, args, message):
    (tmp_path / "broken.json").write_text('{"catalog": ')
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    res = runner.invoke(main, ["verify", *args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"config error: {message}" in res.output


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
    # fd_order and fd_step were removed: a once valid value is an error too
    {"probes": 0}, {"points": 0}, {"fd_order": 8}, {"fd_step": 1e-2}, {"tol": "x"},
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


@pytest.mark.parametrize("key, value", [("fd_order", 8), ("fd_step", 0.2)])
def test_removed_finite_difference_keys_exit_two(runner, tmp_path, key, value):
    """Numeric mode has no stencil settings any more: a config that names one
    is a config error that says the key was removed."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"catalog": "oscillator-algebra", "blocks": [2, 1],
                                  "mode": "numeric", key: value, "probes": 1, "points": 2}))
    res = runner.invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == (f"config error: config field {key} was removed: numeric mode "
                          "differentiates Taylor jets exactly, with no finite-difference step "
                          "or order\n")


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


def test_exponent_overflow_exit_two(runner, monkeypatch):
    """A monomial past the ring's exponent limit ends the run with a one-line
    config error, never a wrong monomial or a traceback.  Fields narrowed to
    three bits hold degrees up to 3, which the oscillator algebra exceeds."""
    from blocksep import ring
    from blocksep.errors import ExponentOverflowError

    monkeypatch.setattr(ring, "W", 3)
    monkeypatch.setattr(ring, "_MASK", 7)
    message = "a monomial's degree exceeds 3, the exponent limit of the ring"
    with pytest.raises(ConfigError, match=message) as info:
        run_verify({"catalog": "oscillator-algebra", "blocks": [2, 2]})
    assert isinstance(info.value.__cause__, ExponentOverflowError)
    res = runner.invoke(main, ["verify", "--catalog", "oscillator-algebra", "--blocks", "2,2"])
    assert res.exit_code == 2, res.output
    assert res.output == f"config error: catalog 'oscillator-algebra': {message}\n"


@pytest.mark.parametrize("config, args", [
    ({"catalog": "proposition-A"}, ["--blocks", "2,2"]),
    ({"catalog": "proposition-A", "model": {
        "family": "coulomb", "blocks": [1, 2], "potentials": [{"kind": "zero"}], "eta": "2"}}, []),
], ids=["blocks", "config-model"])
def test_proposition_A_rejects_a_model(runner, tmp_path, config, args):
    """proposition-A runs on its own planar model; a model given to it would be
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


def test_verbose_adds_only_a_stderr_line_per_symbolic_relation(runner, tmp_path):
    """verify -v writes one stderr line per symbolic relation, in report order:
    name, status, wall seconds and how it was settled: in the radial picture,
    by transport from its j = D display, or in the Cartesian one.  stdout and
    the report with runtime_info dropped are byte-identical to a run without -v."""
    runs = []
    out = tmp_path / "report.json"  # the report echoes the path
    for flags in ([], ["-v"]):
        res = runner.invoke(main, ["verify", "--catalog", "coulomb", "--blocks", "1,1,2",
                                   "--out", str(out), *flags])
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        doc.pop("runtime_info")
        runs.append((res, json.dumps(doc, sort_keys=True)))
    (quiet, quiet_doc), (verbose, verbose_doc) = runs
    assert verbose.stdout == quiet.stdout and verbose_doc == quiet_doc
    assert quiet.stderr == ""
    lines = [line.split() for line in verbose.stderr.splitlines()]
    items = json.loads(verbose_doc)["items"]
    assert [(name, status) for name, status, _, _ in lines] == [
        (item["name"], item["status"]) for item in items]
    assert all(seconds.endswith("s") and float(seconds[:-1]) >= 0 for _, _, seconds, _ in lines)
    pictures = {name: picture for name, _, _, picture in lines}
    assert set(pictures.values()) == {"radial", "cartesian", "transport"}
    assert all(pictures[f"coul-yx-j3-{k}"] == "transport" for k in ("1-def", "2", "3"))
    # records and refuted relations are reduced directly, whatever their leaves
    assert all(pictures[item["name"]] == "cartesian" for item in items
               if item.get("expectation") == "record" or item["status"] != "zero")


def test_report_determinism():
    config = {"command": "verify", "catalog": "oscillator-algebra", "blocks": [1, 2],
              "mode": "symbolic", "seed": 7}
    r1 = run_verify(dict(config))
    r2 = run_verify(dict(config))
    assert serialize(r1, drop_runtime=True) == serialize(r2, drop_runtime=True)


# SHA-256 of each symbolic report without its runtime_info; the golden digests
# of perfbench/golden.json cover other catalogs and block configurations
PINNED_REPORTS = [
    # both recorded while the seed algebra ran on an operator table of its own
    ("proposition-A", None, "c0baf9549f4cfeb1b2b5334341c77d477d0f41571bac434259bc227427354097"),
    ("gauge", [1, 1, 1], "8bff2e8459aeea51100570ab7779a3ebc19ce4deb8422c4dfc1897e902a286a7"),
    ("negative-controls", [2, 2],
     "7bd96c85dc5a07d0d55d890ff5ee31cea70f6837c0e3b2be397de499b20f5a35"),
    ("negative-controls", [1, 1],
     "716214cbcb367e7147019549b50fd1062b37b2de0a03c22cc21f4ddc01170a79"),
    ("gauge", [2, 2, 2], "880204564c5a50625a20a2235bea4a0e7012f64a7fefc83d14fb758cec03c58c"),
    ("oscillator", [1, 1, 1], "24ae25ee869ee2971b527fe56ceae6ffd6f6a5c05e7b4a765870f5c886f0563b"),
    ("coulomb", [1, 2, 2], "fed0eb66ea3f1374abbe5d9a6108df58a752038f133ff7bc13c82a86f33e5ea5"),
    # two X/W triples each that serial runs transport from the j = D one
    ("coulomb", [1, 3], "45b5ee6ee4748246e007d86f30f9b9a63fee45576043dccb306b9299beac0278"),
    ("coulomb", [2, 3], "7e42d8dc2fdd1df36be9ab7cf45d984bfe3fbbd1371e5a7ba1d036057473760d"),
]


@pytest.mark.parametrize("catalog, blocks, digest", PINNED_REPORTS,
                         ids=[c if b is None else f"{c}-{','.join(map(str, b))}"
                              for c, b, _ in PINNED_REPORTS])
def test_symbolic_report_matches_its_pinned_digest(catalog, blocks, digest):
    report = run_verify({"catalog": catalog, "mode": "symbolic", "blocks": blocks})
    assert hashlib.sha256(serialize(report, drop_runtime=True).encode()).hexdigest() == digest


def test_erratum_control_on_a_last_block_of_one_exit_two(runner):
    """On a last block of one coordinate Z[N-1] is S[D-1], so the erratum
    display holds and cannot serve as a control: the catalog refuses it."""
    res = runner.invoke(main, ["verify", "--catalog", "coulomb-erratum-wrong", "--blocks", "1,2,1"])
    assert res.exit_code == 2, res.output
    assert res.output == ("config error: the erratum control needs a last block of two or more "
                          "coordinates: on one, Z[N-1] is S[D-1] and the display holds\n")


# The numeric digests are of float64 Taylor-jet residuals.  Every jet
# operation is an IEEE sum, product, quotient or square root except exp, so
# they hold where numpy's float64 exp gives the bits it gave where they were
# recorded (its AVX-512 kernel, on x86-64); elsewhere they are skipped.
_EXP_BITS = hashlib.sha256(np.exp(-np.linspace(0.0, 4.0, 4097)).tobytes()).hexdigest()
JET_DIGESTS = pytest.mark.skipif(
    _EXP_BITS != "18b4c31c437dd428dd1b6f900a945b60e4d4c09e3c7453f716e3a0bda1741c24",
    reason="the digests are of numpy's float64 exp on another kernel")

# SHA-256 of each numeric report without its runtime_info, recorded when
# numeric mode came to evaluate on Taylor jets
PINNED_NUMERIC = [
    pytest.param({"catalog": "oscillator-algebra", "params": {"w2": 1.0}, "model": spec_to_json(
        oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero())))},
        "b395391aeac5568224692844b01e40a694c3a88ca4719fc7e241039d1a4fb3c6",
        id="oscillator-algebra-model2-2,1"),
    # the seed control runs on the planar model, and its note names the unbound
    # coupling g1
    pytest.param({"catalog": "negative-controls", "blocks": [1, 2]},
                 "7f89a68483962efb93e6c1980da54e643254156ab66358135d7f9eb34055ba03",
                 id="negative-controls-1,2"),
    # a coulomb-family model, whose Hcoul and X coefficients carry the norm radical r
    pytest.param({"catalog": "coulomb-commutativity", "blocks": [1, 2], "seed": 5},
                 "fe3e43fff8672e079e7d7ccd7bb89188a5fd54de9af1640983f23d602088251e",
                 id="coulomb-commutativity-1,2"),
    # towers of constant levels over a Zero or a Constant block, and a model2 level
    # under a constant one.  The six G[1,2] items of each are inapplicable by design.
    pytest.param({"catalog": "oscillator-commutativity", "params": {"w2": 1.0}, "model": spec_to_json(
        oscillator_spec([3, 1], (Hierarchy((Constant(Fraction(1, 3)), Constant(2))), Zero())))},
        "d2280635e5774e20cc4f5bcc9faa1b68adce0f232757c2d299afd5ad7ccde51f",
        id="oscillator-commutativity-constant-tower-3,1"),
    pytest.param({"catalog": "oscillator-commutativity", "params": {"w2": 1.0}, "model": spec_to_json(
        oscillator_spec([3, 1], (Hierarchy((Model2F11(4, 1), Constant(Fraction(5, 7)))),
                                 Constant(Fraction(3, 2)))))},
        "f37778d5197a7ab5a4aff45c2cff4bd23348afcfd2ac704433e7923fb096fc16",
        id="oscillator-commutativity-model2-tower-3,1"),
    # both passes; the numeric pass builds what it reads
    pytest.param({"catalog": "oscillator", "blocks": [2, 2], "mode": "both",
                  "params": {"w2": 1.0, "beta1": 0.5, "beta2": 0.75}},
                 "669b859179439186dc3e52b476855220c69decf018fee2f56619cf47b149334b",
                 id="oscillator-both-2,2"),
]


@JET_DIGESTS
@pytest.mark.parametrize("source, digest", PINNED_NUMERIC)
def test_numeric_report_matches_its_pinned_digest(source, digest):
    config = {"mode": "numeric", "probes": 2, "points": 3, "seed": 7} | source
    report = run_verify(config)
    assert hashlib.sha256(serialize(report, drop_runtime=True).encode()).hexdigest() == digest


def _items_digest(items) -> str:
    return hashlib.sha256(json.dumps([i.to_json() for i in items], sort_keys=True).encode()).hexdigest()


# Relation files in numeric mode on [2,2] at probes 2, points 3, seed 5, where
# the relations of one env share their sample points and jets.  Each ends as
# it did when every relation was sampled on its own: with the same config
# error, naming the same relation, or with report items of the SHA-256
# recorded when numeric mode came to evaluate on Taylor jets.
_GOOD_FILE = "ok-1: [Z[2], T[2]]\nok-2: [T[2], Z[2]]\nsmall: G[1,2] - T[1]\nok-3: [Z[2], Hsum[2]] + [Hsum[2], Z[2]]\n"
MIXED_FILES = [
    # H[2] holds omega2 = 1e400, so `big` raises after ok-1 has sampled its env
    pytest.param("ok-1: [Z[2], T[2]]\nbig: [Z[2], H[2]] - [Z[2], H[2]]\nok-2: [T[2], Z[2]]\n",
                 {"model": {"family": "oscillator", "blocks": [2, 2], "omega2": "1e400"}},
                 ("error", "big: a value of the relation or its model is beyond the float range"),
                 id="overflow-at-a-point"),
    pytest.param("ok-1: [Z[2], T[2]]\ntypo: [H[9], Z[2]]\nok-2: [T[2], Z[2]]\n", {},
                 ("error", "relation typo: H index 9 out of [1,2]"), id="fails-to-compile"),
    pytest.param("small: G[1,2] - T[1]\nwide-1: [Z[2], T[2]]\nwide-2: [T[2], Z[2]]\n",
                 {"fd_step": 0.2}, ("error", "config field fd_step was removed: numeric mode "
                                    "differentiates Taylor jets exactly, with no "
                                    "finite-difference step or order"),
                 id="removed-fd-step"),
    pytest.param(_GOOD_FILE, {},
                 ("items", "525c5d8026ce9b313d65a7205302f215d21b310cca4fcb300a6c8e99560cc9ee"),
                 id="good"),
]


@JET_DIGESTS
@pytest.mark.parametrize("text, extra, outcome", MIXED_FILES)
def test_relation_file_with_a_raising_relation_ends_as_before(tmp_path, text, extra, outcome):
    rel = tmp_path / "mixed.rel"
    rel.write_text(text)
    config = {"relation_file": str(rel), "blocks": [2, 2], "mode": "numeric", "probes": 2,
              "points": 3, "seed": 5} | extra
    kind, want = outcome
    if kind == "items":
        assert _items_digest(run_verify(load_config(None, config)).items) == want
    else:
        with pytest.raises(ConfigError) as exc:
            run_verify(load_config(None, config))
        assert str(exc.value) == want


def _mixed_relation_set(first_raises: bool):
    """Relations of one env on [2,2]: most of order 4, one of which raises at
    its first point (a Fixed leaf whose coefficient holds an unbound parameter
    q) and one whose tree fails to compile, plus a record and one of order 2."""
    from blocksep.integrals import IntegralName
    from blocksep.opalg import DiffOp
    from blocksep.relations import Comm, Fixed, OperatorEnv, OpRef, ParamRef, Relation, RelationSet
    from blocksep.ring import Coefficient, Context

    spec = oscillator_spec([2, 2], (Constant(1), Constant(2)), omega2=1)
    env = OperatorEnv(spec)
    Z, Hs, T1, T2, G = (OpRef(IntegralName(*n)) for n in
                        (("Z", 2), ("Hsum", 2), ("T", 1), ("T", 2), ("G", 1, 2)))
    ctx = Context(("x1", "x2", "x3", "x4"), param_names=("q",))
    q_op = DiffOp.from_coefficient(ctx, Coefficient.from_poly(ctx, ctx.x(0)))
    raising = Relation("unbound-q-at-a-point", Comm(Z, Hs) + Fixed(q_op))
    rels = [
        Relation("lead", Comm(Z, Hs)),
        Relation("record", Comm(Z, Hs), expectation="record"),
        Relation("unbound-param", Comm(Z, Hs) + ParamRef("nope")),
        Relation("peer", Comm(Hs, Z)),
        Relation("other-margin", G - T1),
        Relation("nonzero-peer", Comm(Z, T2) + Hs, expectation="nonzero"),
    ]
    rels.insert(0 if first_raises else 1, raising)
    return RelationSet(tuple((r, env) for r in rels))


@JET_DIGESTS
@pytest.mark.parametrize("first_raises, digest", [
    (False, "02770cca44310edab375ba5b360a1ddaed3311ef7b74c79021be05cbb99df1ac"),
    (True, "251850fdaeae2bb6320ee4b32e9048d60a032f7fa0375f5943b49b703f0af77d"),
], ids=["peer-raises", "lead-raises"])
def test_grouped_numeric_items_equal_each_relation_alone(first_raises, digest):
    """A relation that raises at a point is reported inapplicable with its own
    note, whether or not its call is its env's first, and so is a tree that
    fails to compile: the items equal those of each relation sampled alone,
    and their SHA-256 is the one recorded when numeric mode came to evaluate
    on Taylor jets."""
    from blocksep.relations import RelationSet

    config = {"probes": 2, "points": 3, "seed": 5}
    rs = _mixed_relation_set(first_raises)
    items = cli._verify_numeric(rs, config)
    alone = [item for pair in rs.pairs for item in cli._verify_numeric(RelationSet((pair,)), config)]
    assert [i.to_json() for i in items] == [i.to_json() for i in alone]
    assert [i.status for i in items].count("inapplicable") == 2
    assert _items_digest(items) == digest


# SHA-256 of each spectrum report without its runtime_info, in the form
# serialize(..., drop_runtime=True) writes
PINNED_SPECTRA = [
    (["--family", "oscillator", "--blocks", "2,2,2", "--kmax", "2", "--lmax", "2"],
     "532f5ade9e8d56098a4b0503e7bfffabc830b9d2fe3ec835864e94b1962fce57"),
    (["--family", "coulomb", "--blocks", "2,3,2", "--nrmax", "2", "--jmax", "1", "--lmax", "2"],
     "7c26794e69a039abf326cd99febedc93eb0e17b5ccf7fc39fcf28037a7948d8f"),
]


@pytest.mark.parametrize("args, digest", PINNED_SPECTRA, ids=["oscillator-2,2,2", "coulomb-2,3,2"])
def test_spectrum_report_matches_its_pinned_digest(runner, tmp_path, args, digest):
    out = tmp_path / "spectrum.json"
    res = runner.invoke(main, ["spectrum", *args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    doc.pop("runtime_info")
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of each eigencheck report on a trigonometric tower without its
# runtime_info: the X1-Jacobi polynomial at n = 1 with alpha + beta = 0
# (A = 3/2) and a tower with a second angle (A = 4 on a 3-block)
PINNED_EIGENCHECKS = [
    (["--blocks", "2", "--potentials", '[{"kind":"model2","A":"3/2","B":"1"}]',
      "--quantum", '{"angular":[[0]],"radial":[0]}'],
     "b31b75bc4f61efec410939612f2b5f5ee467586fada4decf81aefdbf0392a684"),
    (["--blocks", "3", "--potentials", '[{"kind":"model2","A":"4","B":"1"}]',
      "--quantum", '{"angular":[[1,0]],"radial":[0]}'],
     "116fd4c72d326d95f6f498849a5ed8cbb9be54519aa02592f62ee36ffb6479e2"),
]


@pytest.mark.parametrize("args, digest", PINNED_EIGENCHECKS, ids=["model2-A3/2-[2]", "model2-A4-[3]"])
def test_eigencheck_report_matches_its_pinned_digest(runner, tmp_path, args, digest):
    out = tmp_path / "eigencheck.json"
    res = runner.invoke(main, ["eigencheck", "--family", "oscillator", *args, "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    doc.pop("runtime_info")
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    pytest.param({"catalog": "gauge"}, [1, 1, 1], id="gauge"),  # one planar env for both levels
    # the planar env and a block model's env
    pytest.param({"catalog": "negative-controls"}, [2, 2], id="negative-controls"),
    # reading groups; two-atom denominators
    pytest.param({"catalog": "coulomb-zy"}, [1, 1, 1], id="coulomb-zy"),
    # brackets shared between relations
    pytest.param({"catalog": "oscillator"}, [2, 2], id="oscillator"),
    # j < D X/W triples, each transported by the worker that reduces its j = D source
    pytest.param({"catalog": "coulomb"}, [1, 3], id="coulomb"),
    pytest.param({"catalog": "coulomb"}, [2, 2], id="coulomb-2,2"),
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


class InProcessPool:
    """A ProcessPoolExecutor stand-in that runs the initializer and the work here."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("blocks", [[1, 3], [2, 2]])
def test_jobs_workers_transport_each_image(monkeypatch, blocks):
    """Each j < D X/W display goes to the worker of its j = D source, which
    transports it: no image tree reaches eval_node, and the report is the
    serial one."""
    from blocksep import relations

    config = {"command": "verify", "catalog": "coulomb", "blocks": blocks, "mode": "symbolic"}
    serial = [item.to_json() for item in run_verify(dict(config)).items]
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli, "_WORKER_STATE", {})
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    nodes, original = [], relations.eval_node
    monkeypatch.setattr(relations, "eval_node",
                        lambda node, env: nodes.append(node) or original(node, env))
    parallel = run_verify(dict(config) | {"jobs": 2})
    images = [rel for rel, _ in cli._WORKER_STATE["rs"].pairs if rel.image is not None]
    assert images and not any(n is rel.expr for n in nodes for rel in images)
    assert [item.to_json() for item in parallel.items] == serial


def test_gauge_numeric_needs_the_planar_couplings(runner, tmp_path):
    """The gauge levels run on the planar model, whose couplings g1, g2 have no
    default: unbound, numeric mode evaluates nothing, a config error; bound, it
    checks every level."""
    res = runner.invoke(main, ["verify", "--catalog", "gauge", "--blocks", "1,1,1",
                               "--mode", "numeric"])
    assert res.exit_code == 2, res.output
    assert res.output == ("config error: catalog 'gauge' has no relation this model can "
                          "evaluate: no numeric value bound for 'g1'\n")
    cfg, out = tmp_path / "couplings.json", tmp_path / "gauge.json"
    cfg.write_text(json.dumps({"params": {"g1": 1.0, "g2": 2.0}}))
    res = runner.invoke(main, ["verify", "--catalog", "gauge", "--blocks", "1,1,1",
                               "--mode", "numeric", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    items = json.loads(out.read_text())["items"]
    assert len(items) == 8
    assert all(i["status"] == "zero" and i["passed"] for i in items)


def test_proposition_A_both_modes_keep_the_symbolic_verdict(runner, tmp_path):
    """In --mode both the symbolic pass evaluated something, so numeric items
    left inapplicable by the unbound couplings do not make a config error."""
    out = tmp_path / "prop.json"
    res = runner.invoke(main, ["verify", "--catalog", "proposition-A", "--mode", "both",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    items = json.loads(out.read_text())["items"]
    assert [i["status"] for i in items] == ["zero"] * 4 + ["inapplicable"] * 4
    assert {i["note"] for i in items[4:]} == {"no numeric value bound for 'g1'"}


def test_negative_controls_numeric_notes_the_unbound_coupling(runner, tmp_path):
    out = tmp_path / "neg.json"
    res = runner.invoke(main, ["verify", "--catalog", "negative-controls", "--blocks", "1,1",
                               "--mode", "numeric", "--out", str(out)])
    assert res.exit_code == 1, res.output  # the block-model control fires as designed
    items = {i["name"]: i for i in json.loads(out.read_text())["items"]}
    prop = items["prop-A-3-negative"]
    assert prop["status"] == "inapplicable"
    assert prop["note"] == "no numeric value bound for 'g1'"
    assert items["osc-alg-l2-ZY-negative[numeric]"]["status"] == "residual"


def test_numeric_run_that_evaluates_nothing_exit_two(runner, tmp_path):
    """A model2 potential with 2A - 3 = 0 leaves no admissible point, so every
    item is inapplicable: a numeric-only run that checked nothing is a config
    error naming the first item's note."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": "oscillator-algebra", "mode": "numeric", "probes": 1,
                               "points": 1, "model": spec_to_json(oscillator_spec(
                                   [2, 2], (model2_potential(2, Fraction(3, 2), 0), Zero())))}))
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert res.output == ("config error: catalog 'oscillator-algebra' has no relation this model "
                          "can evaluate: admissible-point sampling keeps rejecting\n")


@pytest.mark.parametrize("params", [{"w": 7.0}, {"w2": 1.0, "g1": 1.0}])
def test_params_naming_no_model_parameter_exit_two(runner, tmp_path, params):
    """A params name that no model of the run declares would leave its default
    in place unnoticed, so it is a config error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"catalog": "oscillator-algebra", "blocks": [2, 1],
                               "mode": "numeric", "probes": 1, "points": 2, "params": params}))
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    bad = sorted(set(params) - {"w2"})
    assert res.output == (f"config error: params {bad} name no parameter of catalog "
                          "'oscillator-algebra'\n")


@pytest.mark.parametrize("lines", [["a: [Hcoul, X[2]]"], ["z: [Y[1], Y[1]]", "a: [Hcoul, X[2]]"]],
                         ids=["alone", "peer"])
def test_non_finite_numeric_residual_exit_two(runner, tmp_path, lines):
    """eta^2 overflows float64 inside the coefficient values without raising;
    the non-finite value is a config error, never a NaN in the report, also
    for a relation sampled after another of its env, and numpy prints no
    overflow warning: a fresh interpreter's stderr is the error line alone."""
    rel, cfg = tmp_path / "user.rel", tmp_path / "cfg.json"
    rel.write_text("\n".join(lines) + "\n")
    cfg.write_text(json.dumps({"family": "coulomb", "blocks": [1, 1], "mode": "numeric",
                               "params": {"eta": 1e200}}))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--relation-file", str(rel),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output == ("config error: a: a value of the relation or its model is beyond "
                          "the float range\n")
    assert not out.exists()
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    fresh = subprocess.run([sys.executable, "-m", "blocksep.cli", "verify", "--config", str(cfg),
                            "--relation-file", str(rel)], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 2 and "RuntimeWarning" not in fresh.stderr
    assert fresh.stderr == res.output


@pytest.mark.parametrize("catalog", ["coulomb", "coulomb-yx"])
def test_coulomb_catalog_on_one_dimensional_blocks_exit_two(runner, catalog):
    res = runner.invoke(main, ["verify", "--catalog", catalog, "--blocks", "1,1"])
    assert res.exit_code == 2
    assert "config error: yx catalog needs D >= 3 for S[D-1]; the model has D = 2" in res.output


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


def test_eigencheck_compiles_its_hamiltonian_once(runner, monkeypatch):
    """The Hamiltonian is compiled once per run, not once per sample point."""
    from blocksep import numerics

    compiled = []
    real = numerics.compile_operator

    def counting(op, *args):
        compiled.append(op)
        return real(op, *args)

    monkeypatch.setattr(numerics, "compile_operator", counting)
    res = runner.invoke(main, ["eigencheck", "--family", "oscillator", "--blocks", "2,2",
                               "--quantum", _OSC_GROUND, "--points", "7"])
    assert res.exit_code == 0, res.output
    assert len(compiled) == 1


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


_QUANTUM_RULE = '--quantum must be an object of lists "angular" and "radial"'
_OSC_CONSTANTS = ["--family", "oscillator", "--blocks", "2,2", "--potentials",
                  '[{"kind":"constant","value":"1"},{"kind":"constant","value":"2"}]']


@pytest.mark.parametrize("args, quantum, message", [
    (_OSC_CONSTANTS, '{"angular":[true,0],"radial":[0,1]}',
     "harmonic degree must be a non-negative int"),
    (_OSC_CONSTANTS, '{"angular":[1,0],"radial":[0,true]}',
     "quantum numbers are non-negative integers"),
    (["--family", "coulomb", "--blocks", "2,2"], '{"angular":[0,0],"radial":[0],"hyper_J":[true]}',
     "quantum numbers are non-negative integers"),
    (["--family", "oscillator", "--blocks", "2", "--potentials",
      '[{"kind": "model2", "A": "4", "B": "1"}]'], '{"angular":[[true]],"radial":[0]}',
     "angular numbers are non-negative ints"),
    (_OSC_CONSTANTS, '{"angular":[1,0],"radial":[0,1],"hyperJ":[3]}', _QUANTUM_RULE),
    (_OSC_CONSTANTS, "[1,2]", _QUANTUM_RULE),
    (_OSC_CONSTANTS, '"x"', _QUANTUM_RULE),
    (_OSC_CONSTANTS, '{"angular":[1,0]}', _QUANTUM_RULE),
    (_OSC_CONSTANTS, '{"angular":1,"radial":[0,1]}', _QUANTUM_RULE),
])
def test_eigencheck_quantum_is_checked_like_a_config(runner, args, quantum, message):
    """A boolean is no quantum number, and --quantum is an object of lists with
    no other key; anything else is a config error that states the rule."""
    res = runner.invoke(main, ["eigencheck", *args, "--quantum", quantum])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert f"config error: {message}" in res.output


@pytest.mark.parametrize("points", ["0", "-1"])
def test_eigencheck_points_must_be_positive(runner, points):
    res = runner.invoke(main, ["eigencheck", "--family", "oscillator", "--blocks", "2,2",
                               "--quantum", _OSC_GROUND, "--points", points])
    assert res.exit_code == 2, res.output
    assert "--points" in res.output


@pytest.mark.parametrize("args", [
    pytest.param(["--family", "oscillator", "--blocks", "2",
                  "--quantum", '{"angular": [0], "radial": [0]}', "--omega2", "1e8"],
                 id="oscillator-omega2-1e8"),
    pytest.param(["--family", "coulomb", "--blocks", "2,2",
                  "--quantum", '{"angular": [0, 0], "radial": [0], "hyper_J": [0]}',
                  "--eta", "1e6"], id="coulomb-eta-1e6"),
])
def test_eigencheck_psi_underflow_exit_two(runner, args):
    """psi underflows to 0 at a sample point: a config error naming the point."""
    res = runner.invoke(main, ["eigencheck"] + args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "config error: psi is 0.0 at the sample point [" in res.output


def test_eigencheck_numeric_error_exit_two(runner, monkeypatch):
    from blocksep import numerics
    from blocksep.errors import EvaluationSingularityError

    def failing(*args):
        raise EvaluationSingularityError("stencil touches a singular plane")

    monkeypatch.setattr(numerics, "apply_numeric", failing)
    res = runner.invoke(main, ["eigencheck", "--family", "oscillator", "--blocks", "2,2",
                               "--quantum", _OSC_GROUND])
    assert res.exit_code == 2, res.output
    assert "config error: stencil touches a singular plane" in res.output


@pytest.mark.parametrize("args", [
    ["--family", "oscillator", "--blocks", "2", "--kmax", "-1"],
    ["--family", "oscillator", "--blocks", "2", "--lmax", "-1"],
    ["--family", "coulomb", "--blocks", "2,2", "--nrmax", "-1"],
    ["--family", "coulomb", "--blocks", "2,2", "--jmax", "-1"],
], ids=["kmax", "lmax", "nrmax", "jmax"])
def test_spectrum_negative_range_exit_two(runner, args):
    """A negative range would leave no rows, and 0/0 rows is not a pass."""
    res = runner.invoke(main, ["spectrum"] + args)
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{args[-2]}'" in res.output


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


@pytest.mark.parametrize("line, extra", [
    # a bare structural constant in a bracket: eval_node's ConstRef leaf
    pytest.param("[Nc[2], Hcoul]", {"family": "coulomb", "blocks": [1, 1, 2]}, id="bare-constant"),
    # a Sum of scalars only, which the numeric path folds to one number
    pytest.param("H[1] * (2 - 1) - H[1]", {"blocks": [2, 2]}, id="scalar-sum"),
])
def test_relation_file_scalar_leaves_both_modes(tmp_path, line, extra):
    rel = tmp_path / "user.rel"
    rel.write_text(f"c: {line}\n")
    report = run_verify({"relation_file": str(rel), "mode": "both", "probes": 1, "points": 2}
                        | extra)
    assert [(i.name, i.status, i.passed) for i in report.items] == [
        ("c", "zero", True), ("c[numeric]", "zero", True)]
    assert report.items[1].residual["max_relative"] == 0.0


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


_COULOMB_22 = ["--blocks", "2,2", "--config", "coulomb.json"]  # coulomb.json in tmp_path


@pytest.mark.parametrize("line, args, message", [
    ("Q[1] == 0", ["--blocks", "2,2"], "unknown integral kind 'Q'"),
    ("Q[1] == 0", _COULOMB_22, "unknown integral kind 'Q'"),
    ("[X[3], H[1]]", ["--blocks", "2,2"], "X integrals belong to the coulomb family"),
    ("H[9] == 0", ["--blocks", "2,2"], "H index 9 out of [1,2]"),
    # a model of one block has no structural constants, in either mode
    ("Nc[1] * H[1]", ["--blocks", "2"], "no structural constants"),
    ("Nc[1] * H[1]", ["--blocks", "2", "--mode", "numeric"], "no structural constants"),
    # a wrong number of indices, in either mode
    *((line, [*args, "--mode", mode], message) for mode in ("symbolic", "numeric")
      for line, args, message in (
          ("[H, H[1]]", ["--blocks", "2,2"], "H takes one index, not 0"),
          ("[Z, H[1]]", ["--blocks", "2,2"], "Z takes one index, not 0"),
          ("[Hsum, H[1]]", ["--blocks", "2,2"], "Hsum takes one index, not 0"),
          ("[G[1], H[1]]", ["--blocks", "2,2"], "G takes two indices, not 1"),
          ("[H[1,2], H[1]]", ["--blocks", "2,2"], "H takes one index, not 2"),
          ("[Hfull[2], H[1]]", ["--blocks", "2,2"], "Hfull takes no index, not 1"),
          ("[X, H[1]]", _COULOMB_22, "X takes one index, not 0"),
          ("[sigmaS, H[1]]", _COULOMB_22, "sigmaS takes one index, not 0"),
      )),
    # index-less leaves that the block-radial picture cannot place: the direct
    # reduction still names the first leaf it cannot build
    *((line, [*args, "--mode", mode], message) for mode in ("symbolic", "numeric")
      for args in (["--blocks", "1,2"], ["--blocks", "1,2", "--config", "coulomb.json"])
      for line, message in (
          ("X == 0", "X takes one index, not 0"),
          ("S == 0", "S takes one index, not 0"),
          ("[J, H[1]]", "J takes one index, not 0"),
          ("[sigmaS, Hcoul]", "sigmaS takes one index, not 0"),
      )),
])
def test_relation_file_unknown_integral_exit_two(runner, tmp_path, line, args, message):
    bad = tmp_path / "bad.rel"
    bad.write_text(f"ok: [H[1], T[1]]\ntypo: {line}\n")
    (tmp_path / "coulomb.json").write_text(json.dumps(
        {"family": "coulomb", "params": {"alpha1": 1.0, "eta": 2.0}, "probes": 1, "points": 1}))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
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


_HUGE = "1" + "0" * 400  # beyond the float range


@pytest.mark.parametrize("files, args", [
    pytest.param({"big.rel": f"big: {_HUGE}*H[1] - {_HUGE}*H[1]\n"},
                 ["verify", "--relation-file", "big.rel", "--blocks", "2", "--mode", "numeric"],
                 id="relation-file-scalar"),
    pytest.param({"big.json": json.dumps({
        "catalog": "oscillator-algebra", "mode": "numeric", "probes": 1, "points": 1,
        "model": {"family": "oscillator", "blocks": [1, 1], "omega2": "1e400"}})},
        ["verify", "--config", "big.json"], id="config-omega2"),
    pytest.param({}, ["eigencheck", "--family", "oscillator", "--blocks", "2",
                      "--quantum", '{"angular":[0],"radial":[0]}',
                      "--potentials", '[{"kind":"constant","value":"1e400"}]'],
                 id="eigencheck-constant-potential"),
])
def test_value_beyond_the_float_range_exit_two(tmp_path, files, args):
    """A value that exact arithmetic holds but a float cannot is a config
    error in numeric mode and in eigencheck, never a traceback."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    res = subprocess.run([sys.executable, "-m", "blocksep.cli", *args], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and "beyond the float range" in res.stderr
    assert "Traceback" not in res.stderr


def test_symbolic_mode_holds_a_value_beyond_the_float_range():
    config = {"catalog": "oscillator-algebra", "mode": "symbolic",
              "model": {"family": "oscillator", "blocks": [1, 1], "omega2": "1e400"}}
    report = run_verify(config)
    assert [item.passed for item in report.items] == [True] * 3


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


def test_no_scipy_at_run_time(tmp_path):
    """verify in both modes, spectrum, eigencheck on a model2 tower and a
    spectrum row on a constant tower import no scipy: only the grid
    eigensolvers the tests check the closed forms against need it."""
    commands = [
        ["verify", "--catalog", "oscillator-algebra", "--blocks", "1,1", "--mode", "both"],
        ["spectrum", "--family", "oscillator", "--blocks", "2,3", "--kmax", "1", "--lmax", "1"],
        ["eigencheck", "--family", "oscillator", "--blocks", "3", "--points", "2",
         "--potentials", '[{"kind":"model2","A":"4","B":"1"}]',
         "--quantum", '{"angular":[[1,0]],"radial":[0]}'],
    ]
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from blocksep.cli import main\n"
        "from blocksep.models import Constant, Hierarchy, Zero, oscillator_spec\n"
        "from blocksep.spectra import EigenfunctionSpec, oscillator_spectrum_row\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (args, exc.code)\n"
        "pot = Hierarchy((Constant(Fraction(1, 3)), Constant(Fraction(2))))\n"
        "spec = oscillator_spec([3], (pot,), omega2=1)\n"
        "assert oscillator_spectrum_row(EigenfunctionSpec(spec, angular=((1, 1),), radial=(0,))).exact_ratio_2\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_numeric_verify_imports_no_numpy_ma(tmp_path):
    """A numeric verify in a fresh interpreter leaves numpy.ma unloaded: the
    residual's median is taken without np.median, which imports it."""
    code = (
        "import sys\n"
        "from blocksep.cli import main\n"
        "try:\n"
        "    main(['verify', '--catalog', 'oscillator-algebra', '--blocks', '2,1', '--mode', 'numeric'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = os.path.dirname(os.path.dirname(blocksep.__file__))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


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

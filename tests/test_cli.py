import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hgf
from hgf import calculus, cli, reduction, solutions, symmetry
from hgf.calculus import SpaceGrid
from hgf.errors import ConstraintError


def run_cli(argv, capsys):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_fisher_single_point(capsys):
    code, out, _ = run_cli(["eval", "--family", "fisher", "--t", "0",
                            "--xmin", "0", "--xmax", "0", "--n", "1"],
                           capsys)
    assert code == 0
    assert out.splitlines() == ["t,x,u,v,w", "0,0,0.25,,"]


def test_catalog_lists_all_families(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    for key in cli.FAMILIES:
        assert key in out
    assert "case 12" in out


def test_symmetry_list_generic(capsys):
    code, out, _ = run_cli(
        ["symmetry", "list", "--a1", "0.3", "--a2", "0.7", "--a3", "0.9",
         "--a4", "1.1", "--a5", "0.2"], capsys)
    assert code == 0
    report = json.loads(out)
    cli.validate_report(report)
    assert report["results"]["operators"] == ["Pt", "Px"]


def test_residual_report_schema_and_orders(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _, _ = run_cli(
        ["residual", "--family", "tf63", "--a1", "0.1", "--delta", "0.35",
         "--a3", "1", "--d3", "3", "--refine",
         "--h-seq", "8e-3", "4e-3", "2e-3", "--window", "-15", "15",
         "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    cli.validate_report(report)
    assert all(1.8 <= o <= 2.2 for o in report["residual"]["order"])
    assert len(report["residual"]["history"]) == 3
    assert any("advisory" in w for w in report["warnings"])


def test_eval_csv_roundtrip_reproduces_residual(tmp_path, tf63_std):
    # residual computed from re-read CSV samples must equal the in-process
    # one bit for bit (17 significant digits round-trip float64 exactly)
    grid = SpaceGrid(-5.0, 5.0, 501)
    t, dt = 0.3, 0.01
    states = [calculus.sample(tf63_std, grid, tt)
              for tt in (t - dt, t, t + dt)]
    path = tmp_path / "snaps.csv"
    cli.write_snapshots_csv(path, states)
    reread = cli.read_snapshots_csv(path)
    direct = calculus.residual_from_states(tf63_std.params, *states, dt=dt)
    reloaded = calculus.residual_from_states(tf63_std.params, *reread, dt=dt)
    assert direct.linf == reloaded.linf
    assert direct.l2 == reloaded.l2


def test_simulate_speed_pipeline(tmp_path, capsys):
    config = {
        "family": {"key": "tf63", "a1": 0.1, "delta": 0.35, "a3": 1.0,
                   "d3": 3.0},
        "grid": {"x_min": -15.0, "x_max": 20.0, "n": 351},
        "time": {"t_end": 1.5, "snapshot_every": 100},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rundir = tmp_path / "run"
    code, _, _ = run_cli(["simulate", "--config", str(cfg_path), "--out",
                          str(rundir), "--quiet"], capsys)
    assert code == 0
    report = json.loads((rundir / "report.json").read_text())
    cli.validate_report(report)
    assert (rundir / "snapshots.csv").exists()

    out_file = tmp_path / "speed.json"
    code, _, _ = run_cli(["speed", "--run", str(rundir), "--component", "w",
                          "--level", "0.5", "--out", str(out_file)], capsys)
    assert code == 0
    sp = json.loads(out_file.read_text())
    cli.validate_report(sp)
    assert sp["speed"]["speed"] == pytest.approx(2.05740, rel=0.02)


def test_reduce_with_oracle(tmp_path, capsys):
    out_file = tmp_path / "red.json"
    traj = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        ["reduce", "--system", "R38", "--case", "i", "--a1", "0.5",
         "--a4", "0.7", "--beta", "0.3", "--delta1", "1.3",
         "--delta2", "0.4", "--span", "0", "3", "--verify",
         "--traj-out", str(traj), "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    cli.validate_report(report)
    assert report["results"]["oracle_max_deviation"] < 1e-6
    header = traj.read_text().splitlines()[0]
    assert header == "t,U,V,W"


def test_exit_1_on_constraint_violation(capsys):
    code, _, err = run_cli(
        ["residual", "--family", "tf63", "--a1", "2.0", "--delta", "1.0"],
        capsys)
    assert code == 1
    assert "complex" in err


@pytest.mark.parametrize("argv,what", [
    # an infinite node count used to reach int(): exit 3, OverflowError
    (["residual", "--family", "fisher", "--h", "5e-324"],
     "window (-30.0, 30.0) at spacing 5e-324 needs inf nodes"),
    (["residual", "--family", "fisher", "--window", "-1", "1", "--h",
      "1e-3"], "window (-1.0, 1.0) at spacing 0.001"),
    (["residual", "--family", "fisher", "--window", "-1", "1", "--refine",
      "--h-seq", "0.01", "1e-3"], "window (-1.0, 1.0) at spacing 0.001"),
    (["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
      "0.1", "--window", "-1", "1", "--h", "1e-3"], "at spacing 0.001"),
    (["eval", "--family", "fisher", "--xmin", "0", "--xmax", "1", "--n",
      "1001"], "--n 1001"),
], ids=["residual-inf", "residual", "residual-refine", "symmetry-verify",
        "eval"])
def test_grid_over_node_budget_is_named(monkeypatch, capsys, argv, what):
    monkeypatch.setattr(calculus, "MAX_NODES", 1000)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and what in err
    assert "limit of 1,000" in err


def test_simulate_grid_over_node_budget(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(calculus, "MAX_NODES", 1000)
    config = {"family": {"key": "fisher"},
              "grid": {"x_min": -10.0, "x_max": 10.0, "n": 1001},
              "time": {"t_end": 0.1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                            str(tmp_path / "run"), "--quiet"], capsys)
    assert code == 1
    assert "n = 1,001" in err and "limit of 1,000" in err
    assert not (tmp_path / "run").exists()


def test_exit_2_on_numerical_failure(tmp_path, capsys):
    # pulse-shaped component has two crossings -> numerical failure
    config = {
        "family": {"key": "tf65", "d": 1.0},
        "grid": {"x_min": -15.0, "x_max": 15.0, "n": 151},
        "time": {"t_end": 0.5, "snapshot_every": 10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rundir = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg_path), "--out",
                    str(rundir), "--quiet"], capsys)[0] == 0
    code, _, err = run_cli(["speed", "--run", str(rundir), "--component",
                            "w", "--level", "0.1"], capsys)
    assert code == 2
    assert "multiple" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"family": {"key": "fisher"},
                                    "surprise": 1}))
    code, _, err = run_cli(["eval", "--config", str(cfg_path), "--t", "0",
                            "--xmin", "0", "--xmax", "1", "--n", "3"],
                           capsys)
    assert code == 1
    assert "surprise" in err


@pytest.mark.parametrize("block,key,value", [("time", "t_end", math.inf),
                                             ("time", "t0", -math.inf),
                                             ("grid", "x_max", math.inf)])
def test_simulate_rejects_non_finite_bounds(tmp_path, capsys, block, key,
                                            value):
    config = {"family": {"key": "fisher"},
              "grid": {"x_min": -10.0, "x_max": 10.0, "n": 51},
              "time": {"t_end": 0.1}}
    config[block][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))  # writes Infinity
    code, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                            str(tmp_path / "run"), "--quiet"], capsys)
    assert code == 1
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("t_end", [1e300, 1e9])
def test_simulate_rejects_unholdable_run_by_name(tmp_path, capsys, t_end):
    # the snapshot schedule used to be built first, so a huge t_end died
    # in range() with Python's own traceback
    config = {"family": {"key": "fisher"},
              "grid": {"x_min": -10.0, "x_max": 10.0, "n": 201},
              "time": {"t_end": t_end}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                            str(tmp_path / "run"), "--quiet"], capsys)
    assert code == 1
    assert err.startswith("error:") and "t_end" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bc,code", [
    (None, 1),  # t_end = 1e300: rejected by run size
    ({"kind": "dirichlet", "left": [1e200, 0, 0], "right": [0, 0, 1]}, 2),
], ids=["constraint", "blow-up"])
def test_failed_simulate_leaves_no_output_directory(tmp_path, capsys, bc,
                                                    code):
    config = {"family": {"key": "fisher"},
              "grid": {"x_min": -10.0, "x_max": 10.0, "n": 51},
              "time": {"t_end": 1e300 if bc is None else 0.5}}
    if bc is not None:
        config["bc"] = bc
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outdir = tmp_path / "out" / "run"
    got, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                           str(outdir), "--quiet"], capsys)
    assert got == code, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block,key,value", [("grid", "n", 51.7),
                                             ("grid", "n", "51"),
                                             ("time", "snapshot_every", "10"),
                                             ("time", "snapshot_every", 2.5),
                                             ("grid", "x_min", "-10"),
                                             ("grid", "x_max", "10"),
                                             ("time", "t0", "0"),
                                             ("time", "t_end", "0.1")])
def test_simulate_rejects_malformed_numbers(tmp_path, capsys, block, key,
                                            value):
    # a truncated grid size or a TypeError escaping as "error: TypeError"
    # hid which config entry was wrong
    config = {"family": {"key": "fisher"},
              "grid": {"x_min": -10.0, "x_max": 10.0, "n": 51},
              "time": {"t_end": 0.1}}
    config[block][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                            str(tmp_path / "run"), "--quiet"], capsys)
    assert code == 1
    assert err.startswith("error:") and f"{key} must be" in err
    assert "TypeError" not in err


def test_flags_override_config_with_warning(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"family": {"key": "tf63", "a1": 0.2, "delta": 0.35}}))
    out_file = tmp_path / "rep.json"
    code, _, _ = run_cli(
        ["residual", "--family", "tf63", "--a1", "0.1", "--config",
         str(cfg_path), "--window", "-5", "5", "--h", "0.01",
         "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert any("overrides config" in w for w in report["warnings"])
    assert report["inputs"]["family_params"]["a1"] == 0.1


_TF63_FLAGS = ["--a1", "0.1", "--delta", "0.35", "--a3", "1", "--d3", "3"]
_TF63_RUN = {"family": {"key": "tf63", "a1": 0.1, "delta": 0.35, "a3": 1.0,
                        "d3": 3.0},
             "grid": {"x_min": -15.0, "x_max": 20.0, "n": 351},
             "time": {"t_end": 1.5, "snapshot_every": 100}}

# every writer of the CLI: JSON reports, field CSVs and trajectory CSVs
_WRITERS = {
    "catalog": [["catalog", "--json", "--out", "cat.json"]],
    "eval": [["eval", "--family", "tf63", *_TF63_FLAGS, "--t", "0.5",
              "--xmin", "-5", "--xmax", "5", "--n", "41",
              "--out", "eval.csv"]],
    "residual": [["residual", "--family", "fisher", "--window", "-8", "8",
                  "--h", "0.01", "--out", "r.json"]],
    "simulate-speed": [["simulate", "--config", "cfg.json", "--out", "run",
                        "--quiet"],
                       ["speed", "--run", "run", "--component", "w",
                        "--level", "0.5", "--out", "speed.json"]],
    "symmetry-list": [["symmetry", "list", "--a1", "0.3", "--a2", "0.7",
                       "--a3", "0.9", "--a4", "1.1", "--a5", "0.2",
                       "--out", "list.json"]],
    "symmetry-verify": [["symmetry", "verify", "--family", "fam40-i",
                         "--a1", "0.1", "--a4", "0.5", "--beta", "2.1822",
                         "--delta1", "2", "--delta2", "0.5", "--op", "Q1",
                         "--eps", "0.3", "--h", "0.01",
                         "--out", "verify.json"]],
    "reduce": [["reduce", "--system", "R38", "--case", "i", "--a1", "0.5",
                "--a4", "0.7", "--beta", "0.3", "--delta1", "1.3",
                "--delta2", "0.4", "--span", "0", "3", "--verify",
                "--traj-out", "traj.csv", "--out", "red.json"]],
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_byte_identical_reports(tmp_path, capsys, monkeypatch, writer):
    outputs = []
    for i in (0, 1):
        rundir = tmp_path / f"run{i}"
        rundir.mkdir()
        (rundir / "cfg.json").write_text(json.dumps(_TF63_RUN))
        monkeypatch.chdir(rundir)  # relative paths: the reports name them
        for argv in _WRITERS[writer]:
            code, out, err = run_cli(argv, capsys)
            assert code == 0, err
            assert out == ""
        outputs.append({str(p.relative_to(rundir)): p.read_bytes()
                        for p in sorted(rundir.rglob("*")) if p.is_file()})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv,files,warnings,where,values", [
    (["residual", "--family", "tf63", "--delta", "0.35", "--a1", "0.1",
      "--config", "cfg.json", "--window", "-5", "5", "--h", "0.01"],
     {"cfg.json": {"family": {"key": "tf63", "a1": 0.2, "delta": 0.3}}},
     ["flag --a1 = 0.1 overrides config value 0.2",
      "flag --delta = 0.35 overrides config value 0.3"],
     "family_params", {"a1": 0.1, "delta": 0.35}),
    (["symmetry", "list", "--params", "p.json", "--d2", "1", "--a2", "0",
      "--a1", "1"],
     {"p.json": {"a1": 1.0, "a2": 1.0, "a3": 1.0, "a4": 1.0, "a5": 1.0,
                 "d2": 2.0}},
     ["flag --a2 = 0.0 overrides file value 1.0",
      "flag --d2 = 1.0 overrides file value 2.0"],
     "params", {"a1": 1.0, "a2": 0.0, "d2": 1.0}),
    (["symmetry", "list", "--config", "cfg.json", "--a5", "0.4"],
     {"cfg.json": {"params": {"a1": 0.3, "a2": 0.7, "a3": 0.9, "a4": 1.1,
                              "a5": 0.2}}},
     ["flag --a5 = 0.4 overrides file value 0.2"],
     "params", {"a1": 0.3, "a5": 0.4}),
    (["reduce", "--system", "L52", "--params", "p.json", "--a4", "0.5",
      "--beta", "0.3", "--y0", "1,0", "--span", "-1", "1"],
     {"p.json": {"beta": 0.2, "a4": 0.4, "case": "50", "alpha": 2.0}},
     ["flag --beta = 0.3 overrides file value 0.2",
      "flag --a4 = 0.5 overrides file value 0.4"],
     "coeffs", {"beta": 0.3, "a4": 0.5, "alpha": 2.0, "case": "50"}),
], ids=["config-family", "symmetry-list-params", "symmetry-list-config",
        "reduce-params"])
def test_flag_overrides_file_with_warning(tmp_path, capsys, monkeypatch,
                                          argv, files, warnings, where,
                                          values):
    # the flag wins; each changed value warns once, in the order the
    # command has always listed them
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["warnings"][:len(warnings)] == warnings
    assert not any("overrides" in w
                   for w in report["warnings"][len(warnings):])
    for name, value in values.items():
        assert report["inputs"][where][name] == value


def test_validate_report_without_jsonschema(monkeypatch):
    # the structural fallback is the only check on an install without
    # the test extra
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    good = {"command": "x", "inputs": {}, "results": {}, "warnings": [],
            "residual": {"linf": [1.0], "l2": [None]}}
    cli.validate_report(good)
    missing = {k: v for k, v in good.items() if k != "warnings"}
    with pytest.raises(ConstraintError, match=r"missing keys \['warnings'\]"):
        cli.validate_report(missing)
    with pytest.raises(ConstraintError, match=r"unknown keys \['extra'\]"):
        cli.validate_report({**good, "extra": 1})


def test_report_schema_passes_its_metaschema():
    import jsonschema

    cls = jsonschema.validators.validator_for(cli.REPORT_SCHEMA)
    cls.check_schema(cli.REPORT_SCHEMA)


_GOOD = {"command": "x", "inputs": {}, "results": {}, "warnings": []}


@pytest.mark.parametrize("bad", [
    {k: v for k, v in _GOOD.items() if k != "warnings"},
    {**_GOOD, "extra": 1},
    {**_GOOD, "warnings": ["ok", 3]},
    {**_GOOD, "residual": {"linf": [1.0, "x"], "l2": []}},
    {**_GOOD, "command": 1, "residual": {"l2": [None]}, "speed": []},
], ids=["missing", "unknown", "warning-type", "residual-item", "several"])
def test_bad_report_raises_what_jsonschema_validate_raises(bad):
    import jsonschema

    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, cli.REPORT_SCHEMA)
    with pytest.raises(jsonschema.ValidationError) as got:
        cli.validate_report(bad)
    assert str(got.value) == str(want.value)


def test_dispatch_builds_parser_and_checks_schema_once(monkeypatch, capsys):
    # both are fixed costs of the process, not of each command
    import jsonschema

    cls = jsonschema.validators.validator_for(cli.REPORT_SCHEMA)
    calls = {"check_schema": 0, "build_parser": 0}
    check_schema, build_parser = cls.check_schema, cli.build_parser

    def counted_check_schema(_, schema, **kwargs):
        calls["check_schema"] += 1
        return check_schema(schema, **kwargs)

    def counted_build_parser():
        calls["build_parser"] += 1
        return build_parser()

    monkeypatch.setattr(cls, "check_schema",
                        classmethod(counted_check_schema))
    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    cli._report_validator.cache_clear()
    for _ in range(3):
        assert run_cli(["catalog", "--json"], capsys)[0] == 0
    assert calls == {"check_schema": 1, "build_parser": 1}


def test_refine_dispatches_in_one_process_match_fresh_processes(
        tmp_path, monkeypatch, capsys):
    # one parser serves every dispatch, so no parse may leak into the
    # next: --h-seq given, then left to its default
    argv = ["residual", "--family", "fisher", "--window", "-6", "6",
            "--refine"]
    runs = {"given.json": [*argv, "--h-seq", "0.04", "0.02", "0.01"],
            "default.json": argv}
    monkeypatch.chdir(tmp_path)
    env = {**os.environ,
           "PYTHONPATH": str(Path(hgf.__file__).resolve().parents[1])}
    for name, args in runs.items():
        assert run_cli([*args, "--out", name], capsys)[0] == 0
        subprocess.run([sys.executable, "-m", "hgf.cli", *args, "--out",
                        f"fresh-{name}"], env=env, check=True, timeout=60)
        fresh = (tmp_path / f"fresh-{name}").read_bytes()
        assert (tmp_path / name).read_bytes() == fresh


def test_semi_family_via_cli(tmp_path, capsys):
    out_file = tmp_path / "semi.json"
    code, _, _ = run_cli(
        ["residual", "--family", "semi50", "--a4", "0.5", "--beta", "0.3",
         "--gamma", "0.1", "--profile-lo", "-16", "--profile-hi", "16",
         "--anchor", "-16", "--window", "-10", "12", "--t", "0.4",
         "--h", "5e-3", "--out", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    cli.validate_report(report)
    assert max(v for v in report["residual"]["linf"]) < 1e-4
    check = report["inputs"]["family_params"]["profile_residual"]
    assert 0.0 < check["linf"] <= 1e-5 * check["scale"]


def test_reduce_l52_honours_alpha(tmp_path, capsys):
    trajs = []
    for alpha in ("1.0", "3.0"):
        traj = tmp_path / f"l52_{alpha}.csv"
        rep = tmp_path / f"l52_{alpha}.json"
        code, _, _ = run_cli(
            ["reduce", "--system", "L52", "--case", "50", "--beta", "0.3",
             "--a4", "0.5", "--alpha", alpha, "--span", "-5", "5",
             "--traj-out", str(traj), "--out", str(rep)], capsys)
        assert code == 0
        assert json.loads(rep.read_text())["inputs"]["coeffs"]["alpha"] \
            == float(alpha)
        trajs.append(traj.read_bytes())
    assert trajs[0] != trajs[1]


@pytest.mark.parametrize("case,echoed", [
    ("50", ["a4", "alpha", "beta", "case"]),
    ("51", ["alpha", "beta", "case"]),
])
def test_reduce_l52_echoes_the_coefficients_its_case_reads(case, echoed,
                                                            capsys):
    # case 51 never reads a4, but its report echoed the default "a4": 0.0
    code, out, _ = run_cli(["reduce", "--system", "L52", "--case", case,
                            "--beta", "0.3", "--span", "-1", "1"], capsys)
    assert code == 0
    assert sorted(json.loads(out)["inputs"]["coeffs"]) == echoed


@pytest.mark.parametrize("argv", [
    ["--system", "R38", "--case", "iv", "--a1", "0.5", "--a3", "1",
     "--a4", "0.7", "--beta", "0.3"],
    ["--system", "T2d", "--case", "i", "--a1", "0.5", "--a4", "0.8"],
    ["--system", "R38", "--case", "i", "--a3", "0.5", "--a1", "0.5",
     "--a4", "0.7", "--beta", "0.3", "--delta1", "1.3", "--delta2", "0.4"],
    ["--system", "R38", "--case", "iii", "--a4", "9", "--a1", "0.5",
     "--a3", "0.5", "--beta", "0.3", "--delta1", "1.3", "--delta2", "0.4"],
], ids=["unknown-case", "system-without-cases", "case-i-a3", "case-iii-a4"])
def test_reduce_rejects_input_it_would_drop(argv, capsys):
    code, _, err = run_cli(["reduce", *argv, "--span", "0", "1"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_reduce_unknown_system_names_the_catalog_ids(capsys):
    code, _, err = run_cli(["reduce", "--system", "r38", "--span", "0", "1"],
                           capsys)
    assert code == 1
    assert err == ("error: unknown reduced system id 'r38'; known ids: "
                   f"{', '.join(reduction.SYSTEMS)}\n")


@pytest.mark.parametrize("key,flags,named", [
    ("fisher", ["--a1", "5"], "--a1"),
    ("fisher", ["--profile-lo", "-5"], "--profile-lo"),
    ("semi35-i", ["--a1", "0.5", "--a4", "0.5", "--beta", "3", "--a3", "7"],
     "--a3"),
    ("tf63", ["--a1", "0.1", "--delta", "0.35", "--gamma", "1"], "--gamma"),
], ids=["fisher-a1", "fisher-profile-lo", "semi35-i-a3", "tf63-gamma"])
def test_family_rejects_flags_it_does_not_take(key, flags, named, capsys):
    # these used to exit 0 with the value silently dropped
    code, _, err = run_cli(["eval", "--family", key, *flags, "--xmin", "0",
                            "--xmax", "1", "--n", "3"], capsys)
    assert code == 1
    assert err.startswith("error:") and named in err


def test_config_family_rejects_keys_it_does_not_take(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": {"key": "fisher", "a1": 5}}))
    code, _, err = run_cli(["eval", "--config", str(cfg_path), "--xmin", "0",
                            "--xmax", "1", "--n", "3"], capsys)
    assert code == 1
    assert err.startswith("error:") and "'a1'" in err


_FAMILY_SAMPLE = {"a1": 0.1, "a3": 0.5, "a4": 0.5, "beta": 0.3,
                  "delta1": 1.3, "delta2": 0.4, "gamma": 0.1, "delta": 0.35,
                  "d3": 3.0, "d": 1.0}


@pytest.mark.parametrize("key", sorted(cli.FAMILIES))
def test_every_family_builds_from_its_listed_params(key):
    family = cli.FAMILIES[key]
    fam = cli.build_family(key, {n: _FAMILY_SAMPLE[n]
                                 for n in family.params})
    t = 0.5
    lo, hi = family.default_window(fam, t)
    for vals in fam.evaluate(t, np.linspace(lo, hi, 41)):
        assert vals is None or np.isfinite(vals).all()


@pytest.mark.parametrize("key,name", [
    (f.key, n) for f in cli.FAMILIES.values() for n in f.required])
def test_missing_required_family_param_is_named(key, name, capsys):
    flags = [a for n in cli.FAMILIES[key].params if n != name
             for a in (f"--{n}", str(_FAMILY_SAMPLE[n]))]
    code, _, err = run_cli(["eval", "--family", key, *flags, "--xmin", "0",
                            "--xmax", "1", "--n", "3"], capsys)
    assert code == 1
    assert err.startswith("error:") and f"'{name}'" in err


def test_simulate_without_config_names_the_flag(tmp_path, capsys):
    # used to escape as "error: TypeError: expected str, bytes or ..."
    code, _, err = run_cli(["simulate", "--family", "fisher", "--out",
                            str(tmp_path / "run")], capsys)
    assert code == 1
    assert err.startswith("error:") and "--config" in err
    assert "TypeError" not in err


@pytest.mark.parametrize("block", ["family", "grid", "time", "params", "bc"])
def test_config_block_must_be_an_object(tmp_path, capsys, block):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({block: 3}))
    code, _, err = run_cli(["eval", "--family", "fisher", "--config",
                            str(cfg_path), "--xmin", "0", "--xmax", "1",
                            "--n", "3"], capsys)
    assert code == 1
    assert f"config {block} must be a JSON object" in err


@pytest.mark.parametrize("argv", [
    ["reduce", "--system", "T2d", "--a1", "0.5", "--a4", "0.8",
     "--span", "0", "1"],
    ["symmetry", "list"],
], ids=["reduce", "symmetry-list"])
def test_params_file_must_be_an_object(tmp_path, capsys, argv):
    path = tmp_path / "params.json"
    path.write_text("3")
    code, _, err = run_cli([*argv, "--params", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:") and "must be a JSON object" in err


def test_reduce_params_file_keys_are_checked(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"a1": 0.5, "surprise": 1}))
    code, _, err = run_cli(["reduce", "--system", "T2d", "--a4", "0.8",
                            "--span", "0", "1", "--params", str(path)],
                           capsys)
    assert code == 1
    assert "reduce params file has unknown keys ['surprise']" in err


def test_speed_default_window_follows_time_not_file_order(tmp_path, capsys):
    # the default fit window came from the first and last snapshots in file
    # order: with the last snapshot moved second it read [0.7, 1.4] with 4
    # crossings, not [0.75, 1.5] with 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"key": "fisher"},
        "grid": {"x_min": -15.0, "x_max": 20.0, "n": 351},
        "time": {"t_end": 1.5, "snapshot_every": 100}}))
    code, _, _ = run_cli(["simulate", "--config", str(cfg), "--out",
                          str(tmp_path / "sorted"), "--quiet"], capsys)
    assert code == 0
    header, *rows = (tmp_path / "sorted" / "snapshots.csv").read_text() \
        .splitlines()
    blocks = {}
    for row in rows:
        blocks.setdefault(row.split(",")[0], []).append(row)
    times = list(blocks)
    (tmp_path / "shuffled").mkdir()
    (tmp_path / "shuffled" / "snapshots.csv").write_text("\n".join(
        [header, *(row for t in [times[0], times[-1], *times[1:-1]]
                   for row in blocks[t])]) + "\n")
    reports = []
    for run in ("sorted", "shuffled"):
        out = tmp_path / f"{run}.json"
        code, _, _ = run_cli(["speed", "--run", str(tmp_path / run),
                              "--component", "u", "--level", "0.5",
                              "--out", str(out)], capsys)
        assert code == 0
        reports.append(json.loads(out.read_text()))
    for rep in reports:
        del rep["inputs"]["run"]
    assert reports[0]["speed"]["fit_window"] == [0.75, 1.5]
    assert reports[0]["speed"]["n_crossings"] == 5
    for part in ("inputs", "results", "speed", "warnings"):
        assert reports[1][part] == reports[0][part]


@pytest.mark.parametrize("window", [["1.5", "0.5"], ["1", "1"]],
                         ids=["reversed", "empty"])
def test_fit_window_is_checked_by_flag_name(tmp_path, window, capsys):
    # a reversed fit window was reported as "fit window contains fewer
    # than 2 snapshots"
    rows = [f"{t},{x!r},{0.5 * (1.0 - math.tanh(x - 2.0 * t))!r},0,0"
            for t in (0.5, 1.0, 1.5) for x in np.linspace(-5, 8, 27).tolist()]
    (tmp_path / "snapshots.csv").write_text("\n".join(["t,x,u,v,w", *rows]))
    speed = ["speed", "--run", str(tmp_path), "--component", "u", "--level",
             "0.5", "--fit-window"]
    assert run_cli([*speed, "0.5", "1.5"], capsys)[0] == 0
    code, out, err = run_cli([*speed, *window], capsys)
    assert code == 1 and out == ""
    lo, hi = map(float, window)
    assert err == (f"error: --fit-window must run from low to high over a "
                   f"finite width, got {lo} {hi}\n")


def test_speed_rejects_short_snapshot_rows(tmp_path, capsys):
    (tmp_path / "snapshots.csv").write_text(
        "t,x,u,v,w\n0,0,1,1,1\n0,0.5,1,1\n0,1,1,1,1\n")
    code, _, err = run_cli(["speed", "--run", str(tmp_path), "--component",
                            "u", "--level", "0.5"], capsys)
    assert code == 1
    assert err.startswith("error:") and "line 3" in err


def test_speed_rejects_non_numeric_snapshot_cells(tmp_path, capsys):
    path = tmp_path / "snapshots.csv"
    path.write_text("t,x,u,v,w\n0,0,1,1,1\n0,0.5,abc,1,1\n0,1,1,1,1\n")
    code, _, err = run_cli(["speed", "--run", str(tmp_path), "--component",
                            "u", "--level", "0.5"], capsys)
    assert code == 1
    assert err.startswith(f"error: {path} line 3:") and "'abc'" in err


def test_speed_names_a_bad_line_by_its_file_line(tmp_path, capsys):
    # blank lines before the bad one count toward its number
    path = tmp_path / "snapshots.csv"
    path.write_text("t,x,u,v,w\n0,0,1,1,1\n\n  \n0,0.5,1,1\n0,1,1,1,1\n")
    assert run_cli(["speed", "--run", str(tmp_path), "--component", "u",
                    "--level", "0.5"], capsys) == (
        1, "", f"error: {path} line 5: expected 5 cells t,x,u,v,w, got 4\n")


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_speed_rejects_non_finite_snapshot_times(tmp_path, capsys, t):
    # NaN times never compare equal, so each such row became a one-node
    # snapshot, and the error named its grid, not its time
    path = tmp_path / "snapshots.csv"
    path.write_text("t,x,u,v,w\n"
                    + "".join(f"{s},{x},1,1,1\n" for s in ("0", t)
                              for x in range(6)))
    code, _, err = run_cli(["speed", "--run", str(tmp_path), "--component",
                            "u", "--level", "0.5"], capsys)
    assert code == 1
    assert err.startswith(f"error: {path} line 8: snapshot time t = {t} ")
    with pytest.raises(ConstraintError, match=f"line 8: snapshot time "
                                              f"t = {t} is not finite"):
        cli.read_snapshots_csv(path)


@pytest.mark.parametrize("text", ["t,x,u,v,w\n", "t,x,u,v,w\n\n  \n"],
                         ids=["header-only", "blank-lines"])
def test_speed_rejects_snapshot_file_without_rows(tmp_path, capsys, text):
    # an IndexError from the empty time list used to escape dispatch as a
    # bare traceback
    (tmp_path / "snapshots.csv").write_text(text)
    code, _, err = run_cli(["speed", "--run", str(tmp_path), "--component",
                            "u", "--level", "0.5"], capsys)
    assert code == 1
    assert err == "error: no snapshots to measure a front speed in\n"


def _reference_read_snapshots(path):
    """The per-line reader that `read_snapshots_csv` replaced, kept as
    the reference for its block reader: {t: rows of x, u, v, w} in order
    of first appearance, or the ConstraintError it raised."""
    groups: dict[float, list] = {}
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                return ConstraintError(f"{path} line {lineno}: expected 5 "
                                       f"cells t,x,u,v,w, got {len(parts)}")
            try:
                t = float(parts[0])
                vals = [float(p) if p else math.nan for p in parts[1:]]
            except ValueError as e:
                return ConstraintError(f"{path} line {lineno}: {e}")
            groups.setdefault(t, []).append(vals)
    return {t: np.asarray(rows) for t, rows in groups.items()}


def _snapshot_lines(t, n=1500, vw=True):
    """CSV lines of one snapshot; without `vw`, the v and w cells are
    empty."""
    xs = np.linspace(-3.0, 4.0, n).tolist()
    if not vw:
        return [f"{t},{x!r},{math.sin(x)!r},," for x in xs]
    return [f"{t},{x!r},{math.sin(x)!r},{math.cos(x)!r},{x * x!r}"
            for x in xs]


def _bad_cell(line, i, cell):
    parts = line.split(",")
    parts[i:i + 1] = cell
    return ",".join(parts)


# the lines after the header: 1,500-node snapshots, so that each file
# runs over more than one 2,048-line block; an error sits on line 2,502
# or 2,602, past the first block, after a blank line that counts
_READER_CASES = {
    "crlf-and-blank-lines": lambda a, b, c: [*a[:700], "", "  ", *a[700:],
                                             "", *b, *c, ""],
    # rows of one t in non-adjacent runs, the first at t = -0, the rest
    # at t = 0
    "split-runs": lambda a, b, c: [*a[:900], *b[:300],
                                   *_snapshot_lines("0")[900:], *c,
                                   *b[300:]],
    "empty-cells": lambda a, b, c: [*_snapshot_lines("0", vw=False), *b],
    "bad-cell": lambda a, b, c: [*a, "", *b[:999],
                                 _bad_cell(b[999], 2, ["1e3x"]), *b[1000:]],
    "short-row": lambda a, b, c: [*a, "", *b[:1099],
                                  _bad_cell(b[1099], 4, []), *b[1100:]],
}


@pytest.mark.parametrize("name", sorted(_READER_CASES))
def test_block_reader_matches_per_line_reader(tmp_path, name):
    lines = _READER_CASES[name](*(_snapshot_lines(t)
                                  for t in ("-0", "0.25", "0.5")))
    path = tmp_path / "snapshots.csv"
    newline = "\r\n" if name.startswith("crlf") else "\n"
    path.write_bytes(newline.join(["t,x,u,v,w", *lines, ""]).encode())
    want = _reference_read_snapshots(path)
    if isinstance(want, ConstraintError):
        with pytest.raises(ConstraintError) as got:
            cli.read_snapshots_csv(path)
        assert str(got.value) == str(want)
        assert f" line {2502 if name == 'bad-cell' else 2602}: " in str(want)
        return
    snaps = cli.read_snapshots_csv(path)
    assert [repr(s.t) for s in snaps] == [repr(t) for t in want]
    for s, rows in zip(snaps, want.values()):
        assert (s.grid.x_min, s.grid.x_max, s.grid.n) == (
            rows[0, 0], rows[-1, 0], len(rows))
        for got, col in zip((s.u, s.v, s.w), rows[:, 1:].T):
            assert got.tobytes() == col.tobytes()


@pytest.mark.parametrize("argv", [
    ["reduce", "--system", "T2d", "--a4", "0.8", "--span", "0", "1"],
    ["symmetry", "list", "--a2", "0.7", "--a3", "0.9", "--a4", "1.1",
     "--a5", "0.2"],
], ids=["reduce", "symmetry-list"])
@pytest.mark.parametrize("value", ["x", True, [0.5], None],
                         ids=["string", "bool", "list", "null"])
def test_params_file_values_must_be_numbers(tmp_path, capsys, argv, value):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"a1": value}))
    code, _, err = run_cli([*argv, "--params", str(path)], capsys)
    assert code == 1
    assert err.startswith("error:") and "a1 = " in err
    assert "is not a number" in err


@pytest.mark.parametrize("source", ["flag", "params-file"])
def test_reduce_rejects_non_finite_coefficients(tmp_path, capsys, source):
    # a NaN coefficient used to reach the integrator and stop it with a
    # step-size underflow (exit 2)
    argv = ["reduce", "--system", "T2d", "--a4", "0.8", "--span", "0", "1"]
    if source == "flag":
        argv += ["--a1", "nan"]
    else:
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"a1": math.nan}))  # writes NaN
        argv += ["--params", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and "a1 must be finite" in err


def test_reduce_params_file_takes_the_l52_case(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"beta": 0.3, "a4": 0.5, "case": "50"}))
    code, out, _ = run_cli(["reduce", "--system", "L52", "--y0", "1,0",
                            "--span", "-1", "1", "--params", str(path)],
                           capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["coeffs"]["case"] == "50"


@pytest.mark.parametrize("argv,flag", [
    (["residual", "--family", "fisher", "--h", "0"], "--h"),
    (["residual", "--family", "fisher", "--dt", "0"], "--dt"),
    (["residual", "--family", "fisher", "--dt", "-0.001"], "--dt"),
    (["residual", "--family", "fisher", "--refine", "--h-seq", "4e-3",
      "0"], "--h-seq"),
    (["symmetry", "verify", "--family", "fisher", "--op", "Q1", "--eps",
      "0.1", "--h", "0"], "--h"),
], ids=["residual-h", "residual-dt", "residual-negative-dt",
        "residual-h-seq", "symmetry-verify-h"])
def test_step_flags_must_be_positive(argv, flag, capsys):
    # a zero used to fall back to the default and exit 0
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert f"argument {flag}: must be positive" in err


_R38 = ["reduce", "--system", "R38", "--a1", "0.5", "--a3", "1", "--a4",
        "0.7", "--beta", "0.3"]
_XINF = ["symmetry", "verify", "--family", "fisher", "--op", "Xinf", "--eps",
         "0.1"]


@pytest.mark.parametrize("argv,flag,what", [
    (["eval", "--family", "fisher", "--xmin", "nan", "--xmax", "1", "--n",
      "3"], "--xmin", "finite"),
    (["eval", "--family", "fisher", "--xmin", "0", "--xmax", "inf", "--n",
      "3"], "--xmax", "finite"),
    (["eval", "--family", "fisher", "--t", "inf", "--xmin", "0", "--xmax",
      "1", "--n", "3"], "--t", "finite"),
    (["residual", "--family", "fisher", "--t", "nan"], "--t", "finite"),
    (["residual", "--family", "fisher", "--window", "-1", "nan"],
     "--window", "finite"),
    (["symmetry", "verify", "--family", "fisher", "--op", "Q1", "--eps",
      "nan"], "--eps", "finite"),
    (["speed", "--run", ".", "--component", "u", "--level", "nan"],
     "--level", "finite"),
    (["speed", "--run", ".", "--component", "u", "--level", "0.5",
      "--fit-window", "0", "inf"], "--fit-window", "finite"),
    ([*_R38, "--span", "0", "nan"], "--span", "finite"),
    ([*_R38, "--span", "0", "1", "--max-step", "-0.5"], "--max-step",
     "positive"),
    ([*_R38, "--span", "0", "1", "--max-step", "inf"], "--max-step",
     "finite"),
    (["residual", "--family", "fisher", "--h", "nan"], "--h", "finite"),
    ([*_XINF, "--heat-a", "nan"], "--heat-a", "finite"),
    ([*_XINF, "--heat-kind", "exponential", "--heat-mu", "nan"], "--heat-mu",
     "finite"),
    ([*_XINF, "--heat-kind", "constant", "--heat-b", "nan"], "--heat-b",
     "finite"),
], ids=["eval-xmin", "eval-xmax", "eval-t", "residual-t", "residual-window",
        "verify-eps", "speed-level", "speed-fit-window", "reduce-span",
        "reduce-negative-max-step", "reduce-inf-max-step", "residual-nan-h",
        "verify-heat-a", "verify-heat-mu", "verify-heat-b"])
def test_float_flags_must_be_finite(argv, flag, what, capsys):
    # these wrote nan or inf rows and exited 0, read a negative step as
    # positive, or failed later as a "numerical failure"
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert f"argument {flag}: must be {what}" in err


def test_reduce_nan_max_step_is_rejected_not_hung():
    # a NaN step never shrank below the floor, so the integrator spun
    # forever; run it where a hang is a timeout
    env = {**os.environ,
           "PYTHONPATH": str(Path(hgf.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "hgf.cli", *_R38, "--span", "0", "1",
         "--max-step", "nan"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "argument --max-step: must be finite" in proc.stderr


def test_semi_family_rejects_non_finite_profile_step(capsys):
    # the tabulation step reached int(ceil(nan)) and exited 3 as a bug
    code, _, err = run_cli(["eval", "--family", "semi50", "--a4", "0.5",
                            "--beta", "0.3", "--profile-step", "nan",
                            "--xmin", "0", "--xmax", "1", "--n", "3"],
                           capsys)
    assert code == 1
    assert err.startswith("error:") and "step must be finite" in err


@pytest.mark.parametrize("exc", [KeyError, TypeError, ValueError,
                                 OverflowError, ZeroDivisionError,
                                 IndexError])
def test_program_bug_exits_3_with_traceback(monkeypatch, capsys, exc):
    # a bug in a handler is not a user error: it gets its own exit code,
    # and the traceback that locates it
    def broken(args, config):
        raise exc("planted")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    code, _, err = run_cli(["catalog"], capsys)
    assert code == 3
    assert err.startswith(f"internal error: {exc.__name__}: ")
    assert "Traceback (most recent call last)" in err
    assert "in broken" in err


def test_malformed_json_config_exits_1(tmp_path, capsys):
    # json.JSONDecodeError is a ValueError, but the file is the user's
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"family": ')
    code, _, err = run_cli(["eval", "--config", str(cfg_path), "--t", "0",
                            "--xmin", "0", "--xmax", "1", "--n", "3"],
                           capsys)
    assert code == 1
    assert err.startswith("error: JSONDecodeError")
    assert "Traceback" not in err


_FISHER_RUN = {"family": {"key": "fisher"},
               "grid": {"x_min": -10.0, "x_max": 10.0, "n": 51},
               "time": {"t_end": 0.1}}


@pytest.mark.parametrize("block,value,named", [
    ("grid", {"x_min": -10.0, "x_max": 10.0}, "config grid needs 'n'"),
    ("time", {"snapshot_every": 5}, "config time needs 't_end'"),
    ("bc", {"kind": "dirichlet", "left": [0, 0, 0]}, "bc right"),
    ("bc", {"kind": "dirichlet", "left": 1, "right": [0, 0, 0]}, "bc left"),
    ("bc", {"kind": "dirichlet", "left": [1, 2], "right": [0, 0, 0]},
     "bc left"),
    ("params", {"a1": 1.0}, "config params needs"),
    ("params", {"a1": "x", "a2": 1, "a3": 1, "a4": 1, "a5": 1},
     "a number for a1"),
], ids=["grid-n", "time-t_end", "bc-no-right", "bc-scalar", "bc-short",
        "params-partial", "params-string"])
def test_config_mistakes_are_user_errors(tmp_path, capsys, block, value,
                                         named):
    # these reached the handler as KeyError, TypeError or ValueError,
    # which now mean a bug in the program
    config = {**_FISHER_RUN, block: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(["simulate", "--config", str(cfg_path), "--out",
                            str(tmp_path / "run"), "--quiet"], capsys)
    assert code == 1
    assert err.startswith("error:") and named in err


_EVAL_01 = ["--xmin", "0", "--xmax", "1", "--n", "3"]


@pytest.mark.parametrize("argv,config,message", [
    (["eval", *_EVAL_01], None, "no family given (flag --family or config)"),
    (["eval", "--family", "bogus", *_EVAL_01], None,
     "unknown family key 'bogus'"),
    (["eval", "--config", "cfg.json", *_EVAL_01], {"family": {"key": 5}},
     "config family needs a 'key' string"),
    (["eval", "--family", "fisher", *_EVAL_01[:4], "--n", "0"], None,
     "--n must be >= 1"),
    (["simulate", "--config", "cfg.json", "--out", "run"],
     {"family": {"key": "fisher"}, "grid": _FISHER_RUN["grid"]},
     "simulate config needs 'grid' and 'time' blocks"),
    (["symmetry", "list", "--a1", "1", "--a3", "1"], None,
     "symmetry list needs coefficients ['a2', 'a4', 'a5']"),
    (["speed", "--run", "nowhere", "--component", "u", "--level", "0.5"],
     None, "[Errno 2] No such file or directory: 'nowhere/snapshots.csv'"),
], ids=["no-family", "unknown-family", "family-key-not-a-string", "eval-n-0",
        "simulate-no-time", "symmetry-list-missing", "speed-no-run"])
def test_user_errors_exit_1_with_their_message(tmp_path, capsys, monkeypatch,
                                               argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text,message", [
    ("t,x,u\n0,0,1\n", "unexpected CSV header 't,x,u'"),
    ("t,x,u,v,w\n" + "".join(f"0.5,{x},1,1,1\n" for x in (0, 1, 2, 4, 5)),
     "snapshot at t = 0.5 is not on a uniform grid"),
], ids=["header", "non-uniform-grid"])
def test_speed_rejects_malformed_snapshot_files(tmp_path, capsys, text,
                                                message):
    (tmp_path / "snapshots.csv").write_text(text)
    argv = ["speed", "--run", str(tmp_path), "--component", "u", "--level",
            "0.5"]
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


def test_simulate_names_the_first_config_param_the_family_overrides(
        tmp_path, capsys, monkeypatch):
    # the family's own coefficients win; a1 and d2 differ here, and the
    # warning names only the first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {**_FISHER_RUN, "params": {"a1": 0.3, "a2": 0.0, "a3": 0.0,
                                   "a4": 1.0, "a5": 0.0, "d2": 2.0}}))
    code, out, err = run_cli(["simulate", "--config", "cfg.json", "--out",
                              "run"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(Path("run/report.json").read_text())
    assert report["warnings"] == [
        "config params.a1 = 0.3 differs from the family-induced value 0.0; "
        "the family wins"]
    assert out == (f"wrote run/snapshots.csv "
                   f"({report['results']['csv_rows']} rows) and "
                   f"run/report.json\n")


def test_reduce_verify_without_an_oracle_warns_that_it_skipped(capsys):
    code, out, err = run_cli(["reduce", "--system", "T2d", "--a1", "0.5",
                              "--a4", "0.8", "--y0", "0.5,0.5,0.5", "--span",
                              "0", "1", "--verify"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["warnings"] == ["--verify oracle comparison is available "
                                  "for R38 with --case only; skipped"]
    assert "oracle_max_deviation" not in report["results"]


def test_symmetry_list_takes_whole_configs_through_config_only(
        tmp_path, capsys, monkeypatch):
    # --params reads a coefficients file; a whole run-config is --config's
    monkeypatch.chdir(tmp_path)
    coeffs = {"a1": 0.3, "a2": 0.7, "a3": 0.9, "a4": 1.1, "a5": 0.2}
    (tmp_path / "run.json").write_text(json.dumps({**_FISHER_RUN,
                                                   "params": coeffs}))
    assert run_cli(["symmetry", "list", "--params", "run.json"], capsys) == (
        1, "", "error: params file has unknown keys "
               "['family', 'grid', 'params', 'time']\n")
    flags = [a for k, v in coeffs.items() for a in (f"--{k}", str(v))]
    expected = run_cli(["symmetry", "list", *flags], capsys)
    assert expected[0] == 0 and expected[2] == ""
    assert run_cli(["symmetry", "list", "--config", "run.json"],
                   capsys) == expected


def test_reduce_y0_must_be_numbers(capsys):
    code, _, err = run_cli(["reduce", "--system", "T2d", "--a1", "0.5",
                            "--a4", "0.8", "--y0", "1,x,2", "--span", "0",
                            "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "--y0" in err


def test_reduce_zero_divisor_is_a_user_error(capsys):
    # T2b divides by a1: a1 = 0 escaped as a ZeroDivisionError traceback
    code, _, err = run_cli(["reduce", "--system", "T2b", "--alpha", "1",
                            "--gamma", "0.1", "--a1", "0", "--a4", "0.7",
                            "--span", "0", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "divides by a1" in err


_FAM40_FLAGS = ["--a1", "0.1", "--a4", "0.5", "--delta1", "2"]


@pytest.mark.parametrize("argv,named", [
    (["eval", "--family", "fam40-i", *_FAM40_FLAGS, "--beta", "nan",
      "--delta2", "0.5", "--xmin", "0", "--xmax", "1", "--n", "3"], "beta"),
    (["eval", "--family", "fam40-ii", *_FAM40_FLAGS, "--beta", "1",
      "--delta2", "inf", "--xmin", "0", "--xmax", "1", "--n", "3"],
     "delta2"),
    (["eval", "--family", "semi51", "--a3", "0.5", "--gamma", "inf",
      "--profile-lo", "-5", "--profile-hi", "5", "--xmin", "0", "--xmax",
      "1", "--n", "3"], "gamma"),
    (["residual", "--family", "fam40-i", *_FAM40_FLAGS, "--beta", "nan",
      "--delta2", "0.5"], "beta"),
], ids=["eval-fam40-i-beta", "eval-fam40-ii-delta2", "eval-semi51-gamma",
        "residual-fam40-i-beta"])
def test_family_coefficients_must_be_finite(argv, named, capsys):
    # the evals wrote NaN or inf rows and exited 0; the residual exited 2
    # as a numerical failure
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and f"{named} must be finite" in err
    assert out == ""


_SEMI35 = ["eval", "--family", "semi35-i", "--a1", "0.5", "--a4", "0.5",
           "--beta", "0.3", "--xmin", "0", "--xmax", "1", "--n", "3"]


@pytest.mark.parametrize("flags,named", [
    (["--profile-hi", "inf"], "window ends must be finite"),
    (["--profile-lo=-inf"], "window ends must be finite"),
    (["--y0", "nan"], "initial state must be finite"),
    (["--dy0", "inf"], "initial state must be finite"),
], ids=["profile-hi-inf", "profile-lo-inf", "y0-nan", "dy0-inf"])
def test_semi_profile_inputs_must_be_finite(flags, named, capsys):
    # an infinite window end escaped as an OverflowError traceback; a
    # non-finite initial state exited 2 as a blow-up
    code, _, err = run_cli([*_SEMI35, *flags], capsys)
    assert code == 1
    assert err.startswith("error:") and named in err


def test_semi_reversed_profile_window_is_named(capsys):
    # a reversed window was blamed on the anchor: "anchor must lie inside
    # the profile window"
    code, out, err = run_cli([*_SEMI35, "--profile-lo", "5", "--profile-hi",
                              "-5"], capsys)
    assert code == 1 and out == ""
    assert err == "error: profile window must have lo < hi, got (5.0, -5.0)\n"


def test_semi_narrow_profile_window_is_named(capsys):
    # a window narrower than the profile's residual check was blamed on
    # the check's grid: "SpaceGrid n must be an integer >= 5 ... got 3"
    code, out, err = run_cli([*_SEMI35, "--profile-lo=-0.01", "--profile-hi",
                              "0.01"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: profile window (-0.01, 0.01) is narrower than "
                   "0.024, the width its residual check needs\n")


def test_eval_span_width_must_be_finite(capsys):
    # each end is finite but the width overflows: rows with x = nan, inf
    code, out, err = run_cli(["eval", "--family", "fisher", "--xmin=-1.7e308",
                              "--xmax", "1.7e308", "--n", "3"], capsys)
    assert code == 1
    assert err.startswith("error:") and "--xmin" in err and "--xmax" in err
    assert out == ""


@pytest.mark.parametrize("cmd", [
    ["residual", "--family", "fisher", "--h", "0.1"],
    ["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
     "0.1", "--h", "0.1"]], ids=["residual", "symmetry-verify"])
@pytest.mark.parametrize("window", [["5", "-5"], ["2", "2"],
                                    # argparse reads "-1e308" as an option
                                    ["-1" + "0" * 308, "1e308"]],
                         ids=["reversed", "empty", "overflowing"])
def test_window_is_checked_by_flag_name(cmd, window, capsys):
    # a reversed window was reported as "SpaceGrid n ... got -99"
    code, _, err = run_cli([*cmd, "--window", *window], capsys)
    assert code == 1
    assert err.startswith("error: --window")


def test_symmetry_verify_refine_reports_the_flowed_orders(tmp_path, capsys):
    out_file = tmp_path / "ver.json"
    code, _, _ = run_cli(
        ["symmetry", "verify", "--family", "fam40-i", *_FAM40_FLAGS,
         "--beta", "2.1822", "--delta2", "0.5", "--op", "Q1", "--eps", "0.3",
         "--window", "0", "4", "--refine", "--h-seq", "8e-3", "4e-3", "2e-3",
         "--out", str(out_file)], capsys)
    assert code == 0
    results = json.loads(out_file.read_text())["results"]
    refined = results["after_refined"]
    assert len(refined["history"]) == 3
    assert refined["h"] == pytest.approx(2e-3)
    assert all(1.8 <= o <= 2.2 for o in refined["order"])


_XINF = ["symmetry", "verify", "--family", "fisher", "--op", "Xinf", "--eps",
         "0.1", "--window", "-5", "5", "--h", "0.02"]


@pytest.mark.parametrize("flags,profile", [
    ([], symmetry.heat_decaying(0.7, 0.4, 1.0)),
    (["--heat-kind", "constant", "--heat-a", "0.2"],
     symmetry.heat_constant(0.2)),
    (["--heat-kind", "affine", "--heat-b", "-0.5"],
     symmetry.heat_affine(0.7, -0.5)),
    (["--heat-kind", "exponential", "--heat-mu", "0.3"],
     symmetry.heat_exponential(0.7, 0.3)),
    (["--heat-kind", "decaying-mode", "--heat-a", "0.1", "--heat-b", "0.2",
      "--heat-mu", "2"], symmetry.heat_decaying(0.1, 0.2, 2.0)),
], ids=["default", "constant", "affine", "exponential", "decaying-mode"])
def test_symmetry_verify_xinf_heat_kinds(flags, profile, capsys):
    args = cli.build_parser().parse_args([*_XINF, *flags])
    op = cli._op_from_args(args, solutions.fisher_tf().params)
    assert op.profile == profile and op.d2 == 1.0
    code, out, _ = run_cli([*_XINF, *flags], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["op"] == "Xinf"
    # Xinf moves v only: the u equation is untouched
    assert results["after"]["linf"][0] == results["before"]["linf"][0]
    assert results["after"]["linf"][1] < 1e-2


def test_symmetry_verify_unknown_heat_kind(capsys):
    code, _, err = run_cli([*_XINF, "--heat-kind", "periodic"], capsys)
    assert code == 1
    assert "unknown heat profile kind 'periodic'" in err


@pytest.mark.parametrize("argv,named", [
    (["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
      "0.1", "--heat-kind", "bogus", "--heat-a", "5"],
     "operator Px does not take --heat-kind, --heat-a"),
    ([*_XINF, "--heat-kind", "constant", "--heat-b", "9", "--heat-mu", "3"],
     "heat kind constant does not take --heat-b, --heat-mu"),
    ([*_XINF, "--heat-kind", "affine", "--heat-mu", "0.3"],
     "heat kind affine does not take --heat-mu"),
    ([*_XINF, "--heat-kind", "exponential", "--heat-b", "0.3"],
     "heat kind exponential does not take --heat-b"),
], ids=["px-heat-flags", "constant-b-mu", "affine-mu", "exponential-b"])
def test_symmetry_verify_rejects_heat_flags_it_does_not_read(argv, named,
                                                             capsys):
    # each of these exited 0 and dropped the flags
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("argv,named", [
    (["--system", "R38", "--a1", "0.5", "--a3", "1", "--a4", "0.7",
      "--beta", "0.3", "--alpha", "9", "--kappa1", "3"],
     "system R38 does not take --alpha, --kappa1"),
    (["--system", "L36", "--alpha", "1", "--a1", "0.5", "--beta", "0.3",
      "--kappa1", "0.3", "--kappa2", "1", "--delta1", "4"],
     "system L36 does not take --delta1"),
    (["--system", "R38", "--case", "i", "--a1", "0.5", "--a4", "0.7",
      "--beta", "0.3", "--delta1", "1.3", "--delta2", "0.4", "--d", "2"],
     "system R38 --case i does not take --d"),
    # L52 reads a4 in case 50 only: this one echoed "a4": 123.0
    (["--system", "L52", "--case", "51", "--a4", "123", "--beta", "0.3"],
     "L52 case 51 does not take a4 (it reads a4 in case 50 only)"),
], ids=["r38", "l36", "r38-case-i", "l52-case-51-a4"])
def test_reduce_rejects_coefficient_flags_it_does_not_read(argv, named,
                                                           capsys):
    # each of these exited 0 and dropped the flags
    code, _, err = run_cli(["reduce", *argv, "--span", "0", "1"], capsys)
    assert code == 1
    assert err == f"error: {named}\n"


def test_reduce_rejects_params_file_keys_it_does_not_read(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"a1": 0.5, "kappa2": 1.0, "d": 2.0}))
    code, _, err = run_cli(["reduce", "--system", "T2d", "--a4", "0.8",
                            "--span", "0", "1", "--params", str(path)],
                           capsys)
    assert code == 1
    assert err == ("error: reduce params file: system T2d does not take "
                   "keys ['d', 'kappa2']\n")


def test_reduce_r58_follows_the_tf63_plane_wave(tmp_path, tf63_std):
    # R58 takes the model coefficients as a Params record; from tf63's
    # profile data at omega = 0 it must trace the front's profiles
    p, m = tf63_std.params, tf63_std.meta
    amp, mu, delta = 0.25 * (1 - 2 * m["a1"] * m["delta"]), m["mu"], m["delta"]
    y0 = (amp, -2 * amp * mu, delta, -delta * mu, 0.5, 0.5 * mu)
    traj = tmp_path / "r58.csv"
    code = cli.dispatch(
        ["reduce", "--system", "R58", "--alpha", repr(tf63_std.speed),
         *[a for k in ("a1", "a2", "a3", "a4", "a5", "d2", "d3")
           for a in (f"--{k}", repr(getattr(p, k)))],
         "--y0", ",".join(map(repr, y0)), "--span", "0", "3",
         "--traj-out", str(traj)])
    assert code == 0
    rows = np.loadtxt(traj, delimiter=",", skiprows=1)
    exact = tf63_std.evaluate(0.0, rows[:, 0])
    for col, f in zip((1, 3, 5), exact):
        np.testing.assert_allclose(rows[:, col], f, rtol=0, atol=1e-8)

"""Compare the hgf command line of two source trees byte for byte.

    python tools/cli_identity.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``hgf`` package (a checkout's
``src``).  Every case below runs its commands, in order, as
``python -m hgf.cli ...`` against each tree, in a fresh temporary
directory that holds only the case's input files.  Per command the exit
code, stdout and stderr are compared; after the case, every file and
directory left in the temporary directory is compared too.  A command
that has not returned after ``TIMEOUT_S`` counts as the outcome
"timeout".  Prints one line per case and exits 1 on any difference.

The cases cover every subcommand and every report and CSV writer, a run
of every reduced system, each case of the separable (fam40, R38 with
``--case``) and semi-exact families, the flag-over-file, flag-over-config
and file-over-config warnings (two overrides in one command included), a
pinned-to-exact ``simulate`` (one from t0 = 0.5), Fisher ``simulate``
runs whose zero v and w rows the kernel does not step, under each boundary
kind, one whose w row alone is zero, a ``simulate`` that stores only its
final state, a ``speed`` fit flagged unreliable, snapshot files that the
``speed`` reader must take apart the same way (line ends, blank lines,
rows of one time apart, empty cells, bad lines past its first block) and
the user errors of each kind.
All paths are relative, so reports and messages do not depend on where
the temporary directory lies.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 10

TF63 = ["--a1", "0.1", "--delta", "0.35", "--a3", "1", "--d3", "3"]
FAM40 = ["--a1", "0.1", "--a4", "0.5", "--beta", "2.1822", "--delta1", "2",
         "--delta2", "0.5"]
SEMI50 = ["--a4", "0.5", "--beta", "0.3", "--gamma", "0.1", "--profile-lo",
          "-16", "--profile-hi", "16"]
SEMI35 = ["--a1", "0.5", "--a4", "0.5", "--beta", "0.3"]
EVAL = ["--xmin", "-3", "--xmax", "3", "--n", "13"]
R38_I = ["--system", "R38", "--case", "i", "--a1", "0.5", "--a4", "0.7",
         "--beta", "0.3", "--delta1", "1.3", "--delta2", "0.4"]
# a1 = 0.5: V = (1/a1) g and V = g / a1 agree to the bit
R38_II = ["--system", "R38", "--case", "ii", "--a1", "0.5", "--a4", "0.7",
          "--beta", "0.3", "--delta1", "1.3", "--delta2", "0.4"]
R38_III = ["--system", "R38", "--case", "iii", "--a1", "0.5", "--a3", "0.6",
           "--beta", "0.3", "--delta1", "0.8", "--delta2", "0.4"]
R38 = ["--system", "R38", "--a1", "0.5", "--a3", "1", "--a4", "0.7",
       "--beta", "0.3"]
STEP = ["--window", "-8", "8", "--h", "0.01"]


def _config(family, grid=(-15.0, 20.0, 351), t_end=1.5, every=100, **extra):
    cfg = {"family": family,
           "grid": {"x_min": grid[0], "x_max": grid[1], "n": grid[2]},
           "time": {"t_end": t_end, "snapshot_every": every}}
    return json.dumps({**cfg, **extra})


def _front_rows(times=(0.0, 0.25, 0.5, 0.75, 1.0), n=1001, vw=True,
                at=lambda t: 2.0 * t):
    """``t,x,u,v,w`` rows of a tanh front centred at x = `at`(t) (speed 2
    by default) over [-10, 10]; without `vw` the v and w cells are
    empty."""
    rows = []
    for t in times:
        for i in range(n):
            x = -10.0 + 20.0 * i / (n - 1)
            u = 0.5 * (1.0 - math.tanh(x - at(t)))
            vw_cells = f"{1.0 - u!r},{u * u!r}" if vw else ","
            rows.append(f"{t!r},{x!r},{u!r},{vw_cells}")
    return rows


def _snapshots(rows, newline="\n"):
    """The text of a snapshots CSV holding `rows`."""
    return newline.join(["t,x,u,v,w", *rows, ""])


# 5 snapshots of 1,001 rows (file lines 2-5006), so that the snapshot
# reader's 2,048-line blocks split them
FRONT = _front_rows()
SNAPSHOTS = "run/snapshots.csv"
SPEED = ["speed", "--run", "run", "--fit-window", "0", "1", "--component"]


def _with_line(rows, lineno, line):
    """`rows` with file line `lineno` (the header is line 1) replaced."""
    return [*rows[:lineno - 2], line, *rows[lineno - 1:]]


TF63_FAMILY = {"key": "tf63", "a1": 0.1, "delta": 0.35, "a3": 1.0, "d3": 3.0}
FISHER = {"key": "fisher"}
COEFFS = {"a1": 0.3, "a2": 0.7, "a3": 0.9, "a4": 1.1, "a5": 0.2}

# (name, {file: text}, [argv, ...])
CASES = [
    ("catalog", {}, [["catalog"]]),
    ("catalog-json", {}, [["catalog", "--json"],
                          ["catalog", "--json", "--out", "cat.json"]]),
    ("eval-fisher", {}, [["eval", "--family", "fisher", "--xmin", "-2",
                          "--xmax", "2", "--n", "9"]]),
    ("eval-tf63-out", {}, [["eval", "--family", "tf63", *TF63, "--t", "0.5",
                            "--xmin", "-5", "--xmax", "5", "--n", "101",
                            "--out", "tf63.csv"]]),
    ("eval-fam40", {}, [["eval", "--family", "fam40-i", *FAM40, "--xmin",
                         "0", "--xmax", "4", "--n", "17"]]),
    ("eval-tf65-single", {}, [["eval", "--family", "tf65", "--d", "1",
                               "--xmin", "0", "--xmax", "0", "--n", "1"]]),
    # amp = -0.0 at d = 5/3: v and w print as -0
    ("eval-tf65-signed-zero", {}, [["eval", "--family", "tf65", "--d",
                                    "1.6666666666666667", "--xmin", "-2",
                                    "--xmax", "2", "--n", "5"]]),
    ("eval-semi50", {}, [["eval", "--family", "semi50", *SEMI50, "--xmin",
                          "-3", "--xmax", "3", "--n", "13", "--out",
                          "semi.csv"]]),
    # each case of the separable and semi-exact families
    ("eval-fam40-ii", {}, [["eval", "--family", "fam40-ii", *FAM40,
                            "--t", "0.7", *EVAL]]),
    ("eval-fam40-iii", {}, [["eval", "--family", "fam40-iii", "--a1", "0.4",
                             "--a3", "0.6", "--beta", "0.3", "--delta1",
                             "0.8", "--delta2", "0.5", "--t", "0.7",
                             *EVAL]]),
    ("eval-semi35-i", {}, [["eval", "--family", "semi35-i", *SEMI35,
                            "--t", "0.2", *EVAL]]),
    ("eval-semi35-ii", {}, [["eval", "--family", "semi35-ii", "--a1", "0.5",
                             "--a4", "0.81", "--beta", "0.3", *EVAL]]),
    ("eval-semi35-iii", {}, [["eval", "--family", "semi35-iii", "--a1",
                              "0.5", "--a3", "0.7", "--beta", "0.2",
                              "--t", "0.3", *EVAL]]),
    ("eval-semi51", {}, [["eval", "--family", "semi51", "--a3", "0.7",
                          *SEMI50[2:], "--t", "0.4", *EVAL]]),
    # one profile flag each: the others keep the builder's defaults (the
    # window, y0 and dy0, and the anchor at the window's left edge)
    ("eval-semi-profile-defaults", {},
     [["eval", "--family", "semi35-i", *SEMI35, *flags, *EVAL]
      for flags in (["--profile-lo", "-18"], ["--profile-hi", "12"],
                    ["--y0", "0.5"], ["--dy0", "0.2"])]
     + [["eval", "--family", "semi50", *SEMI50, "--anchor", "0", *EVAL],
        ["eval", "--family", "semi51", "--a3", "0.7", *SEMI50[2:6],
         "--anchor", "-4", "--t", "0.4", *EVAL]]),
    ("eval-config-two-overrides",
     {"cfg.json": json.dumps({"family": {**TF63_FAMILY, "a1": 0.2,
                                         "d3": 2.0}})},
     [["eval", "--config", "cfg.json", "--a1", "0.1", "--d3", "3",
       "--xmin", "-1", "--xmax", "1", "--n", "5"]]),
    ("residual-fisher", {}, [["residual", "--family", "fisher", *STEP]]),
    ("residual-tf63-refine", {}, [["residual", "--family", "tf63", *TF63,
                                   "--refine", "--h-seq", "8e-3", "4e-3",
                                   "2e-3", "--window", "-15", "15", "--out",
                                   "rep.json"]]),
    ("residual-semi50-default-window", {},
     [["residual", "--family", "semi50", *SEMI50[:6], "--t", "0.4", "--h",
       "0.02", "--dt", "0.01"]]),
    # the default window of a profile tabulated on (-10, 10): (-8, 8),
    # moved with the front
    ("residual-semi-narrowed-profile-window", {},
     [["residual", "--family", "semi35-i", *SEMI35, "--profile-lo", "-10",
       "--profile-hi", "10", "--h", "0.01"],
      ["symmetry", "verify", "--family", "semi50", *SEMI50[:4],
       "--profile-lo", "-10", "--profile-hi", "10", "--op", "UdV", "--eps",
       "0.3", "--h", "0.01"]]),
    # semi-exact families through the ansatz reconstruction, a flow
    # included
    ("residual-semi35-ii", {},
     [["residual", "--family", "semi35-ii", *SEMI35, "--t", "0.4", "--h",
       "0.01"]]),
    ("residual-semi35-iii", {},
     [["residual", "--family", "semi35-iii", "--a1", "0.5", "--a3", "0.6",
       "--beta", "0.3", "--t", "0.4", "--h", "0.01"]]),
    ("residual-semi51", {},
     [["residual", "--family", "semi51", "--a3", "0.7", "--gamma", "0.1",
       "--beta", "0.3", "--t", "0.4", "--h", "0.01"]]),
    ("symmetry-verify-semi35-i-q1", {},
     [["symmetry", "verify", "--family", "semi35-i", *SEMI35, "--op", "Q1",
       "--eps", "0.3", "--h", "0.01"]]),
    ("residual-config-override",
     {"cfg.json": json.dumps({"family": {"key": "tf63", "a1": 0.2,
                                         "delta": 0.35}})},
     [["residual", "--family", "tf63", "--a1", "0.1", "--config",
       "cfg.json", *STEP, "--out", "rep.json"]]),
    ("simulate-speed-tf63",
     {"cfg.json": _config(TF63_FAMILY)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "w", "--level", "0.5",
       "--out", "speed.json"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.4",
       "--fit-window", "0", "1.5"]]),
    ("simulate-pinned-to-exact",
     {"cfg.json": _config(TF63_FAMILY, bc={"kind": "pinned-to-exact"})},
     [["simulate", "--config", "cfg.json", "--out", "run"],
      ["speed", "--run", "run", "--component", "w", "--level", "0.5"]]),
    # the boundary table starts at t0 + dt, not at dt
    ("simulate-pinned-to-exact-t0",
     {"cfg.json": _config(TF63_FAMILY, bc={"kind": "pinned-to-exact"},
                          time={"t0": 0.5, "t_end": 1.5,
                                "snapshot_every": 100})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "w", "--level", "0.5"]]),
    # more steps per snapshot than the run takes: only the final state
    # follows the initial one
    ("simulate-one-final-snapshot",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 101), t_end=0.2,
                          every=10**6)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.5",
       "--fit-window", "0", "0.2"]]),
    # the kernel steps only u: v and w are +0.0 with +0.0 boundary values
    ("simulate-fisher-neumann-zero",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 101), t_end=1.0,
                          every=25, bc={"kind": "neumann-zero"})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.5"]]),
    ("simulate-fisher-pinned-to-exact",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 101), t_end=1.0,
                          every=25, bc={"kind": "pinned-to-exact"})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.5"]]),
    # only the w row is zero: v has a boundary value, so u and v are
    # stepped
    ("simulate-w-row-zero",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 101), t_end=1.0,
                          every=25, bc={"kind": "dirichlet",
                                        "left": [1, 0.5, 0],
                                        "right": [0, 0, 0]})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.5",
       "--out", "speed.json"]]),
    # the default fit window, the last half, holds only the final state
    ("error-speed-short-default-window",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 201), t_end=0.05,
                          every=10**6)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "u", "--level", "0.5"]]),
    ("simulate-dirichlet-params-differ",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 101), t_end=0.2,
                          every=10,
                          params={**COEFFS, "d1": 1.0},
                          bc={"kind": "dirichlet", "left": [1, 0, 0],
                              "right": [0, 0, 1]})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("simulate-neumann-flag-override",
     {"cfg.json": _config({"key": "tf65", "d": 1.2}, grid=(-15.0, 15.0, 151),
                          t_end=0.5, every=10,
                          bc={"kind": "neumann-zero"})},
     [["simulate", "--config", "cfg.json", "--d", "1", "--out", "run",
       "--quiet"]]),
    ("symmetry-list-flags", {},
     [["symmetry", "list", "--a1", "0.3", "--a2", "0.7", "--a3", "0.9",
       "--a4", "1.1", "--a5", "0.2"]]),
    ("symmetry-list-params-two-overrides",
     {"params.json": json.dumps({"a1": 1.0, "a2": 1.0, "a3": 1.0,
                                 "a4": 1.0, "a5": 1.0, "d2": 2.0})},
     [["symmetry", "list", "--params", "params.json", "--a2", "0",
       "--d2", "1", "--a1", "1", "--out", "list.json"]]),
    ("symmetry-list-config",
     {"cfg.json": json.dumps({"params": COEFFS})},
     [["symmetry", "list", "--config", "cfg.json", "--a5", "0.4"]]),
    # each override names the source of the value it replaced
    ("symmetry-list-config-params-flag",
     {"cfg.json": json.dumps({"params": COEFFS}),
      "params.json": json.dumps({"a1": 0.5, "a3": 0.8})},
     [["symmetry", "list", "--config", "cfg.json", "--params",
       "params.json", "--a1", "0.9", "--a2", "0.6"]]),
    ("symmetry-verify", {},
     [["symmetry", "verify", "--family", "fam40-i", *FAM40, "--op", "Q1",
       "--eps", "0.3", "--h", "0.01"]]),
    ("symmetry-verify-refine", {},
     [["symmetry", "verify", "--family", "tf63", *TF63, "--op", "Px",
       "--eps", "0.2", "--refine", "--h-seq", "8e-3", "4e-3", "--window",
       "-6", "6", "--out", "ver.json"]]),
    # a flow over a family that defines u only
    ("symmetry-verify-fisher-px", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
       "0.3", "--window", "-6", "6", "--h", "0.02", "--refine", "--h-seq",
       "0.04", "0.02"]]),
    # coefficients that meet cases 0, 3, 8 and 12 at once
    ("symmetry-list-four-cases", {},
     [["symmetry", "list", "--a1", "0", "--a2", "0", "--a3", "0", "--a4",
       "1", "--a5", "0"]]),
    # an operator that reads two coefficients (a1 and a4)
    ("symmetry-verify-case9op", {},
     [["symmetry", "verify", "--family", "fam40-ii", *FAM40, "--op",
       "Case9Op", "--eps", "0.3", "--h", "0.01"]]),
    ("symmetry-verify-xinf", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Xinf", "--eps",
       "0.1", "--heat-kind", "affine", "--h", "0.02"]]),
    ("reduce-r38-oracle", {},
     [["reduce", *R38_I, "--span", "0", "3", "--verify", "--traj-out",
       "traj.csv", "--out", "red.json"]]),
    ("reduce-r38-oracle-cases-ii-iii", {},
     [["reduce", *R38_II, "--span", "0", "3", "--verify", "--traj-out",
       "traj-ii.csv"],
      ["reduce", *R38_III, "--span", "0", "3", "--verify", "--out",
       "red-iii.json"]]),
    ("reduce-params-two-overrides",
     {"params.json": json.dumps({"beta": 0.2, "a4": 0.4, "case": "50",
                                 "alpha": 2.0})},
     [["reduce", "--system", "L52", "--params", "params.json", "--beta",
       "0.3", "--a4", "0.5", "--y0", "1,0", "--span", "-1", "1",
       "--traj-out", "l52.csv"]]),
    ("reduce-verify-skipped", {},
     [["reduce", "--system", "T2d", "--a1", "0.5", "--a4", "0.8", "--y0",
       "0.5,0.5,0.5", "--span", "0", "1", "--verify", "--max-step", "0.05",
       "--traj-out", "t2d.csv"]]),
    ("reduce-r35-six-states", {},
     [["reduce", "--system", "R35", "--alpha", "2", "--beta", "0.3",
       "--a1", "0.5", "--a3", "1", "--a4", "0.7", "--d", "1", "--y0",
       "0.1,0,0.1,0,0.9,0", "--span", "0", "0.5", "--traj-out",
       "r35.csv"]]),
    # one successful run of every other reduced system
    ("reduce-r47", {},
     [["reduce", "--system", "R47", "--alpha", "2", "--beta", "0.3", "--a3",
       "1", "--a4", "0.7", "--d", "1.5", "--y0", "0.2,0,0.1,0,0.9,0",
       "--span", "0", "2", "--traj-out", "r47.csv"]]),
    ("reduce-r58", {},
     [["reduce", "--system", "R58", "--alpha", "2.057402057403086", "--a1",
       "0.1", "--a2", "0.031204290589956125", "--a3", "1", "--a4", "1",
       "--a5", "1.9214285714285713", "--d2", "4.379327157484154", "--d3",
       "3", "--y0", "0.5,-0.2,0.35,-0.05,0.5,0.1", "--span", "0", "1",
       "--traj-out", "r58.csv"]]),
    ("reduce-t2a", {},
     [["reduce", "--system", "T2a", "--alpha", "2", "--beta", "0.3",
       "--a1", "0.5", "--a4", "0.7", "--y0", "0.2,0,0.1,0,0.9,0", "--span",
       "0", "1", "--traj-out", "t2a.csv"]]),
    ("reduce-t2b", {},
     [["reduce", "--system", "T2b", "--alpha", "2", "--gamma", "0.1",
       "--a1", "0.5", "--a4", "0.7", "--y0", "0.2,0,0.1,0,0.9,0", "--span",
       "0", "1", "--traj-out", "t2b.csv"]]),
    ("reduce-t2c", {},
     [["reduce", "--system", "T2c", "--beta", "0.3", "--a1", "0.5", "--a4",
       "0.7", "--y0", "0.5,0.5,0.5", "--span", "0", "1", "--traj-out",
       "t2c.csv"]]),
    ("reduce-t2d", {},
     [["reduce", "--system", "T2d", "--a1", "0.5", "--a4", "0.8", "--y0",
       "0.5,0.5,0.5", "--span", "0", "1", "--max-step", "0.05",
       "--traj-out", "t2d.csv"]]),
    # user errors
    ("error-constraint", {},
     [["residual", "--family", "tf63", "--a1", "2.0", "--delta", "1.0"]]),
    ("error-unknown-config-key",
     {"cfg.json": json.dumps({"family": FISHER, "surprise": 1})},
     [["eval", "--config", "cfg.json", "--xmin", "0", "--xmax", "1", "--n",
       "3"]]),
    ("error-family-flag", {},
     [["eval", "--family", "fisher", "--a1", "5", "--profile-lo", "-5",
       "--xmin", "0", "--xmax", "1", "--n", "3"]]),
    ("error-argparse", {},
     [["residual", "--family", "fisher", "--h", "0"],
      ["reduce", "--system", "R38"]]),
    ("error-bc",
     {"bad-kind.json": _config(FISHER, bc={"kind": "periodic"}),
      "bad-left.json": _config(FISHER, bc={"kind": "dirichlet",
                                           "left": [1, 2],
                                           "right": [0, 0, 0]})},
     [["simulate", "--config", "bad-kind.json", "--out", "run1"],
      ["simulate", "--config", "bad-left.json", "--out", "run2"]]),
    ("error-numerical", {"cfg.json": _config({"key": "tf65", "d": 1.0},
                                             grid=(-15.0, 15.0, 151),
                                             t_end=0.5, every=10)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"],
      ["speed", "--run", "run", "--component", "w", "--level", "0.1"]]),
    ("error-params-file", {"params.json": json.dumps({"a1": "x"})},
     [["symmetry", "list", "--params", "params.json"],
      ["reduce", *R38, "--params", "params.json", "--span", "0", "1"]]),
    # the snapshot reader: CRLF line ends and blank lines, rows of one t in
    # runs that are not adjacent, empty cells
    ("speed-reader-crlf-blank-lines",
     {SNAPSHOTS: _snapshots([*FRONT[:1500], "", " \t", *FRONT[1500:], ""],
                            newline="\r\n")},
     [[*SPEED, "u", "--level", "0.5"],
      [*SPEED, "w", "--level", "0.25", "--out", "speed.json"]]),
    ("speed-reader-split-runs",
     {SNAPSHOTS: _snapshots([*FRONT[:600], *FRONT[2002:3003],
                             *FRONT[600:2002], *FRONT[3003:3503],
                             *FRONT[4004:], *FRONT[3503:4004]])},
     [[*SPEED, "u", "--level", "0.5"],
      ["speed", "--run", "run", "--component", "v", "--level", "0.5"]]),
    # a crossing at 2 t^2 fits a line badly: the report warns and reads
    # "reliable": false
    ("speed-unreliable-fit",
     {SNAPSHOTS: _snapshots(_front_rows(at=lambda t: 2.0 * t * t))},
     [[*SPEED, "u", "--level", "0.5", "--out", "speed.json"]]),
    ("speed-reader-empty-cells",
     {SNAPSHOTS: _snapshots(_front_rows(vw=False))},
     [[*SPEED, "u", "--level", "0.5"], [*SPEED, "w", "--level", "0.25"]]),
    # bad lines past the first 2,048-line block, after a blank line
    ("error-speed-reader-bad-line",
     {"bad-cell/snapshots.csv": _snapshots(_with_line(
         [*FRONT[:1000], "", *FRONT[1000:]], 3001,
         "0.5,0.1,1e3x,0.5,0.25")),
      "short-row/snapshots.csv": _snapshots(_with_line(
          [*FRONT[:1000], "", *FRONT[1000:]], 4001, "0.75,0.1,0.5,0.5"))},
     [["speed", "--run", run, "--component", "u", "--level", "0.5"]
      for run in ("bad-cell", "short-row")]),
    # a snapshot of 3 rows: its error names the file and the time
    ("error-speed-reader-short-snapshot",
     {SNAPSHOTS: _snapshots(_front_rows(times=(0.0,), n=3))},
     [[*SPEED, "u", "--level", "0.5"]]),
    ("error-missing-file", {},
     [["speed", "--run", "nowhere", "--component", "u", "--level", "0.5"]]),
    # an --out that cannot be written: a directory where a report goes, a
    # file where a run directory goes
    # a coefficient that is not a number, refused by the coefficient rule
    ("error-config-params-string",
     {"cfg.json": _config(FISHER, params={"a1": "x", "a2": 1, "a3": 1,
                                          "a4": 1, "a5": 1})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    # config values that are not finite numbers, each refused by the
    # record that reads it
    ("error-config-t-end-bool",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 51), t_end=True)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-config-x-min-bool",
     {"cfg.json": _config(FISHER, grid=(True, 10.0, 51), t_end=0.1)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-config-snapshot-every-bool",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 51), t_end=0.1,
                          every=True)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-config-bc-nan",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 51), t_end=0.5,
                          bc={"kind": "dirichlet", "left": [math.nan, 0, 0],
                              "right": [0, 0, 1]})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-config-family-nan",
     {"cfg.json": _config({**TF63_FAMILY, "delta": math.nan})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-out-is-directory", {"adir/kept.txt": "kept\n"},
     [["residual", "--family", "fisher", "--window", "-2", "2", "--h", "0.1",
       "--out", "adir"]]),
    ("error-out-is-file",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 51), t_end=0.1),
      "afile": "kept\n"},
     [["simulate", "--config", "cfg.json", "--out", "afile", "--quiet"]]),
    ("error-failed-run-leaves-no-directory",
     {"huge.json": _config(FISHER, t_end=1e300),
      "blow-up.json": _config(FISHER, grid=(-10.0, 10.0, 51), t_end=0.5,
                              bc={"kind": "dirichlet", "left": [1e200, 0, 0],
                                  "right": [0, 0, 1]})},
     [["simulate", "--config", "huge.json", "--out", "run1", "--quiet"],
      ["simulate", "--config", "blow-up.json", "--out", "run2", "--quiet"]]),
    ("error-non-finite-flags", {},
     [["eval", "--family", "fisher", "--xmin", "nan", "--xmax", "1",
       "--n", "3"],
      ["eval", "--family", "fisher", "--t", "inf", "--xmin", "0",
       "--xmax", "1", "--n", "3"],
      ["residual", "--family", "fisher", "--t", "nan", *STEP],
      ["speed", "--run", "nowhere", "--component", "u", "--level", "nan"],
      ["reduce", *R38, "--span", "0", "nan"],
      ["reduce", *R38, "--span", "0", "1", "--max-step", "-0.5"],
      ["eval", "--family", "semi50", *SEMI50, "--profile-step", "nan",
       "--xmin", "0", "--xmax", "1", "--n", "3"]]),
    ("error-non-finite-heat-flags", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Xinf", "--eps",
       "0.1", *flags]
      for flags in (["--heat-a", "nan"],
                    ["--heat-kind", "exponential", "--heat-mu", "nan"],
                    ["--heat-kind", "constant", "--heat-b", "nan"])]),
    # flags that the chosen operator, heat kind or system does not read
    ("error-unread-heat-flags", {},
     [["symmetry", "verify", "--family", "fisher", "--op", *flags, "--eps",
       "0.1", "--h", "0.05"]
      for flags in (["Px", "--heat-kind", "bogus", "--heat-a", "5"],
                    ["Xinf", "--heat-kind", "constant", "--heat-b", "9",
                     "--heat-mu", "3"])]),
    ("error-unread-reduce-flags",
     {"params.json": json.dumps({"a1": 0.5, "kappa2": 1.0})},
     [["reduce", *R38, "--alpha", "9", "--kappa1", "3", "--span", "0", "1"],
      ["reduce", "--system", "L36", "--alpha", "1", "--a1", "0.5", "--beta",
       "0.3", "--kappa1", "0.3", "--kappa2", "1", "--delta1", "4", "--span",
       "0", "1"],
      ["reduce", "--system", "T2d", "--a4", "0.8", "--params", "params.json",
       "--span", "0", "1"]]),
    # step flags, config keys and flags that the command does not read
    ("error-unread-residual-refine-steps", {},
     [["residual", "--family", "fisher", "--refine", "--dt", "0.5", "--h",
       "0.1"]]),
    ("error-unread-residual-h-seq", {},
     [["residual", "--family", "fisher", "--h-seq", "0.1", "0.05"]]),
    ("error-unread-verify-h-seq", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
       "0.1", "--h", "0.05", "--h-seq", "0.1", "0.05"]]),
    ("error-unread-bc-keys",
     {"cfg.json": _config(FISHER, bc={"kind": "neumann-zero",
                                      "left": [5, 5, 5], "right": "junk"})},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-unread-catalog-out", {},
     [["catalog", "--out", "cat.json"]]),
    ("error-unread-reduce-verify", {},
     [["reduce", *R38, "--span", "0", "1", "--verify"]]),
    # a span or max_step whose first step falls below the step floor
    ("error-reduce-too-short-span", {},
     [["reduce", *R38, "--span", "0", "1e-12"],
      ["reduce", *R38, "--span", "0", "1e-15"],
      ["reduce", *R38, "--span", "0", "1", "--max-step", "1e-20"]]),
    ("error-nan-max-step", {},
     [["reduce", *R38, "--span", "0", "1", "--max-step", "nan"]]),
    ("error-non-finite-family-coefficients", {},
     [["eval", "--family", "fam40-i", *FAM40[:4], "--beta", "nan",
       *FAM40[6:], "--xmin", "0", "--xmax", "1", "--n", "3"],
      ["eval", "--family", "fam40-ii", *FAM40[:8], "--delta2", "inf",
       "--xmin", "0", "--xmax", "1", "--n", "3"],
      ["eval", "--family", "semi51", "--a3", "0.5", "--gamma", "inf",
       *SEMI50[6:], "--xmin", "0", "--xmax", "1", "--n", "3"],
      ["residual", "--family", "fam40-i", *FAM40[:4], "--beta", "nan",
       *FAM40[6:]]]),
    ("error-semi-profile-inputs", {},
     [["eval", "--family", "semi35-i", *SEMI35, *flags, "--xmin", "0",
       "--xmax", "1", "--n", "3"]
      for flags in (["--profile-hi", "inf"], ["--profile-lo=-inf"],
                    ["--y0", "nan"], ["--dy0", "inf"],
                    ["--profile-lo", "5", "--profile-hi", "-5"])]),
    # a1 given to a case that forces a1 = 0, a reversed profile window,
    # and an a4 that L52 reads only in case 50
    ("error-semi50-a1", {},
     [["eval", "--family", fam, "--a1", "5", *flags, *SEMI50[2:], "--xmin",
       "0", "--xmax", "1", "--n", "3"]
      for fam, flags in (("semi50", SEMI50[:2]),
                         ("semi51", ["--a3", "0.7"]))]),
    ("error-semi-reversed-window", {},
     [["eval", "--family", "semi35-i", *SEMI35[:4], "--beta", "3",
       "--profile-lo", "5", "--profile-hi", "-5", *EVAL],
      ["residual", "--family", "semi50", *SEMI50[:6], "--profile-lo", "16",
       "--profile-hi", "-16", *STEP]]),
    ("error-reduce-l52-case51-a4",
     {"params.json": json.dumps({"case": "51", "a4": 0.7, "beta": 0.3})},
     [["reduce", "--system", "L52", "--case", "51", "--a4", a4, "--beta",
       "0.3", "--span", "0", "1", "--traj-out", f"l52-{a4}.csv"]
      for a4 in ("123", "0.7")]
     + [["reduce", "--system", "L52", "--params", "params.json", "--span",
         "0", "1"]]),
    ("error-eval-span-overflow", {},
     [["eval", "--family", "fisher", "--xmin=-1.7e308", "--xmax",
       "1.7e308", "--n", "3"]]),
    ("error-unknown-operator", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Bogus", "--eps",
       "0.1"]]),
    ("error-operator-not-admissible", {},
     [["symmetry", "verify", "--family", "fisher", "--op", "Case10Op",
       "--eps", "0.1"]]),
    # the grid budget: a spacing with no finite node count, a config grid
    # and an --n above the limit (both refused before any allocation)
    ("error-grid-spacing-budget", {},
     [["residual", "--family", "fisher", "--h", "5e-324"]]),
    ("error-grid-n-budget",
     {"cfg.json": _config(FISHER, grid=(-10.0, 10.0, 20_000_000),
                          t_end=0.1)},
     [["simulate", "--config", "cfg.json", "--out", "run", "--quiet"]]),
    ("error-eval-n-budget", {},
     [["eval", "--family", "fisher", "--xmin", "0", "--xmax", "1", "--n",
       str(10**19)]]),
    ("error-window", {},
     [["residual", "--family", "fisher", "--window", "5", "-5", "--h",
       "0.1"],
      ["symmetry", "verify", "--family", "fisher", "--op", "Px", "--eps",
       "0.1", "--window", "2", "2"],
      ["residual", "--family", "fisher", "--window", "-1" + "0" * 308,
       "1e308"]]),
]


def _run(src: Path, argv: list[str], cwd: Path) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    try:
        p = subprocess.run([sys.executable, "-m", "hgf.cli", *argv], cwd=cwd,
                           env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ("timeout",)
    # a traceback names the tree it ran from
    err = p.stderr.replace(str(src).encode(), b"<src>")
    return (p.returncode, p.stdout, err)


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def run_case(src: Path, files: dict, commands: list) -> tuple[list, dict]:
    with tempfile.TemporaryDirectory(prefix="hgf-cli-") as tmp:
        cwd = Path(tmp)
        for name, text in files.items():
            (cwd / name).parent.mkdir(parents=True, exist_ok=True)
            (cwd / name).write_bytes(text.encode())
        outcomes = [_run(src, argv, cwd) for argv in commands]
        return outcomes, _tree(cwd)


def _describe(a: tuple, b: tuple) -> str:
    if len(a) != len(b) or a[0] != b[0]:
        return f"exit {a[0]} vs {b[0]}"
    parts = [name for name, x, y in (("stdout", a[1], b[1]),
                                     ("stderr", a[2], b[2])) if x != y]
    return " and ".join(parts) + " differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_identity.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "hgf" / "cli.py").is_file():
            print(f"no hgf package under {src}", file=sys.stderr)
            return 2
    differ = 0
    for name, files, commands in CASES:
        (out_a, tree_a), (out_b, tree_b) = (run_case(s, files, commands)
                                            for s in srcs)
        notes = [f"command {i + 1} ({commands[i][0]}): {_describe(a, b)}"
                 for i, (a, b) in enumerate(zip(out_a, out_b)) if a != b]
        for f in sorted(set(tree_a) | set(tree_b)):
            if (f in tree_a) != (f in tree_b):
                side = "PARENT_SRC" if f in tree_a else "CHANGE_SRC"
                notes.append(f"file {f}: left by {side} only")
            elif tree_a[f] != tree_b[f]:
                notes.append(f"file {f}: bytes differ")
        codes = ",".join(str(o[0]) for o in out_b)
        if notes:
            differ += 1
            print(f"DIFFER     {name} [{codes}]")
            for note in notes:
                print(f"    {note}")
        else:
            print(f"identical  {name} [{codes}]")
    total = sum(len(c) for _, _, c in CASES)
    print(f"{len(CASES) - differ} of {len(CASES)} cases identical "
          f"({total} commands)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

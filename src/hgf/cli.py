"""Command-line front end.

Subcommands: catalog, eval, residual, simulate, speed, symmetry, reduce.
Field data goes to CSV (header ``t,x,u,v,w``, 17 significant digits, empty
cells for components a family does not define), which `read_snapshots_csv`
reads back in blocks of lines; structured results go to JSON reports
validating against `REPORT_SCHEMA`.

A process pays the fixed costs once, however many commands `dispatch`
runs: the argument parser is built on first use, and the report
validator, with its check of `REPORT_SCHEMA` against the metaschema, on
the first report.

Exit codes: 0 success, 1 user error (a named constraint, a file that
cannot be read or written), 2 numerical failure (blow-up, missing level
crossing, step underflow), 3 internal error (any exception no input check
caught: a bug in hgf, reported with its traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

from . import calculus, model, reduction, simulator, solutions, symmetry
from .errors import ConstraintError, NumericalError

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hgf report",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "inputs", "results", "warnings"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "results": {"type": "object"},
        "residual": {
            "type": "object",
            "additionalProperties": False,
            "required": ["linf", "l2"],
            "properties": {
                "linf": {"type": "array",
                         "items": {"type": ["number", "null"]}},
                "l2": {"type": "array",
                       "items": {"type": ["number", "null"]}},
                "order": {"type": ["array", "null"],
                          "items": {"type": ["number", "null"]}},
                "h": {"type": "number"},
                "dt": {"type": "number"},
                "history": {"type": "array"},
            },
        },
        "speed": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}


def residual_block(report: calculus.ResidualReport) -> dict:
    block = {"linf": report.linf, "l2": report.l2, "h": report.h,
             "dt": report.dt}
    if report.order_estimate is not None:
        block["order"] = report.order_estimate
    if report.history:
        block["history"] = [{"h": h, "dt": dt, "linf": linf, "l2": l2}
                            for h, dt, linf, l2 in report.history]
    return block


@functools.cache
def _report_validator():
    """REPORT_SCHEMA's validator, its schema checked against the
    metaschema once per process."""
    from jsonschema.validators import validator_for

    cls = validator_for(REPORT_SCHEMA)
    cls.check_schema(REPORT_SCHEMA)
    return cls(REPORT_SCHEMA)


def validate_report(report: dict) -> None:
    """Validate against REPORT_SCHEMA (jsonschema when available), raising
    the error `jsonschema.validate` would raise, else a ValueError: a
    report that fails its schema is a bug in hgf, not bad input."""
    try:
        import jsonschema
    except ImportError:  # fall back to the structural essentials
        missing = {"command", "inputs", "results", "warnings"} - set(report)
        if missing:
            raise ValueError(f"report missing keys {sorted(missing)}")
        unknown = set(report) - set(REPORT_SCHEMA["properties"])
        if unknown:
            raise ValueError(f"report has unknown keys {sorted(unknown)}")
        return
    error = jsonschema.exceptions.best_match(
        _report_validator().iter_errors(report))
    if error is not None:
        raise error


def _jsonable(obj):
    """`obj` as JSON data; a non-finite float becomes null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _emit(command: str, out: str | None, inputs: dict, results: dict,
          warnings=(), **blocks) -> int:
    """Write one validated report, with the optional `residual` and
    `speed` blocks, to the file `out` or to stdout."""
    report = _jsonable({"command": command, "inputs": inputs,
                        "results": results, "warnings": list(warnings),
                        **blocks})
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def format_cells(values) -> np.ndarray:
    """The cells `write_columns` prints for a column of numbers, as a str
    column: for a column written more than once."""
    return np.array([*map("%.17g".__mod__,
                          np.asarray(values, dtype=float).tolist())])


def _is_cells(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind == "U"


def write_columns(fh, cols) -> int:
    """One CSV row per index of `cols`, broadcast to a common length, and
    the number of rows.  Every number prints with 17 significant digits,
    which round-trip float64; a None column prints as empty cells, and a
    str column (`format_cells`) as it is.  Each row is one %-format of a
    row template, into which a scalar column is formatted once, and the
    rows are written as one string."""
    cols = [c if c is None or _is_cells(c) else np.asarray(c, dtype=float)
            for c in cols]
    row = ",".join("" if c is None else "%s" if _is_cells(c)
                   else "%.17g" % c[()] if c.ndim == 0 else "%.17g"
                   for c in cols) + "\n"
    given = [c for c in cols if c is not None]
    arrays = np.broadcast_arrays(*given)
    fh.write("".join(map(row.__mod__, zip(*(
        a.tolist() for a, c in zip(arrays, given) if c.ndim)))))
    return len(arrays[0])


def write_snapshots_csv(path, snapshots) -> int:
    rows = 0
    x_cells = functools.cache(lambda grid: format_cells(grid.x()))
    with open(path, "w") as fh:
        fh.write("t,x,u,v,w\n")
        for s in snapshots:
            rows += write_columns(fh, (s.t, x_cells(s.grid), s.u, s.v, s.w))
    return rows


# lines per parsed block: a whole file's lines and cells would take more
# memory than its snapshots
_CSV_BLOCK = 2048


def _raise_bad_line(path, lineno: int, lines) -> None:
    """Raise the ConstraintError that names the first bad line of `lines`,
    the first of which is line `lineno` of the file: not five cells, a
    cell that is not a number, or a t that is empty or not finite."""
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ConstraintError(f"{path} line {lineno}: expected 5 "
                                  f"cells t,x,u,v,w, got {len(parts)}")
        try:
            t = float(parts[0])
            for p in filter(None, parts[1:]):
                float(p)
        except ValueError as e:
            raise ConstraintError(f"{path} line {lineno}: {e}") from None
        if not math.isfinite(t):
            raise ConstraintError(f"{path} line {lineno}: snapshot time "
                                  f"t = {t} is not finite")


def _parse_block(path, lineno: int, lines) -> np.ndarray:
    """Rows ``t, x, u, v, w`` of CSV `lines`, all cells read in one pass:
    blank lines are skipped and an empty cell other than t reads as nan.
    A block with a bad line goes to `_raise_bad_line`."""
    rows = [s.split(",") for s in map(str.strip, lines) if s]
    try:
        if set(map(len, rows)) <= {5}:
            block = np.array([float(p) if p else math.nan
                              for row in rows for p in row]).reshape(-1, 5)
            if np.isfinite(block[:, 0]).all():  # an empty t reads as nan
                return block
    except ValueError:  # a cell that is not a number
        pass
    _raise_bad_line(path, lineno, lines)


def _read_block(path, lineno: int, lines) -> np.ndarray:
    """`_parse_block`'s rows of `lines`, read by numpy's C reader, which
    converts a cell as `float` does, when it takes the block whole: five
    cells a row, none empty or bad, every t finite, and some row (it
    warns on a block without one).  Any other block goes to
    `_parse_block`, with its empty-cell rule and its messages."""
    if any(map(str.strip, lines)):
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape[1] == 5 and np.isfinite(block[:, 0]).all():
                return block
    return _parse_block(path, lineno, lines)


def read_snapshots_csv(path) -> list[calculus.FieldState]:
    """Rebuild snapshot states from a ``t,x,u,v,w`` CSV: one per time t,
    in order of first appearance, of all rows with that t."""
    blocks = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,x,u,v,w":
            raise ConstraintError(f"{path} line 1: unexpected CSV header "
                                  f"{header!r}")
        lineno = 2
        while lines := list(itertools.islice(fh, _CSV_BLOCK)):
            blocks.append(_read_block(path, lineno, lines))
            lineno += len(lines)
    data = np.concatenate([np.empty((0, 5)), *blocks])
    ts = data[:, 0]
    # the runs of equal t, grouped by t: the rows of one t need not be
    # adjacent
    groups: dict[float, list] = {}
    for run in np.split(data, np.flatnonzero(ts[1:] != ts[:-1]) + 1):
        if len(run):  # a file without rows is one empty run
            groups.setdefault(float(run[0, 0]), []).append(run[:, 1:])
    snapshots = []
    for t, runs in groups.items():
        arr = np.concatenate(runs)
        x = arr[:, 0]
        try:
            grid = calculus.SpaceGrid(float(x[0]), float(x[-1]), len(x))
            if not np.allclose(grid.x(), x, rtol=0,
                               atol=1e-9 * max(1, abs(x[-1]))):
                raise ConstraintError("x is not on a uniform grid")
        except ConstraintError as e:
            raise ConstraintError(f"{path} snapshot at t = {t}: {e}") from None
        snapshots.append(calculus.FieldState(
            grid=grid, t=t, u=arr[:, 1].copy(), v=arr[:, 2].copy(),
            w=arr[:, 3].copy()))
    return snapshots


# ---------------------------------------------------------------------------
# family construction from flags / config
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Family:
    """One catalog family: what `hgf catalog` lists and how the family
    flags build it.

    `build` takes the given family values by name; a value left out takes
    the library builder's own default.  The listed `params` minus the
    `optional` ones are required and checked before building, so a missing
    one is named.  `window` is the default residual window; a family with
    a numeric `profile` has its meta's "profile_window" instead, less a
    tenth of its width at each end and moved with the front.
    """

    key: str
    params: tuple[str, ...]
    constraints: str
    build: Callable = dataclasses.field(repr=False)
    optional: tuple[str, ...] = ()
    profile: str | None = None
    window: tuple[float, float] = (-30.0, 30.0)

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(n for n in self.params if n not in self.optional)

    def listing(self) -> dict:
        entry = {"params": list(self.params), "constraints": self.constraints}
        return {**entry, "profile": self.profile} if self.profile else entry

    def default_window(self, fam, t: float) -> tuple[float, float]:
        if not self.profile:
            return self.window
        lo, hi = fam.meta["profile_window"]
        pad, shift = (hi - lo) / 10, fam.speed * t
        return (lo + pad + shift, hi - pad + shift)


def _lib(name: str, *args, **fixed):
    """Build through `solutions.<name>` (looked up at call time), passing
    the given values by name."""
    def build(fp):
        return vars(solutions)[name](*args, **{**fixed, **fp})
    return build


def _semi(case):
    """Build through `reduction.semi_exact_family`; a profile flag left out
    keeps its default there (one edge of the window, or half of y0)."""
    def build(fp):
        kw = {k: fp[k] for k in ("a1", "a3", "a4", "beta", "gamma", "anchor")
              if k in fp}
        if "profile_step" in fp:
            kw["step"] = fp["profile_step"]
        defaults = reduction.semi_exact_family.__kwdefaults__
        for key, flags in (("window", ("profile_lo", "profile_hi")),
                           ("y0", ("y0", "dy0"))):
            if any(f in fp for f in flags):
                kw[key] = tuple(fp.get(f, d) for f, d in
                                zip(flags, defaults[key]))
        return reduction.semi_exact_family(case, **kw)[0]
    return build


# make_fam40 takes a4 positionally; None leaves it to the case (iii)
_FAM40 = ("a1", "a4", "beta", "delta1", "delta2")
_FAM40_III = ("a1", "a3", "beta", "delta1", "delta2")
FAMILIES = {f.key: f for f in (
    Family("fisher", (), "none; defines u only, speed 5/sqrt(6)",
           _lib("fisher_tf")),
    Family("fam40-i", _FAM40,
           "a1 != 0, delta1 > 0, delta2 > 0; a3 = 1, a5 = a1*a4",
           _lib("make_fam40", "i", a4=None), window=(0.0, 10.0)),
    Family("fam40-ii", _FAM40,
           "a1 != 0, delta1 > 0, delta2 > 0; a3 = 0, a5 = a1*a4",
           _lib("make_fam40", "ii", a4=None), window=(0.0, 10.0)),
    Family("fam40-iii", _FAM40_III,
           "a1 != 0, a3 != 0, a4 = 1+a1+a3, a5 = a1*a4",
           _lib("make_fam40", "iii", a4=None), window=(0.0, 10.0)),
    Family("semi35-i", ("a1", "a4", "beta"),
           "a1 != 0; numeric u-profile; a3 = 1, d = 1",
           _semi("35-i"), profile="L36"),
    Family("semi35-ii", ("a1", "a4", "beta"),
           "a1 != 0, a4 > 0; numeric u-profile; a3 = 0, d = 1",
           _semi("35-ii"), profile="L36"),
    Family("semi35-iii", ("a1", "a3", "beta"),
           "a1 != 0, a3 != 0, a4 = 1+a1+a3; numeric u-profile",
           _semi("35-iii"), profile="L36"),
    Family("semi50", ("a4", "beta", "gamma"),
           "numeric v-profile; a1 = 0, a2 = 1, a3 = 1, d = 1",
           _semi("50"), optional=("beta", "gamma"), profile="L52"),
    Family("semi51", ("a3", "beta", "gamma"),
           "numeric v-profile; a1 = 0, a2 = 1, a4 = 1+a3, d = 1",
           _semi("51"), optional=("beta", "gamma"), profile="L52"),
    Family("tf63", ("a1", "delta", "a3", "d3"),
           "delta > 0, a1*delta < 1/2, derived d2 > 0; "
           "connects (1-2*a1*delta, 2*delta, 0) to (0, 0, 1)",
           _lib("make_tf63"), optional=("a3", "d3")),
    Family("tf65", ("d",), "0 < d <= 5/3; fixed speed 5/sqrt(6)",
           _lib("make_tf65")),
)}

_FAMILY_FLAGS = tuple(sorted({n for f in FAMILIES.values() for n in f.params}))
_PROFILE_FLAGS = ("profile_lo", "profile_hi", "profile_step", "anchor",
                  "y0", "dy0")


# ---------------------------------------------------------------------------
# config and params files
# ---------------------------------------------------------------------------

# the blocks of a run-config and the keys each block may hold
CONFIG_BLOCKS = {
    "params": model.PARAM_NAMES,
    "family": ("key", *_FAMILY_FLAGS, *_PROFILE_FLAGS),
    "grid": ("x_min", "x_max", "n"),
    "time": ("t0", "t_end", "snapshot_every"),
    "bc": ("kind", "left", "right"),
}


def _json_object(path, what) -> dict:
    """The JSON object of file `path`.  A null anywhere in it is refused
    by name, as the records read None as not given; they check the rest."""
    def no_null(pairs):
        for key, v in pairs:
            if v is None:
                raise ConstraintError(f"{what}: {key} is null")
        return dict(pairs)

    data = json.loads(Path(path).read_text(), object_pairs_hook=no_null)
    if not isinstance(data, dict):
        raise ConstraintError(f"{what} must be a JSON object")
    return data


def _check_config(cfg: dict) -> dict:
    unknown = set(cfg) - set(CONFIG_BLOCKS)
    if unknown:
        raise ConstraintError(f"config has unknown keys {sorted(unknown)}")
    for block, value in cfg.items():
        if not isinstance(value, dict):
            raise ConstraintError(f"config {block} must be a JSON object")
        bad = set(value) - set(CONFIG_BLOCKS[block])
        if bad:
            raise ConstraintError(
                f"config {block} has unknown keys {sorted(bad)}")
    if "family" in cfg:
        if not isinstance(cfg["family"].get("key"), str):
            raise ConstraintError("config family needs a 'key' string")
        _family(cfg["family"]["key"])
    return cfg


def load_config(path) -> dict:
    return _check_config(_json_object(path, "config"))


def _load_params_file(path, allowed, what) -> dict:
    """The JSON object of a --params file, keys checked against `allowed`
    (a run-config's `params` block is read by --config)."""
    data = _json_object(path, f"{what} file")
    bad = set(data) - set(allowed)
    if bad:
        raise ConstraintError(f"{what} file has unknown keys {sorted(bad)}")
    return data


def _family(key: str) -> Family:
    if key not in FAMILIES:
        raise ConstraintError(f"unknown family key {key!r}")
    return FAMILIES[key]


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _refuse(label: str, unread) -> None:
    """Refuse the values `label` does not read, if there are any: flags,
    named as given, or the keys of a JSON object."""
    if unread:
        names = (", ".join(unread) if unread[0].startswith("--")
                 else f"keys {sorted(unread)}")
        raise ConstraintError(f"{label} does not take {names}")


def _gather(args, names, reads, label, *layers) -> tuple[dict, list[str]]:
    """The values of one command and their warnings: each layer
    ``(source, where, values)`` in order, then the flags among `names`
    that `args` gives.  A value that replaces an earlier one is warned of,
    naming the `source` it replaced; a key or flag outside `reads` is
    refused, not dropped, a layer's keys as those of `where`."""
    given = {n: getattr(args, n) for n in names
             if getattr(args, n, None) is not None}
    vals, source, warnings = {}, {}, []
    for src, where, values in (*layers, ("flag", "", given)):
        show = _flag if src == "flag" else str
        _refuse(f"{where} {label}".lstrip(),
                [show(k) for k in values if k not in reads])
        for name, v in values.items():
            if name in vals and vals[name] != v:
                warnings.append(f"{src} {show(name)} = {v} overrides "
                                f"{source[name]} value {vals[name]}")
            vals[name], source[name] = v, src
    return vals, warnings


def _family_from_args(args, config) -> tuple[str, model.Solution,
                                              list[str]]:
    """Family key, the built family and warnings: config, then flags."""
    params = dict(config.get("family", {})) if config else {}
    key = getattr(args, "family", None) or params.get("key")
    params.pop("key", None)
    if key is None:
        raise ConstraintError("no family given (flag --family or config)")
    family = _family(key)
    takes = family.params + (_PROFILE_FLAGS if family.profile else ())
    params, warnings = _gather(args, _FAMILY_FLAGS + _PROFILE_FLAGS, takes,
                               f"family {key}", ("config", "config", params))
    return key, build_family(key, params), warnings


def build_family(key: str, fp: dict):
    """Instantiate a catalog family from a parameter dict."""
    family = _family(key)
    missing = [n for n in family.required if n not in fp]
    if missing:
        raise ConstraintError(f"family {key} needs parameters {missing}")
    return family.build(fp)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_catalog(args, config) -> int:
    if args.out and not args.json:
        _refuse("catalog without --json", ["--out"])
    if args.json:
        return _emit("catalog", args.out, {}, {
            "families": {k: f.listing() for k, f in FAMILIES.items()},
            "symmetry_cases": [
                {"case": c.case, "label": c.label} for c in symmetry.CASES
            ],
        })
    print("solution families:")
    for key, f in FAMILIES.items():
        params = ", ".join(f.params) or "-"
        print(f"  {key:<12} params: {params:<32} {f.constraints}")
    print("\nsymmetry cases (beyond the principal translations Pt, Px):")
    for c in symmetry.CASES:
        print(f"  case {c.case:>2}: {c.label}")
    return 0


def _cmd_eval(args, config) -> int:
    key, fam, warns = _family_from_args(args, config)
    if args.n < 1:
        raise ConstraintError("--n must be >= 1")
    if args.n > calculus.MAX_NODES:
        raise ConstraintError(f"--n {args.n} is above the limit of "
                              f"{calculus.MAX_NODES:,} nodes")
    if not math.isfinite(args.xmax - args.xmin):
        raise ConstraintError(f"--xmin {args.xmin} to --xmax {args.xmax} "
                              f"is not a finite width")
    x = np.linspace(args.xmin, args.xmax, args.n)
    vals = [f if c in fam.components else None
            for c, f in zip("uvw", fam(args.t, x))]
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("t,x,u,v,w\n")
        write_columns(out, (args.t, x, *vals))
    finally:
        if args.out:
            out.close()
    for w in (*warns, *fam.warnings):
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _interval(flag: str, pair) -> tuple[float, float]:
    """The (low, high) pair a flag gave, checked by the flag's name."""
    lo, hi = pair
    if not (hi > lo and math.isfinite(hi - lo)):
        raise ConstraintError(f"{flag} must run from low to high over a "
                              f"finite width, got {lo} {hi}")
    return lo, hi


def _window(args, key, fam) -> tuple[float, float]:
    """The residual window: the --window flag or the family's default."""
    if args.window is None:
        return FAMILIES[key].default_window(fam, args.t)
    return _interval("--window", args.window)


# the values of --h and --h-seq when they are left out
H, H_SEQ = 2e-3, (4e-3, 2e-3, 1e-3)


def _steps(args, command, reads) -> dict:
    """The step flags `command` reads: ``reads[0]`` without --refine,
    ``reads[1]`` with it."""
    label = command + (" --refine" if args.refine else " without --refine")
    steps, _ = _gather(args, ("h", "dt", "h_seq"), reads[args.refine], label)
    return {"h": H, "h_seq": H_SEQ, **steps}


def _cmd_residual(args, config) -> int:
    steps = _steps(args, "residual", (("h", "dt"), ("h_seq",)))
    key, fam, warns = _family_from_args(args, config)
    t, window = args.t, _window(args, key, fam)
    if args.refine:
        rep = calculus.refinement_study(fam.params, fam, (t, *window),
                                        steps["h_seq"])
    else:
        h = steps["h"]
        dt = steps.get("dt", h)
        grid = calculus.SpaceGrid.from_spacing(window[0], window[1], h)
        rep = calculus.pde_residual(fam.params, fam, grid, t, dt)
    return _emit("residual", args.out,
                 {"family": key, "family_params": fam.meta, "t": t,
                  "window": window},
                 {"params": fam.params, "components": fam.components},
                 (*warns, *fam.warnings), residual=residual_block(rep))


def _bc_from_config(cfg_bc, fam) -> simulator.BoundaryCondition:
    """The config's bc block; `BoundaryCondition` checks its values."""
    if cfg_bc is None:
        if fam.endpoint_states is not None:
            return simulator.dirichlet_at_endpoints(fam)
        return simulator.BoundaryCondition("neumann-zero")
    kind = cfg_bc.get("kind")
    if kind == "dirichlet":
        return simulator.BoundaryCondition(kind, cfg_bc.get("left"),
                                           cfg_bc.get("right"))
    bc = simulator.BoundaryCondition(
        kind, family=fam if kind == "pinned-to-exact" else None)
    _refuse(f"config bc kind {kind}", [k for k in cfg_bc if k != "kind"])
    return bc


def _cmd_simulate(args, config) -> int:
    if config is None:
        raise ConstraintError("simulate needs a run-config: --config FILE")
    key, fam, warns = _family_from_args(args, config)
    if "grid" not in config or "time" not in config:
        raise ConstraintError("simulate config needs 'grid' and 'time' blocks")
    for block, keys in (("grid", CONFIG_BLOCKS["grid"]), ("time", ("t_end",)),
                        ("params", model.PARAM_NAMES[:5])):
        missing = [k for k in keys
                   if block in config and k not in config[block]]
        if missing:
            raise ConstraintError(f"config {block} needs "
                                  f"{', '.join(map(repr, missing))}")
    grid = calculus.SpaceGrid(**config["grid"])
    tm = config["time"]
    if "params" in config:
        given = model.Params(**config["params"])
        for k in model.PARAM_NAMES:
            if not math.isclose(getattr(given, k), getattr(fam.params, k),
                                rel_tol=1e-12, abs_tol=0.0):
                warns = [*warns,
                         f"config params.{k} = {getattr(given, k)} differs "
                         f"from the family-induced value "
                         f"{getattr(fam.params, k)}; the family wins"]
                break
    # the time block's keys are SimConfig's, left-out ones its defaults
    cfg = simulator.SimConfig(params=fam.params, grid=grid, initial=fam,
                              bc=_bc_from_config(config.get("bc"), fam), **tm)
    run = simulator.run(cfg)
    outdir = Path(args.out)  # made only for a run that succeeded
    outdir.mkdir(parents=True, exist_ok=True)
    rows = write_snapshots_csv(outdir / "snapshots.csv", run.snapshots)
    _emit("simulate", str(outdir / "report.json"),
          {"config": str(args.config), "family": key,
           "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n,
                    "h": grid.h},
           "time": tm},
          {"steps": run.steps, "dt": run.dt, "snapshots": len(run.snapshots),
           "csv_rows": rows, "rhs_evaluations": run.rhs_evaluations,
           "params": fam.params},
          (*warns, *fam.warnings))
    if not args.quiet:
        print(f"wrote {outdir / 'snapshots.csv'} ({rows} rows) and "
              f"{outdir / 'report.json'}")
    return 0


def _cmd_speed(args, config) -> int:
    fit_window = (_interval("--fit-window", args.fit_window)
                  if args.fit_window else None)
    rundir = Path(args.run)
    snaps = read_snapshots_csv(rundir / "snapshots.csv")
    est = simulator.measure_front_speed(snaps, args.component, args.level,
                                        fit_window=fit_window)
    warns = [] if est.reliable else [
        f"fit quality r^2 = {est.r_squared} below "
        f"{simulator.R2_RELIABLE}: estimate unreliable"
    ]
    return _emit("speed", args.out,
                 {"run": str(rundir), "component": args.component,
                  "level": args.level, "fit_window": est.fit_window,
                  "snapshots": len(snaps)},
                 {"n_snapshots": len(snaps)}, warns, speed=est.as_dict())


def _params_from_args(args, config) -> tuple[model.Params, list[str]]:
    """The config's params block, the --params file over it and the flags
    over both, each override with a warning that names what it replaced."""
    file = (_load_params_file(args.params_file, model.PARAM_NAMES, "params")
            if args.params_file else {})
    vals, warns = _gather(
        args, model.PARAM_NAMES, model.PARAM_NAMES, "symmetry list",
        ("config", "config", (config or {}).get("params", {})),
        ("file", "params file:", file))
    missing = [k for k in ("a1", "a2", "a3", "a4", "a5") if k not in vals]
    if missing:
        raise ConstraintError(f"symmetry list needs coefficients {missing}")
    return model.Params(**vals), warns


def _cmd_symmetry(args, config) -> int:
    if args.symmetry_cmd == "list":
        p, warns = _params_from_args(args, config)
        entries = symmetry.admissible_ops(p)
        ops_flat: list[str] = []
        cases = []
        for case, ops in entries:
            names = [o.kind for o in ops]
            ops_flat.extend(n for n in names if n not in ops_flat)
            cases.append({"case": case.case, "label": case.label,
                          "operators": names})
        return _emit("symmetry-list", args.out, {"params": p},
                     {"operators": ops_flat, "cases": cases}, warns)

    # verify
    steps = _steps(args, "symmetry verify", (("h",), ("h", "h_seq")))
    key, fam, warns = _family_from_args(args, config)
    op = _op_from_args(args, fam.params)
    t, window, h = args.t, _window(args, key, fam), steps["h"]
    before, after = symmetry.verify_flow_maps_solutions(
        op, args.eps, fam, (t, *window), h)
    results = {"op": op.kind, "eps": args.eps,
               "before": residual_block(before),
               "after": residual_block(after)}
    if args.refine:
        flowed = symmetry.flow(op, args.eps, fam)
        rep = calculus.refinement_study(fam.params, flowed, (t, *window),
                                        steps["h_seq"])
        results["after_refined"] = residual_block(rep)
    return _emit("symmetry-verify", args.out,
                 {"family": key, "family_params": fam.meta, "t": t,
                  "window": window, "h": h}, results,
                 (*warns, *fam.warnings))


# each heat flag's default: --heat-X sets the coefficient X of a heat kind
# (`symmetry.HeatProfile.COEFFS`)
_HEAT_DEFAULTS = {"heat_a": 0.7, "heat_b": 0.4, "heat_mu": 1.0}


def _op_from_args(args, params: model.Params) -> symmetry.SymmetryOp:
    """The operator of `symmetry verify`.  Xinf reads --heat-kind and the
    heat flags of its kind, each left out taking its default; no other
    operator reads a heat flag."""
    if args.op == "Xinf":
        hk = args.heat_kind or "decaying-mode"
        names = symmetry.HeatProfile.coefficients(hk)
        label = f"heat kind {hk}"
        reads = ("heat_kind", *(f"heat_{n}" for n in names))
    else:  # an unknown or inadmissible operator is named first
        op = symmetry.op_for(args.op, params)
        label, reads = f"operator {args.op}", ()
    heat, _ = _gather(args, ("heat_kind", *_HEAT_DEFAULTS), reads, label)
    if args.op != "Xinf":
        return op
    return symmetry.op_for("Xinf", params, symmetry.HeatProfile(hk, **{
        n: heat.get(f"heat_{n}", _HEAT_DEFAULTS[f"heat_{n}"]) for n in names}))


def _build_system(args, spec) -> reduction.ReducedSystem:
    kw = {name: _req(args, name) for name in spec.coeffs
          if name not in spec.defaults or getattr(args, name) is not None}
    if spec.takes_params:
        alpha = kw.pop("alpha")
        return reduction.reduced_system(
            spec.sid, alpha=alpha, params=model.Params(d1=1.0, **kw))
    return reduction.reduced_system(spec.sid, **kw)


def _req(args, name):
    v = getattr(args, name, None)
    if v is None:
        raise ConstraintError(f"system {args.system} needs --{name}")
    return v


_STATE_HEADERS = {
    6: ("U", "dU", "V", "dV", "W", "dW"),
    3: ("U", "V", "W"),
    2: ("Y", "dY"),
}


# coefficient flags of `hgf reduce`: every reduced system's coefficients
# (L52's "case" is "50"/"51"), plus delta1, delta2 of R38's closed forms,
# whose --case is i/ii/iii
_REDUCE_COEFFS = tuple(dict.fromkeys(
    [n for spec in reduction.SYSTEMS.values() for n in spec.coeffs]
    + ["delta1", "delta2"]))
# what R38 with --case reads: the closed form's coefficients
_SEPARABLE_COEFFS = ("case", "a1", "beta", "delta1", "delta2", "a3", "a4")


def _cmd_reduce(args, config) -> int:
    file = (_load_params_file(args.params_file, _REDUCE_COEFFS,
                              "reduce params") if args.params_file else {})
    spec = reduction.system_spec(args.system)
    case = file.get("case") if args.case is None else args.case
    separable = spec.sid == "R38" and case is not None
    if case is not None and not separable and "case" not in spec.coeffs:
        raise ConstraintError(
            f"system {spec.sid} has no cases; --case applies to R38 "
            f"(i, ii, iii) and L52 (50, 51)")
    reads = _SEPARABLE_COEFFS if separable else spec.coeffs
    label = f"system {spec.sid}" + (f" --case {case}" if separable else "")
    vals, warns = _gather(args, _REDUCE_COEFFS, reads, label,
                          ("file", "reduce params file:", file))
    vars(args).update(vals)
    if args.verify and not separable:  # only R38's cases have an oracle
        _refuse(label, ["--verify"])
    if separable:
        for name in ("a1", "beta", "delta1", "delta2"):
            _req(args, name)
        sc = solutions.separable_case(args.case, args.a1, args.beta,
                                      args.delta1, args.delta2, a4=args.a4,
                                      a3=args.a3)
        sys_ = reduction.reduced_system("R38", beta=args.beta, a1=args.a1,
                                        a3=sc.a3, a4=sc.a4)
    else:
        sys_ = _build_system(args, spec)
    if args.y0 is not None:
        try:
            y0 = np.asarray([float(s) for s in args.y0.split(",")])
        except ValueError:
            raise ConstraintError(f"--y0 must be comma-separated numbers, "
                                  f"got {args.y0!r}") from None
    elif separable:
        y0 = np.asarray(sc.closed(0.0), dtype=float)
    else:
        y0 = np.zeros(sys_.dim)
        y0[0] = 1.0
    span = tuple(args.span)
    traj = reduction.integrate(sys_, y0, span, rel_tol=args.rel_tol,
                               abs_tol=args.abs_tol, max_step=args.max_step)
    if args.traj_out:
        with open(args.traj_out, "w") as fh:
            fh.write(",".join((sys_.ivar, *_STATE_HEADERS[sys_.dim])) + "\n")
            write_columns(fh, (traj.xs, *traj.ys.T))
    results = {"system": sys_.sid, "nodes": len(traj.xs), "span": span}

    if args.verify:
        ts = np.linspace(span[0], span[1], 301)
        exact = np.stack(sc.closed(ts), axis=1)
        dev = float(np.max(np.abs(traj.evaluate(ts) - exact)))
        results["oracle_max_deviation"] = dev
    return _emit("reduce", args.out,
                 {"system": sys_.sid, "coeffs": sys_.coeffs, "y0": y0,
                  "span": span, "rel_tol": args.rel_tol,
                  "abs_tol": args.abs_tol}, results, warns)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="catalog family key")
    for name in _FAMILY_FLAGS:
        p.add_argument(_flag(name), type=float, default=None)
    p.add_argument("--profile-lo", type=float, default=None,
                   help="semi families: profile window lower edge")
    p.add_argument("--profile-hi", type=float, default=None,
                   help="semi families: profile window upper edge")
    p.add_argument("--profile-step", type=float, default=None,
                   help="semi families: uniform tabulation step")
    p.add_argument("--anchor", type=float, default=None,
                   help="semi families: where the profile initial data is "
                        "imposed (default: window left edge, which keeps "
                        "every homogeneous mode decaying)")
    p.add_argument("--y0", type=float, default=None,
                   help="initial profile value for the semi families")
    p.add_argument("--dy0", type=float, default=None)
    p.add_argument("--config", default=None, help="JSON run-config file")


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return v


def _positive(text: str) -> float:
    v = _finite(text)
    if not v > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return v


def _add_step_flags(p: argparse.ArgumentParser) -> None:
    """Grid spacing of one residual, and the spacings of a --refine study."""
    p.add_argument("--h", type=_positive, default=None)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--h-seq", type=_positive, nargs="+", default=None)


class _Parser(argparse.ArgumentParser):
    """Reads a negative number (-1e-3, -2.5E+2, -.5e1), or a comma list led
    by one (-0.5,1e-3), as a value, not a flag; subparsers share the rule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = argparse._re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
            r"(,-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)*$")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hgf",
        description="verification lab for the three-component "
                    "hunter-gatherer/farmer reaction-diffusion system")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("catalog", help="list families and symmetry cases")
    p.set_defaults(handler="_cmd_catalog")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="sample a family to CSV")
    p.set_defaults(handler="_cmd_eval")
    _add_family_flags(p)
    p.add_argument("--t", type=_finite, default=0.0)
    p.add_argument("--xmin", type=_finite, required=True)
    p.add_argument("--xmax", type=_finite, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("residual", help="PDE residual of a family")
    p.set_defaults(handler="_cmd_residual")
    _add_family_flags(p)
    p.add_argument("--t", type=_finite, default=0.0)
    p.add_argument("--window", type=_finite, nargs=2, default=None)
    _add_step_flags(p)
    p.add_argument("--dt", type=_positive, default=None,
                   help="time step of the residual stencil (default: h)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="method-of-lines run from a config")
    p.set_defaults(handler="_cmd_simulate")
    _add_family_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("speed", help="front speed from a simulate run dir")
    p.set_defaults(handler="_cmd_speed")
    p.add_argument("--run", required=True)
    p.add_argument("--component", choices=("u", "v", "w"), required=True)
    p.add_argument("--level", type=_finite, required=True)
    p.add_argument("--fit-window", type=_finite, nargs=2, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("symmetry", help="operator catalog commands")
    p.set_defaults(handler="_cmd_symmetry")
    ssub = p.add_subparsers(dest="symmetry_cmd", required=True)
    pl = ssub.add_parser("list")
    for k in model.PARAM_NAMES:
        pl.add_argument(f"--{k}", type=float, default=None)
    pl.add_argument("--params", dest="params_file", default=None,
                    help="JSON file with the eight coefficients")
    pl.add_argument("--config", default=None)
    pl.add_argument("--out", default=None)
    pv = ssub.add_parser("verify")
    _add_family_flags(pv)
    pv.add_argument("--op", required=True)
    pv.add_argument("--eps", type=_finite, required=True)
    pv.add_argument("--t", type=_finite, default=0.5)
    pv.add_argument("--window", type=_finite, nargs=2, default=None)
    _add_step_flags(pv)
    pv.add_argument("--heat-kind", default=None)
    for name in _HEAT_DEFAULTS:
        pv.add_argument(_flag(name), type=_finite, default=None)
    pv.add_argument("--out", default=None)

    p = sub.add_parser("reduce", help="integrate a reduced ODE system")
    p.set_defaults(handler="_cmd_reduce")
    p.add_argument("--system", required=True)
    p.add_argument("--params", dest="params_file", default=None,
                   help="JSON file with coefficient values (flags win)")
    for name in _REDUCE_COEFFS:
        p.add_argument(f"--{name}", type=str if name == "case" else float,
                       default=None)
    p.add_argument("--y0", default=None, help="comma-separated initial state")
    p.add_argument("--span", type=_finite, nargs=2, required=True)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--max-step", type=_positive, default=None)
    p.add_argument("--traj-out", default=None, help="trajectory CSV path")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None, help="report JSON path")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `dispatch` in this process."""
    return build_parser()


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        config = None
        if getattr(args, "config", None):
            config = load_config(args.config)
        # by name, so that the one parser reaches the current handler
        return globals()[args.handler](args, config)
    except ConstraintError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a missing input, an --out that cannot be made
        print(f"error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:  # a ValueError, but the user's file
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # bad input is raised as a ConstraintError that names it, so
        # anything else is a bug in hgf
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

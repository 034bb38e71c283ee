"""Command-line interface: single points, parameter sweeps, validation.

Subcommands:

point      evaluate one parameter point, JSON on stdout
sweep      evaluate a parameter grid from a sweep-spec file into a CSV
validate   compare closed forms against the Fock oracle, report deviations
threshold  locate the squeezing threshold in the input squeezing parameter

Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, fock_oracle, observables, validation
from .circuit import CircuitColumns, CircuitParams, check_parameter
from .errors import CapacityError, MssvsError, ParameterDomainError

PARAM_NAMES = ("r", "eta1", "eta2", "T", "m")
OBSERVABLE_NAMES = ("prob", "variances", "threshold", "pnd", "wigner")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_SWEEP_CAP = 1_000_000

# Cells of one batched call in a sweep: float64 entries of the p_d arrays or
# the P(n) boxes (8 MiB) or the Wigner kernel's complex ones (16 MiB).
_PD_BATCH_CELLS = 1 << 20

# Float64 arrays per row a batched p_d or variances call holds at once at any
# m: 27 derived coefficients, then the herald sums (37 by tracemalloc).
_PD_ARRAYS = 38

# Complex (rows x beta) arrays the Wigner kernel holds at once, whatever
# m is: b_mu, b_nu, b_nu^2 and the two Horner accumulators, plus one for
# the grid and beta vectors a chunk shares.
_WIGNER_ARRAYS = 6

# Least value of each integer sweep option: a photon-number cutoff and a
# grid side length.
_INTEGER_OPTIONS = {"pnd.max": 0, "wigner.points": 1}


class SweepSpecError(MssvsError):
    """A sweep-spec file failed to parse; the message carries the line."""


def _fmt(value) -> str:
    """CSV cell of one value: empty for None, a string as it is, and a
    number in its shortest round-trip decimal form."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _float_cells(columns) -> list[str]:
    """Each row's CSV cells of float columns, joined by commas; every value
    is written as ``_fmt`` writes a float."""
    cells = (map(float.__repr__, column) for column in np.asarray(columns).tolist())
    return list(map(",".join, zip(*cells)))


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class SweepSpec:
    """Parsed sweep description: axes, fixed values, requested observables."""

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: dict[str, float]
    observables: tuple[str, ...]
    pnd_max: int = 10
    wigner_range: float = 3.0
    wigner_points: int = 101

    def point_count(self) -> int:
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count


def _parse_axis_values(name: str, text: str, lineno: int) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SweepSpecError(
                f"line {lineno}: axis range must be start:stop:count, got {text!r}"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise SweepSpecError(f"line {lineno}: {exc}") from exc
        if count < 1:
            raise SweepSpecError(f"line {lineno}: axis count must be positive")
        values = tuple(float(v) for v in np.linspace(start, stop, count))
    else:
        try:
            values = tuple(float(v) for v in text.split(",") if v.strip() != "")
        except ValueError as exc:
            raise SweepSpecError(f"line {lineno}: {exc}") from exc
    if not values:
        raise SweepSpecError(f"line {lineno}: axis {name} has no values")
    return values


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse the flat key = value sweep format.

    Keys: ``axis.<param>`` (start:stop:count or a comma list),
    ``fixed.<param>``, ``observables`` (comma list), and the options
    ``pnd.max``, ``wigner.range``, ``wigner.points``. Every circuit
    parameter must appear exactly once, as an axis or fixed.
    """
    axes: list[tuple[str, tuple[float, ...]]] = []
    fixed: dict[str, float] = {}
    obs_list: tuple[str, ...] | None = None
    options = {"pnd.max": 10.0, "wigner.range": 3.0, "wigner.points": 101.0}
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SweepSpecError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith(("axis.", "fixed.")):
            kind, name = key.split(".", 1)
            if name not in PARAM_NAMES:
                raise SweepSpecError(f"line {lineno}: unknown parameter {name!r}")
            if name in seen:
                raise SweepSpecError(f"line {lineno}: parameter {name!r} given twice")
            seen.add(name)
            if kind == "axis":
                values = _parse_axis_values(name, value, lineno)
            else:
                try:
                    values = (float(value),)
                except ValueError as exc:
                    raise SweepSpecError(f"line {lineno}: {exc}") from exc
            try:
                for v in values:
                    check_parameter(name, v)
            except ParameterDomainError as exc:
                raise SweepSpecError(f"line {lineno}: outside the domain: {exc}") from exc
            if kind == "axis":
                axes.append((name, values))
            else:
                fixed[name] = values[0]
        elif key == "observables":
            names = tuple(v.strip() for v in value.split(",") if v.strip())
            unknown = [n for n in names if n not in OBSERVABLE_NAMES]
            if unknown:
                raise SweepSpecError(
                    f"line {lineno}: unknown observables {unknown}; "
                    f"choose from {', '.join(OBSERVABLE_NAMES)}"
                )
            if not names:
                raise SweepSpecError(f"line {lineno}: observables list is empty")
            obs_list = names
        elif key in options:
            try:
                options[key] = float(value)
            except ValueError as exc:
                raise SweepSpecError(f"line {lineno}: {exc}") from exc
            if not math.isfinite(options[key]):
                raise SweepSpecError(f"line {lineno}: {key} must be finite, got {value!r}")
            least = _INTEGER_OPTIONS.get(key)
            if least is not None and not (
                options[key].is_integer() and options[key] >= least
            ):
                raise SweepSpecError(
                    f"line {lineno}: {key} must be an integer of at least {least}, "
                    f"got {value!r}"
                )
        else:
            raise SweepSpecError(f"line {lineno}: unknown key {key!r}")

    missing = [name for name in PARAM_NAMES if name not in seen]
    if missing:
        raise SweepSpecError(f"parameters missing from the spec: {', '.join(missing)}")
    if obs_list is None:
        raise SweepSpecError("the spec must name at least one observable")
    return SweepSpec(
        axes=tuple(axes),
        fixed=fixed,
        observables=obs_list,
        pnd_max=int(options["pnd.max"]),
        wigner_range=float(options["wigner.range"]),
        wigner_points=int(options["wigner.points"]),
    )


@dataclass
class ResultTable:
    """Labelled columns of formatted CSV cells plus metadata comment lines.

    ``cells`` holds, for each run of adjacent columns, one string per row:
    that row's cells of those columns, joined by commas.
    """

    columns: list[str]
    cells: list[list[str]] = field(default_factory=list)
    metadata: list[str] = field(default_factory=list)

    def write_csv(self, path: str) -> None:
        """Write atomically: temp file in the target directory, then rename.

        An existing target that is not a regular file (a directory, a FIFO,
        a device node) is refused with ``OSError`` instead of being renamed
        over, as is a target whose directory does not exist.
        """
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"{path} exists and is not a regular file")
        directory = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(directory):
            raise OSError(f"directory {directory} does not exist")
        handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as fh:
                for line in self.metadata:
                    fh.write(f"# {line}\n")
                fh.write(",".join(self.columns) + "\n")
                fh.writelines(",".join(row) + "\n" for row in zip(*self.cells))
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


def _columns(spec: SweepSpec, name: str) -> list[str]:
    """CSV columns of one observable."""
    if name == "prob":
        return ["p_d"]
    if name == "variances":
        return ["var_x", "var_p"]
    if name == "threshold":
        return ["r_c", "squeezing"]
    if name == "pnd":
        return [f"pnd_{n}" for n in range(spec.pnd_max + 1)]
    return ["w_origin", "w_min"]


def _threshold_scan(key: tuple) -> observables.SqueezingScan:
    """One threshold scan; module-level so process pools can pickle it."""
    return observables.squeezing_threshold_scan(*key)


# Observables whose columns are filled by one batched call per chunk of
# heralded rows; p_d and the threshold are filled separately.
_BATCHED = ("variances", "pnd", "wigner")


def _cells_per_row(spec: SweepSpec, m: int) -> int:
    """Cells one row adds to a batched call: its p_d arrays, its Taylor-box
    cells, or the Wigner kernel's arrays over the grid and the origin,
    whichever is largest."""
    box = (m + 1) ** 2
    cells = max(_PD_ARRAYS, box)
    if "pnd" in spec.observables:
        k = min(2 * m, spec.pnd_max)
        cells = max(cells, box * (k + 1) ** 2 + (spec.pnd_max + 1) ** 2)
    if "wigner" in spec.observables:
        cells = max(cells, _WIGNER_ARRAYS * (spec.wigner_points**2 + 1))
    return cells


def _chunks(rows: np.ndarray, cells_per_row: int) -> list[np.ndarray]:
    """``rows`` split into runs that keep a call within ``_PD_BATCH_CELLS`` cells,
    so a large sweep at large m is split rather than allocating one huge box."""
    size = max(1, _PD_BATCH_CELLS // cells_per_row)
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def _evaluate_chunk(task) -> dict[str, list[str]]:
    """CSV cells of the batched observables for heralded rows that share m.

    One batched call per observable over the task's ``CircuitColumns``;
    each observable gives one string of comma-joined cells per row.
    Module-level so process pools can pickle it.
    """
    columns, spec = task
    cells: dict[str, list[str]] = {}
    if "variances" in spec.observables:
        var = observables.variances(columns)
        cells["variances"] = _float_cells([var.var_x, var.var_p])
    if "pnd" in spec.observables:
        cells["pnd"] = _float_cells(observables.pnd_vector(columns, spec.pnd_max).T)
    if "wigner" in spec.observables:
        # One call over the grid and then the origin: w_min is the minimum of
        # what wigner_array gives on the grid, w_origin what wigner gives at 0.
        axis = np.linspace(-spec.wigner_range, spec.wigner_range, spec.wigner_points)
        beta = np.append(observables._grid_beta(axis, axis), 0.0)
        w = observables._wigner_values(columns, beta)
        cells["wigner"] = _float_cells([w[:, -1], w[:, :-1].min(axis=1)])
    return cells


def _cmd_point(args) -> int:
    if args.pnd_max is not None and args.pnd_max < 0:
        raise ParameterDomainError(f"--pnd-max must be non-negative, got {args.pnd_max}")
    if args.wigner_grid < 0:
        raise ParameterDomainError(
            f"--wigner-grid must be non-negative (0 for no grid), got {args.wigner_grid}"
        )
    if not math.isfinite(args.range):
        raise ParameterDomainError(f"--range must be finite, got {args.range}")
    params = CircuitParams(r=args.r, eta1=args.eta1, eta2=args.eta2, T=args.T, m=args.m)
    pd = observables.success_probability(params)
    heralded = pd > 0.0
    document: dict = {
        "params": {"r": params.r, "eta1": params.eta1, "eta2": params.eta2,
                   "T": params.T, "m": params.m},
        "p_d": pd,
        "var_x": None,
        "var_p": None,
        "pnd": None,
        "pnd_truncated": False,
        "wigner": None,
    }
    if heralded:
        var = observables.variances(params)
        document["var_x"] = var.var_x
        document["var_p"] = var.var_p
        pnd = [float(v) for v in observables.pnd_vector(params, args.pnd_max)]
        document["pnd"] = pnd
        # An adaptive vector that hit its length cap short of the target mass.
        document["pnd_truncated"] = (
            args.pnd_max is None and math.fsum(pnd) < 1.0 - observables.PND_TAIL_TOL
        )
        if args.wigner_grid:
            extent = args.range
            n = args.wigner_grid
            axis = np.linspace(-extent, extent, n)
            w = observables.wigner_array(params, axis, axis)
            document["wigner"] = {"range": extent, "points": n, "x": axis.tolist(),
                                  "y": axis.tolist(), "w": w.tolist()}
    document["metadata"] = {"tool": f"mssvs {__version__}"}
    if not args.no_timestamp:
        document["metadata"]["timestamp"] = _timestamp()
    sys.stdout.write(_point_json(document) + "\n")
    return EXIT_OK


def _point_json(document: dict) -> str:
    """``json.dumps(document, indent=2)``, with the Wigner grid's rows written here.

    With ``indent`` set, ``json`` encodes in pure Python, and the grid holds
    nearly every number of the document. Its rows are rendered in the same
    layout by ``float.__repr__``, which is what ``json`` uses for a finite
    float (every grid value is finite), and spliced into the rest.
    """
    grid = document["wigner"]
    if grid is None:
        return json.dumps(document, indent=2)
    marker = json.dumps("w-grid")
    head, tail = json.dumps({**document, "wigner": {**grid, "w": "w-grid"}}, indent=2).split(marker)
    # "w" sits two objects deep: rows at six spaces, values at eight
    rows = ",\n      ".join(
        "[\n        " + ",\n        ".join(map(float.__repr__, row)) + "\n      ]"
        for row in grid["w"]
    )
    return f"{head}[\n      {rows}\n    ]{tail}"


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParameterDomainError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = parse_sweep_spec(fh.read())
    except OSError as exc:
        print(f"error: cannot read sweep spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SweepSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    count = spec.point_count()
    if count > args.max_points:
        print(
            f"error: sweep has {count} points, above the cap {args.max_points}",
            file=sys.stderr,
        )
        return EXIT_CAP

    # One column per circuit parameter, rows in lexicographic order over
    # the axis indices (C order).
    index = np.indices([len(values) for _, values in spec.axes]).reshape(len(spec.axes), count)
    params = {name: np.full(count, value) for name, value in spec.fixed.items()}
    for (name, values), rows in zip(spec.axes, index):
        params[name] = np.array(values)[rows]
    ms = params["m"].astype(int)

    def batch(rows: np.ndarray, m: int) -> CircuitColumns:
        return CircuitColumns(*(params[name][rows] for name in ("r", "eta1", "eta2", "T")), m)

    rows_by_m = {m: np.flatnonzero(ms == m) for m in dict.fromkeys(ms.tolist())}
    pd = np.empty(count)
    for m, rows in rows_by_m.items():
        for chunk in _chunks(rows, _PD_ARRAYS):
            pd[chunk] = observables.success_probability(batch(chunk, m))
    heralded = pd > 0.0
    batched = [name for name in _BATCHED if name in spec.observables]
    chunks, tasks = [], []
    if batched:
        for m, rows in rows_by_m.items():
            for chunk in _chunks(rows[heralded[rows]], _cells_per_row(spec, m)):
                chunks.append(chunk)
                tasks.append((batch(chunk, m), spec))
    # r_c does not depend on r: one scan per distinct (m, T, eta1, eta2)
    # key, shared by its rows. A key none of whose rows heralds gets empty
    # cells, like the other observables of an unheralded row.
    row_keys, keys = [], []
    if "threshold" in spec.observables:
        key_columns = (ms, params["T"], params["eta1"], params["eta2"])
        row_keys = list(zip(*(column.tolist() for column in key_columns)))
        keys = list(dict.fromkeys(k for k, h in zip(row_keys, heralded.tolist()) if h))
    # Every worker is forked when the pool starts, so never more than
    # there are CPUs or tasks.
    workers = min(args.jobs, os.cpu_count() or 1, len(keys) + len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scans = list(pool.map(_threshold_scan, keys))
            results = list(pool.map(_evaluate_chunk, tasks))
    else:
        scans = [_threshold_scan(key) for key in keys]
        results = [_evaluate_chunk(task) for task in tasks]

    table = ResultTable(columns=[name for name, _ in spec.axes])
    for (_, values), rows in zip(spec.axes, index):
        table.cells.append(np.array([_fmt(v) for v in values], dtype=object)[rows].tolist())
    for name in spec.observables:
        table.columns.extend(_columns(spec, name))
        if name == "prob":
            table.cells.append(_float_cells([pd]))
        elif name == "threshold":
            by_key = {key: f"{_fmt(scan.r_c)},{scan.status}" for key, scan in zip(keys, scans)}
            table.cells.append([by_key.get(key, ",") for key in row_keys])
        else:
            # Unheralded rows keep empty cells.
            cells = np.full(count, "," * (len(_columns(spec, name)) - 1), dtype=object)
            for chunk, result in zip(chunks, results):
                cells[chunk] = result[name]
            table.cells.append(cells.tolist())
    table.metadata.append(f"mssvs sweep v{__version__}")
    if not args.no_timestamp:
        table.metadata.append(f"generated: {_timestamp()}")
    if spec.fixed:
        fixed = " ".join(
            f"{k}={_fmt(int(v) if k == 'm' else v)}"
            for k, v in sorted(spec.fixed.items())
        )
        table.metadata.append(f"fixed: {fixed}")
    table.metadata.append(f"observables: {','.join(spec.observables)}")
    try:
        table.write_csv(args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {count} rows to {args.output}")
    return EXIT_OK


def _parse_grid_file(path: str) -> list[CircuitParams]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise SweepSpecError(
                f"line {lineno}: expected 'r,eta1,eta2,T,m', got {raw.strip()!r}"
            )
        try:
            points.append(
                CircuitParams(
                    r=float(parts[0]),
                    eta1=float(parts[1]),
                    eta2=float(parts[2]),
                    T=float(parts[3]),
                    m=int(parts[4]),
                )
            )
        except (ValueError, ParameterDomainError) as exc:
            raise SweepSpecError(f"line {lineno}: {exc}") from exc
    return points


def _cmd_validate(args) -> int:
    if args.grid == "standard":
        points = validation.standard_grid()
    else:
        try:
            points = _parse_grid_file(args.grid)
        except OSError as exc:
            print(f"error: cannot read grid file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except SweepSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not points:
            print("error: the grid file contains no points", file=sys.stderr)
            return EXIT_USAGE

    failures = 0
    print(
        f"validating {len(points)} points, cutoff {args.cutoff}, "
        f"relative tolerance {args.tolerance:g}"
    )
    for params in points:
        report = validation.compare_point(
            params,
            args.cutoff,
            rel_tol=args.tolerance,
            abs_tol=args.abs_tolerance,
        )
        devs = " ".join(f"{k}={v:.3e}" for k, v in report.deviations.items())
        verdict = "ok" if report.ok else "FAIL"
        print(
            f"r={params.r:g} eta1={params.eta1:g} eta2={params.eta2:g} "
            f"T={params.T:g} m={params.m} cutoff={report.cutoff}: {devs} [{verdict}]"
        )
        failures += 0 if report.ok else 1
    if failures:
        print(f"validation FAILED at {failures} of {len(points)} points")
        return EXIT_VALIDATION
    print(f"validation passed at all {len(points)} points")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    scan = observables.squeezing_threshold_scan(
        args.m, args.T, args.eta1, args.eta2, r_max=args.r_max
    )
    document = {
        "m": args.m,
        "T": args.T,
        "eta1": args.eta1,
        "eta2": args.eta2,
        "r_c": scan.r_c,
        "status": scan.status,
        "metadata": {"tool": f"mssvs {__version__}"},
    }
    if not args.no_timestamp:
        document["metadata"]["timestamp"] = _timestamp()
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="mssvs",
        description=(
            "Conditional photon subtraction from squeezed vacuum with channel "
            "losses: success probability, squeezing, photon statistics and "
            "Wigner functions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mssvs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one parameter point (JSON)")
    point.add_argument("--r", type=float, required=True, help="squeezing parameter")
    point.add_argument("--eta1", type=float, default=0.0, help="input loss factor")
    point.add_argument("--eta2", type=float, default=0.0, help="detection loss factor")
    point.add_argument("--T", type=float, required=True, help="beam-splitter transmissivity")
    point.add_argument("--m", type=int, required=True, help="heralded photon count")
    point.add_argument("--pnd-max", type=int, default=None,
                       help="fixed photon-number cutoff (default adaptive)")
    point.add_argument("--wigner-grid", type=int, default=0, metavar="N",
                       help="emit an N x N Wigner grid")
    point.add_argument("--range", type=float, default=3.0,
                       help="half-width of the Wigner grid window")
    point.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for reproducible output")
    point.set_defaults(handler=_cmd_point)

    sweep = sub.add_parser("sweep", help="evaluate a grid from a sweep-spec file (CSV)")
    sweep.add_argument("spec", help="sweep-spec file (see README for the format)")
    sweep.add_argument("--output", "-o", required=True, help="CSV output path")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel worker cap")
    sweep.add_argument("--max-points", type=int, default=DEFAULT_SWEEP_CAP,
                       help="refuse sweeps above this many points")
    sweep.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp metadata line")
    sweep.set_defaults(handler=_cmd_sweep)

    validate = sub.add_parser("validate", help="closed form vs oracle comparison")
    validate.add_argument("--grid", default="standard",
                          help="'standard' or a file of r,eta1,eta2,T,m lines")
    validate.add_argument("--tolerance", type=float, default=validation.DEFAULT_REL_TOL,
                          help="relative tolerance")
    validate.add_argument("--abs-tolerance", type=float, default=validation.DEFAULT_ABS_TOL,
                          help="absolute tolerance for values below 1e-2")
    validate.add_argument("--cutoff", type=int, default=fock_oracle.DEFAULT_CUTOFF,
                          help="oracle Fock cutoff (escalates if too small)")
    validate.set_defaults(handler=_cmd_validate)

    threshold = sub.add_parser("threshold", help="squeezing threshold in r (JSON)")
    threshold.add_argument("--m", type=int, required=True)
    threshold.add_argument("--T", type=float, required=True)
    threshold.add_argument("--eta1", type=float, default=0.0)
    threshold.add_argument("--eta2", type=float, default=0.0)
    threshold.add_argument("--r-max", type=float, default=3.0)
    threshold.add_argument("--no-timestamp", action="store_true")
    threshold.set_defaults(handler=_cmd_threshold)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MssvsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParameterDomainError):
            return EXIT_USAGE
        return EXIT_CAP if isinstance(exc, CapacityError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

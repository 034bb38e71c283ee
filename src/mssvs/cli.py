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
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import product

import numpy as np

from . import __version__, fock_oracle, observables, validation
from .circuit import CircuitParams
from .errors import MssvsError, ParameterDomainError

PARAM_NAMES = ("r", "eta1", "eta2", "T", "m")
OBSERVABLE_NAMES = ("prob", "variances", "threshold", "pnd", "wigner")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_SWEEP_CAP = 1_000_000


class SweepSpecError(MssvsError):
    """A sweep-spec file failed to parse; the message carries the line."""


def _fmt(value) -> str:
    """Shortest round-trip decimal form of a cell value."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


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

    def points(self):
        """Parameter dicts in lexicographic order over the axis indices."""
        names = [name for name, _ in self.axes]
        for combo in product(*(values for _, values in self.axes)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            yield params


def _check_domain(name: str, value: float, lineno: int) -> None:
    ok = True
    if name in ("eta1", "eta2", "T"):
        ok = 0.0 <= value <= 1.0
    elif name == "r":
        ok = value >= 0.0
    elif name == "m":
        ok = value >= 0.0 and value == int(value)
    if not ok:
        raise SweepSpecError(
            f"line {lineno}: value {value!r} is outside the domain of {name}"
        )


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
    for value in values:
        _check_domain(name, value, lineno)
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
        if key.startswith("axis."):
            name = key[5:]
            if name not in PARAM_NAMES:
                raise SweepSpecError(f"line {lineno}: unknown parameter {name!r}")
            if name in seen:
                raise SweepSpecError(f"line {lineno}: parameter {name!r} given twice")
            seen.add(name)
            axes.append((name, _parse_axis_values(name, value, lineno)))
        elif key.startswith("fixed."):
            name = key[6:]
            if name not in PARAM_NAMES:
                raise SweepSpecError(f"line {lineno}: unknown parameter {name!r}")
            if name in seen:
                raise SweepSpecError(f"line {lineno}: parameter {name!r} given twice")
            seen.add(name)
            try:
                fixed[name] = float(value)
            except ValueError as exc:
                raise SweepSpecError(f"line {lineno}: {exc}") from exc
            _check_domain(name, fixed[name], lineno)
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
    """Column-labelled numeric records plus metadata comment lines."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: list[str] = field(default_factory=list)

    def write_csv(self, path: str) -> None:
        """Write atomically: temp file in the target directory, then rename."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8", newline="\n") as fh:
                for line in self.metadata:
                    fh.write(f"# {line}\n")
                fh.write(",".join(self.columns) + "\n")
                for row in self.rows:
                    fh.write(",".join(_fmt(cell) for cell in row) + "\n")
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


def _observable_columns(spec: SweepSpec) -> list[str]:
    columns: list[str] = []
    for name in spec.observables:
        if name == "prob":
            columns.append("p_d")
        elif name == "variances":
            columns.extend(["var_x", "var_p"])
        elif name == "threshold":
            columns.extend(["r_c", "squeezing"])
        elif name == "pnd":
            columns.extend(f"pnd_{n}" for n in range(spec.pnd_max + 1))
        elif name == "wigner":
            columns.extend(["w_origin", "w_min"])
    return columns


def _evaluate_sweep_point(task) -> list:
    """One sweep row; module-level so process pools can pickle it."""
    values, spec_fields = task
    spec = SweepSpec(**spec_fields)
    params = CircuitParams(
        r=values["r"],
        eta1=values["eta1"],
        eta2=values["eta2"],
        T=values["T"],
        m=int(values["m"]),
    )
    pd = observables.success_probability(params)
    heralded = pd > 0.0
    row: list = []
    for name in spec.observables:
        if name == "prob":
            row.append(pd)
        elif name == "variances":
            if heralded:
                var = observables.variances(params)
                row.extend([var.var_x, var.var_p])
            else:
                row.extend([None, None])
        elif name == "threshold":
            scan = observables.squeezing_threshold_scan(
                params.m, params.T, params.eta1, params.eta2
            )
            row.extend([scan.r_c, scan.status])
        elif name == "pnd":
            if heralded:
                row.extend(float(v) for v in observables.pnd_vector(params, spec.pnd_max))
            else:
                row.extend([None] * (spec.pnd_max + 1))
        elif name == "wigner":
            if heralded:
                extent = spec.wigner_range
                grid = observables.wigner_grid(
                    params, (-extent, extent), (-extent, extent), spec.wigner_points
                )
                origin = observables.wigner(params, 0.0, 0.0).w
                row.extend([origin, min(p.w for p in grid)])
            else:
                row.extend([None, None])
    return row


def _cmd_point(args) -> int:
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
            grid = observables.wigner_grid(params, (-extent, extent), (-extent, extent), n)
            xs = sorted({p.x for p in grid})
            ys = sorted({p.y for p in grid})
            w = [[grid[i * n + j].w for j in range(n)] for i in range(n)]
            document["wigner"] = {"range": extent, "points": n, "x": xs, "y": ys, "w": w}
    document["metadata"] = {"tool": f"mssvs {__version__}"}
    if not args.no_timestamp:
        document["metadata"]["timestamp"] = _timestamp()
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
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

    spec_fields = {
        "axes": spec.axes,
        "fixed": spec.fixed,
        "observables": spec.observables,
        "pnd_max": spec.pnd_max,
        "wigner_range": spec.wigner_range,
        "wigner_points": spec.wigner_points,
    }
    tasks = [(values, spec_fields) for values in spec.points()]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_evaluate_sweep_point, tasks, chunksize=16))
    else:
        results = [_evaluate_sweep_point(task) for task in tasks]

    axis_names = [name for name, _ in spec.axes]
    table = ResultTable(columns=axis_names + _observable_columns(spec))
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
    for (values, _), row in zip(tasks, results):
        axis_cells = [values[name] for name in axis_names]
        table.rows.append(axis_cells + row)
    table.write_csv(args.output)
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


def _build_parser() -> argparse.ArgumentParser:
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
    except ParameterDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MssvsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and output checks for the four benchmark workloads.

A workload is a stream of rounds. A round is a small batch of requests
with the same heralded photon count m (or pair of them) in each slot of
every round. The continuous parameters of round ``i`` are point ``i``
of a low-discrepancy sequence per m, shifted by the seed, so the rounds of
any run cover each parameter range evenly: the cost of a run hardly
depends on which points a seed drew, while different seeds still give
different points. Round ``i`` of seed ``s`` is a function of ``(s, i)``
alone, the same whichever rounds ran before it. A request is one
``mssvs.cli.main`` argv plus the spec or grid file it reads.

Checks run outside the timed and traced regions. A point whose output
breaks a check counts as a failed operation; ``Verdict.wrong`` collects
the checks that found a wrong value (as opposed to an incomplete one, such
as an adaptive photon-number distribution that stopped short without a
flag, which fails the operation but returns correct numbers).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from mssvs import fock_oracle, observables, validation
from mssvs.circuit import CircuitParams

WIGNER_BOUND = 2.0 / math.pi
TAIL_TOL = 1e-10  # pnd_vector's default: an adaptive PND must reach 1 - TAIL_TOL
VALUE_SLACK = 1e-12
HEISENBERG_SLACK = 1e-10
PND_SUM_SLACK = 1e-9
THRESHOLD_TOL = 1e-5  # |Var(P)(r_c) - 1/2|; bisection stops at a 1e-6 bracket

SWEEP_FLAGS = ["--jobs", "1", "--no-timestamp"]


@dataclass
class Request:
    """One CLI call: argv, the files it reads, and what it attempts."""

    argv: list[str]
    points: int
    fixed: dict
    files: dict[str, str] = field(default_factory=dict)
    output: str | None = None

    def write_files(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")


@dataclass
class Reply:
    """What a CLI call returned: exit code, captured streams, uncaught error."""

    code: int | None
    stdout: str
    stderr: str = ""
    error: str | None = None


@dataclass
class Verdict:
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.failed += other.failed
        self.wrong.extend(other.wrong)

    def fail(self, message: str | None = None, points: int = 1) -> None:
        self.failed += points
        if message is not None:
            self.wrong.append(message)


# Irrational steps whose multiples mod 1 stay evenly spread after only a
# few terms (golden, silver and bronze ratios, sqrt(3) - 1); the first
# goes to the parameter that sets a request's cost.
_STEPS = (0.6180339887498949, 0.41421356237309515, 0.30277563773199456, 0.7320508075688772)


def _spread(seed: int, stream: str, index: int, ranges: dict) -> dict[str, float]:
    """Values for round ``index`` of one stream: a seed-shifted Kronecker sequence.

    Consecutive rounds of a stream cover each range evenly for any shift,
    which keeps the cost of a run nearly independent of the seed.
    """
    shift = random.Random(f"{seed}:{stream}")
    values = {}
    for step, (name, (lo, hi)) in zip(_STEPS, ranges.items()):
        u = (shift.random() + index * step) % 1.0
        values[name] = round(lo + u * (hi - lo), 6)
    return values


def _spec(axes: dict[str, str], fixed: dict, extra: dict | None = None) -> str:
    lines = [f"axis.{name} = {values}" for name, values in axes.items()]
    lines += [f"fixed.{name} = {value!r}" for name, value in fixed.items()]
    lines += [f"{key} = {value}" for key, value in (extra or {}).items()]
    return "\n".join(lines) + "\n"


def _read_csv(path: str) -> list[dict]:
    text = Path(path).read_text(encoding="utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _cell(row: dict, name: str) -> float | None:
    text = row[name]
    return None if text == "" else float(text)


def _unexpected(request: Request, reply: Reply) -> Verdict | None:
    """A call that raised is wrong; a documented error exit only fails."""
    verdict = Verdict()
    if reply.error is not None:
        verdict.fail(f"{request.argv[0]} raised: {reply.error.strip().splitlines()[-1]}",
                     request.points)
        return verdict
    if reply.code != 0:
        verdict.fail(points=request.points)
        return verdict
    return None


def _first_sweep_point(request: Request, workdir: Path) -> Request:
    """The request's spec cut down to the first value of every axis."""
    spec = str(workdir / "first-point.spec")
    out = str(workdir / "first-point.csv")
    lines = []
    for line in next(iter(request.files.values())).splitlines():
        if line.startswith("axis."):
            key, values = line.split(" = ")
            line = f"{key} = {values.split(',')[0].split(':')[0]}"
        lines.append(line)
    return Request(argv=["sweep", spec, "-o", out, *SWEEP_FLAGS], points=1,
                   fixed=request.fixed, output=out, files={spec: "\n".join(lines) + "\n"})


def oracle_matches(closed: float, oracle: float) -> bool:
    """The validation rule at its defaults: relative above 1e-2, absolute below."""
    return validation.deviation_within(
        closed, oracle, validation.DEFAULT_REL_TOL, validation.DEFAULT_ABS_TOL
    )


def pnd_flagged(document: dict) -> bool:
    """A point document marks a truncated PND with a truthy ``pnd_*`` field."""
    return any(key.startswith("pnd_") and document[key] for key in document)


class Workload:
    """Base: a name, the rounds a traced run replays, generators and checks.

    ``samples`` keeps outputs for ``sample_check`` from the first
    ``SAMPLE_POOL`` requests only, so the benchmark's own memory does not
    grow with the number of rounds a run completes (``peak_rss_mb``).
    """

    name = ""
    trace_rounds = 1
    min_rounds = 1
    sample_size = 0
    SAMPLE_POOL = 8

    def __init__(self):
        self.samples: list = []

    def round(self, seed: int, index: int, workdir: Path, tiny: bool) -> list[Request]:
        raise NotImplementedError

    def first_point(self, request: Request, workdir: Path) -> Request:
        raise NotImplementedError

    def check(self, request: Request, reply: Reply) -> Verdict:
        raise NotImplementedError

    def sample_check(self, rng: random.Random) -> Verdict:
        """Checks on a seeded sample of the points seen (oracle comparisons)."""
        return Verdict()


class LossMap(Workload):
    """``prob`` maps over (eta1, eta2) at seeded (r, T), m = 1..4 once a round."""

    name = "loss-map"
    sample_size = 6

    def round(self, seed, index, workdir, tiny):
        n = 11 if tiny else 51
        requests = []
        for k, m in enumerate([1, 2] if tiny else [1, 2, 3, 4]):
            ranges = {"r": (0.3, 1.2), "T": (0.7, 0.97)}
            fixed = dict(_spread(seed, f"{self.name}:{m}", index, ranges), m=m)
            spec = str(workdir / f"map-{index}-{k}.spec")
            out = str(workdir / f"map-{index}-{k}.csv")
            axes = {"eta1": f"0:1:{n}", "eta2": f"0:1:{n}"}
            requests.append(Request(
                argv=["sweep", spec, "-o", out, *SWEEP_FLAGS],
                points=n * n, fixed=fixed, output=out,
                files={spec: _spec(axes, fixed, {"observables": "prob"})},
            ))
        return requests

    def first_point(self, request, workdir):
        return _first_sweep_point(request, workdir)

    def check(self, request, reply):
        verdict = _unexpected(request, reply)
        if verdict is not None:
            return verdict
        verdict = Verdict()
        rows = _read_csv(request.output)
        if len(rows) != request.points:
            verdict.fail(f"map has {len(rows)} rows, expected {request.points}",
                         request.points)
            return verdict
        kept = []
        for row in rows:
            eta1, eta2, pd = float(row["eta1"]), float(row["eta2"]), float(row["p_d"])
            kept.append((eta1, eta2, pd))
            if not 0.0 <= pd <= 1.0:
                verdict.fail(f"p_d = {pd} outside [0, 1] at {request.fixed} {eta1} {eta2}")
            elif (eta1 == 1.0 or eta2 == 1.0) and pd != 0.0:
                verdict.fail(f"p_d = {pd} on the eta = 1 edge at {request.fixed}")
        if len(self.samples) < self.SAMPLE_POOL:
            self.samples.append((request.fixed, kept))
        return verdict

    def sample_check(self, rng):
        verdict = Verdict()
        for _ in range(min(self.sample_size, len(self.samples))):
            fixed, rows = rng.choice(self.samples)
            eta1, eta2, pd = rng.choice(rows)
            verdict.add(self.compare(fixed, eta1, eta2, pd))
        return verdict

    @staticmethod
    def compare(fixed: dict, eta1: float, eta2: float, pd: float) -> Verdict:
        verdict = Verdict()
        params = CircuitParams(fixed["r"], eta1, eta2, fixed["T"], fixed["m"])
        oracle = fock_oracle.run_pipeline(params).p_d
        if not oracle_matches(pd, oracle):
            verdict.fail(f"p_d {pd!r} != oracle {oracle!r} at {params}")
        return verdict


class FigureSweep(Workload):
    """Mixed-observable sweeps over r (4 strata) x a pair of m values."""

    name = "figure-sweep"
    sample_size = 2
    M_PAIRS = ((1, 2), (2, 3), (1, 3))
    OBSERVABLES = "prob,variances,pnd,wigner,threshold"
    PND_MAX = 10

    def __init__(self):
        super().__init__()
        self.thresholds: dict[tuple, float] = {}

    def round(self, seed, index, workdir, tiny):
        count = 2 if tiny else 4
        requests = []
        for k, ms in enumerate(self.M_PAIRS[:1] if tiny else self.M_PAIRS):
            ranges = {"T": (0.8, 0.97), "eta1": (0.0, 0.2), "eta2": (0.0, 0.2),
                      "offset": (0.0, 1.0)}
            fixed = _spread(seed, f"{self.name}:{ms}", index, ranges)
            offset = fixed.pop("offset")
            # one r from each of `count` equal slices of [0.2, 1.2]
            rs = [round(0.2 + (j + offset) / count, 6) for j in range(count)]
            axes = {"r": ",".join(repr(r) for r in rs), "m": ",".join(map(str, ms))}
            extra = {"observables": self.OBSERVABLES, "pnd.max": self.PND_MAX,
                     "wigner.range": 3.0, "wigner.points": 11 if tiny else 41}
            spec = str(workdir / f"fig-{index}-{k}.spec")
            out = str(workdir / f"fig-{index}-{k}.csv")
            requests.append(Request(
                argv=["sweep", spec, "-o", out, *SWEEP_FLAGS],
                points=len(rs) * len(ms), fixed=fixed, output=out,
                files={spec: _spec(axes, fixed, extra)},
            ))
        return requests

    def first_point(self, request, workdir):
        return _first_sweep_point(request, workdir)

    def check(self, request, reply):
        verdict = _unexpected(request, reply)
        if verdict is not None:
            return verdict
        verdict = Verdict()
        rows = _read_csv(request.output)
        if len(rows) != request.points:
            verdict.fail(f"sweep has {len(rows)} rows, expected {request.points}",
                         request.points)
            return verdict
        fixed = request.fixed
        for row in rows:
            problems = self.row_problems(row)
            if problems:
                verdict.fail(f"{problems} at {fixed} r={row['r']} m={row['m']}")
            params = {"r": float(row["r"]), "m": int(float(row["m"])),
                      "T": fixed["T"], "eta1": fixed["eta1"], "eta2": fixed["eta2"]}
            if row["squeezing"] == "threshold":
                key = (params["m"], fixed["T"], fixed["eta1"], fixed["eta2"])
                self.thresholds[key] = float(row["r_c"])
            if len(self.samples) < self.SAMPLE_POOL:
                self.samples.append((params, row))
        return verdict

    @classmethod
    def row_problems(cls, row: dict) -> str:
        pd = _cell(row, "p_d")
        if pd is None or not 0.0 <= pd <= 1.0:
            return f"p_d = {pd} outside [0, 1]"
        if row["squeezing"] not in ("threshold", "always-squeezed", "never-squeezed"):
            return f"unknown squeezing status {row['squeezing']!r}"
        if (row["squeezing"] == "threshold") != (row["r_c"] != ""):
            return "r_c present without a threshold status or missing with one"
        var_x, var_p = _cell(row, "var_x"), _cell(row, "var_p")
        if var_x is None:
            return ""  # herald impossible: observable cells stay empty
        if var_x * var_p < 0.25 - HEISENBERG_SLACK:
            return f"var_x * var_p = {var_x * var_p} below 1/4"
        pnd = [_cell(row, f"pnd_{n}") for n in range(cls.PND_MAX + 1)]
        if any(not -VALUE_SLACK <= p <= 1.0 + VALUE_SLACK for p in pnd):
            return "PND cell outside [0, 1]"
        if math.fsum(pnd) > 1.0 + PND_SUM_SLACK:
            return f"PND cells sum to {math.fsum(pnd)} > 1"
        w0, w_min = _cell(row, "w_origin"), _cell(row, "w_min")
        if w_min > w0 + VALUE_SLACK:
            return f"w_min {w_min} above w_origin {w0}"
        if max(abs(w0), abs(w_min)) > WIGNER_BOUND + VALUE_SLACK:
            return "|W| above 2/pi"
        return ""

    def sample_check(self, rng):
        verdict = Verdict()
        for (m, T, eta1, eta2), r_c in sorted(self.thresholds.items()):
            var_p = observables.variances(CircuitParams(r_c, eta1, eta2, T, m)).var_p
            if abs(var_p - observables.VACUUM_VARIANCE) > THRESHOLD_TOL:
                verdict.fail(f"Var(P) = {var_p} at r_c = {r_c}, m={m} T={T} "
                             f"eta1={eta1} eta2={eta2}")
        for _ in range(min(self.sample_size, len(self.samples))):
            params, row = rng.choice(self.samples)
            verdict.add(self.compare(params, row))
        return verdict

    @classmethod
    def compare(cls, params: dict, row: dict) -> Verdict:
        verdict = Verdict()
        point = CircuitParams(params["r"], params["eta1"], params["eta2"], params["T"],
                              params["m"])
        result = fock_oracle.run_pipeline(point)
        pairs = [("p_d", _cell(row, "p_d"), result.p_d)]
        if result.state is not None and row["var_x"] != "":
            var = fock_oracle.oracle_variances(result.state)
            pnd = fock_oracle.oracle_pnd(result.state, cls.PND_MAX)
            pairs += [("var_x", _cell(row, "var_x"), var.var_x),
                      ("var_p", _cell(row, "var_p"), var.var_p),
                      ("w_origin", _cell(row, "w_origin"),
                       fock_oracle.oracle_wigner(result.state, 0.0, 0.0).w)]
            pairs += [(f"pnd_{n}", _cell(row, f"pnd_{n}"), float(pnd[n]))
                      for n in range(cls.PND_MAX + 1)]
        for name, closed, oracle in pairs:
            if closed is None or not oracle_matches(closed, oracle):
                verdict.fail(f"{name} {closed!r} != oracle {oracle!r} at {point}")
                break
        return verdict


class PhotonStats(Workload):
    """``point`` requests with adaptive PND and a 101 x 101 Wigner grid, m = 2..8."""

    name = "photon-stats"
    min_rounds = 4  # 28 requests, so a tail percentile leaves ten above it

    def round(self, seed, index, workdir, tiny):
        ms = [2, 3] if tiny else list(range(2, 9))  # ascending: set-up times m = 2
        ranges = {"r": (0.5, 1.5), "T": (0.8, 0.97), "eta1": (0.0, 0.3), "eta2": (0.0, 0.3)}
        requests = []
        for m in ms:
            fixed = dict(_spread(seed, f"{self.name}:{m}", index, ranges), m=m)
            argv = ["point"]
            for key, value in fixed.items():
                argv += [f"--{key}", repr(value)]
            argv += ["--wigner-grid", "11" if tiny else "101", "--no-timestamp"]
            requests.append(Request(argv=argv, points=1, fixed=fixed))
        return requests

    def first_point(self, request, workdir):
        return request

    def check(self, request, reply):
        verdict = _unexpected(request, reply)
        if verdict is not None:
            return verdict
        return self.document_verdict(json.loads(reply.stdout), request.fixed)

    @staticmethod
    def document_verdict(doc: dict, fixed: dict) -> Verdict:
        verdict = Verdict()
        pd = doc["p_d"]
        if not 0.0 <= pd <= 1.0:
            verdict.fail(f"p_d = {pd} outside [0, 1] at {fixed}")
            return verdict
        if pd == 0.0:
            return verdict
        if doc["var_x"] * doc["var_p"] < 0.25 - HEISENBERG_SLACK:
            verdict.fail(f"var_x * var_p below 1/4 at {fixed}")
            return verdict
        pnd = doc["pnd"]
        total = math.fsum(pnd)
        if any(not -VALUE_SLACK <= p <= 1.0 + VALUE_SLACK for p in pnd) \
                or total > 1.0 + PND_SUM_SLACK:
            verdict.fail(f"PND entries outside [0, 1] or summing to {total} at {fixed}")
            return verdict
        grid = doc["wigner"]
        if grid is not None:
            n = grid["points"]
            if len(grid["w"]) != n or any(len(row) != n for row in grid["w"]):
                verdict.fail(f"Wigner grid is not {n} x {n} at {fixed}")
                return verdict
            w_abs = max(abs(w) for row in grid["w"] for w in row)
            if w_abs > WIGNER_BOUND + VALUE_SLACK:
                verdict.fail(f"|W| = {w_abs} above 2/pi at {fixed}")
                return verdict
        if total < 1.0 - TAIL_TOL and not pnd_flagged(doc):
            verdict.fail()  # stopped short of 1 - tail_tol without a flag
        return verdict


class Validate(Workload):
    """``validate --grid`` files of two points each, m = 0..3 once a round."""

    name = "validate"
    trace_rounds = 2

    def round(self, seed, index, workdir, tiny):
        # Each grid file pairs a point with its mirror image in r and T within
        # their ranges. The oracle's cutoff, and with it a point's cost, grows
        # steeply with r and T, so mirrored pairs make every file cost about
        # the same. m pairs (0, 3) and (1, 2); set-up times the m = 0 point.
        ranges = {"r": (0.3, 1.0), "T": (0.8, 0.97), "eta1": (0.0, 0.3), "eta2": (0.0, 0.3)}
        requests = []
        for k, (m_a, m_b) in enumerate([(0, 1)] if tiny else [(0, 3), (1, 2)]):
            point = _spread(seed, f"{self.name}:{m_a},{m_b}", index, ranges)
            mirror = dict(point, r=round(1.3 - point["r"], 6), T=round(1.77 - point["T"], 6))
            requests.append(self._request(workdir / f"grid-{index}-{k}.txt",
                                          [dict(point, m=m_a), dict(mirror, m=m_b)]))
        return requests

    @staticmethod
    def _request(path: Path, points: list[dict]) -> Request:
        text = "".join(
            f"{p['r']!r},{p['eta1']!r},{p['eta2']!r},{p['T']!r},{p['m']}\n" for p in points
        )
        return Request(argv=["validate", "--grid", str(path)], points=len(points),
                       fixed={"points": points}, files={str(path): text})

    def first_point(self, request, workdir):
        return self._request(workdir / "first-point.txt", request.fixed["points"][:1])

    def check(self, request, reply):
        verdict = Verdict()
        if reply.error is not None:
            verdict.fail(f"validate raised: {reply.error.strip().splitlines()[-1]}",
                         request.points)
            return verdict
        lines = reply.stdout.splitlines()
        ok = sum(1 for line in lines if line.endswith("[ok]"))
        bad = [line for line in lines if line.endswith("[FAIL]")]
        expected_code = 1 if bad else 0
        if ok + len(bad) != request.points or reply.code != expected_code:
            verdict.fail(f"validate reported {ok} ok, {len(bad)} FAIL for "
                         f"{request.points} points with exit code {reply.code}",
                         request.points)
            return verdict
        for line in bad:
            verdict.fail(f"validate: {line}")
        return verdict


WORKLOADS = {w.name: w for w in (LossMap, FigureSweep, PhotonStats, Validate)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()

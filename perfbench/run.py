"""End-to-end and per-layer benchmark for the schmidt package.

    python3 perfbench/run.py --workload roundtrip|refined|requests \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory and called in
this process, on one thread.  Each workload is a pass of short operations
(a few milliseconds each) through the package's public functions, in an
order drawn from the seed; the pass is repeated until ``--seconds`` have
elapsed (reasons and per-layer predictions are in predictions.json):

* roundtrip: ``harness.verify_report(12, 6)`` (the counts of both sides
  and the series for every n <= 12, and its own round trips up to weight
  6), then every object of weight <= 12, two-color and Schmidt, mapped
  and mapped back in batches of 40.
* refined: the cells of the (8, 4, 4, 4, 4) refinement grid, each through
  ``enumerate_two_color_refined`` and ``enumerate_schmidt_refined_literal``
  in operations of four cells; for every n the preimages of the
  Schmidt partitions of n, which the grid's transported counts read; and
  ``harness.refined_report`` on the (3, 2, 2, 2, 2) grid.
* requests: 1000 ``cli.main(argv)`` calls drawn from the seed, issued by
  one client in a closed loop with stdout and stderr captured.

On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the same pure-Python
code runs up to 1.8 times slower at some moments than at others.  So
the run is pinned to one CPU, and every latency is scaled by probes of
a fixed reference kernel taken right before and after it (see
reference.py).  An operation's latency is the median of its scaled
repetitions.  With ``--trace 0`` the run reports the end-to-end metrics:

* ops_per_s: round trips, grid cells or requests of one pass, over the
  pass time (the sum of the operations' latencies);
* latency_p50_ms, latency_p99_ms: over the requests' latencies; for
  roundtrip and refined, whose unit of work is the whole pass, both are
  the pass time;
* peak_alloc_mb: the largest tracemalloc peak of one operation, in a
  pass after the timed ones (the first 250 requests for requests);
* setup_s: the median scaled time of ``import schmidt.cli`` in a fresh
  interpreter, timed inside it, sampled at even intervals through the
  run.  Interpreter start-up, which the package does not control, is
  left out.

With ``--trace 1`` it runs each operation untraced and then with every
layer function wrapped (see tracing.py), and reports the per-layer
metrics and the tracing overhead (pass time traced minus untraced, each
operation's fastest repetition, not scaled).

Every output of every repetition is checked against oracles.py.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; ``attempted`` and ``failed`` count the distinct operations of
a pass (an operation fails if any repetition of it fails), so they depend
on the seed only.  Failures on malformed requests of the known-defect
class (non-ASCII digits, ROADMAP item 4) count in ``failed``; any other
failure sets ``correct`` to false and the exit code to 1.  Without the
package source the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracles
import tracing
from reference import REFERENCE_S, probe, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PREDICTIONS = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))

ROUNDTRIP_N = 12
ROUNDTRIP_CUTOFF = 6  # verify_report's own round trips, up to this weight
ROUNDTRIP_BATCH = 40  # objects mapped both ways in one operation
REFINED_GRID = (8, 4, 4, 4, 4)
REPORT_GRID = (3, 2, 2, 2, 2)  # refined_report, once per pass
REQUESTS_PER_PASS = 1000
PEAK_REQUESTS = 250  # requests in the memory pass
MAX_PART = 2000
SETUP_RUNS = 9

# '²' is a digit to str.isdigit but not to int(); the others are decimal
# digits of other scripts, which int() and the regex \d accept
NON_ASCII_DIGITS = "²٣५３"
MALFORMED = {
    "map": ("non_ascii_digit", "empty_token", "zero_part", "bad_colour"),
    "unmap": ("non_ascii_digit", "empty_token", "zero_part", "increasing"),
}
KNOWN_DEFECT = "non_ascii_digit"
MALFORMED_VARIANTS = 6  # per command and class; non-ASCII digits take turns
MALFORMED_SEED = 0  # the malformed set is the same for every seed


@dataclass
class Outcome:
    """What an operation's check found: items attempted and failed, and how
    many failures fall outside the known-defect class."""

    attempted: int
    failed: int = 0
    unexplained: int = 0


@dataclass
class Operation:
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


class Tally:
    """Every repetition's latency of each operation, and each operation's
    worst outcome."""

    def __init__(self, size: int) -> None:
        self.latencies: list[list[float]] = [[] for _ in range(size)]
        self.outcomes: list[Outcome | None] = [None] * size
        self.passes = 0
        self.slowdowns: list[float] = []  # per operation run, when measured

    def record(self, i: int, seconds: float, outcome: Outcome) -> None:
        self.latencies[i].append(seconds)
        old = self.outcomes[i]
        if old is None or (outcome.unexplained, outcome.failed) > (old.unexplained, old.failed):
            self.outcomes[i] = outcome

    def best(self) -> list[float]:
        """Each operation's fastest repetition."""
        return [min(column) for column in self.latencies]

    def medians(self) -> list[float]:
        """Each operation's median repetition."""
        return [statistics.median(column) for column in self.latencies]


def worst_outcomes(tallies: list[Tally]) -> list[Outcome]:
    """Per operation, the worst outcome over several tallies of one pass."""
    merged = Tally(len(tallies[0].outcomes))
    for tally in tallies:
        for i, outcome in enumerate(tally.outcomes):
            if outcome is not None:
                merged.record(i, 0.0, outcome)
    return [o for o in merged.outcomes if o is not None]


def run_op(op: Operation, i: int, tally: Tally) -> None:
    """Time the operation's call; check its result outside the timing."""
    start = time.perf_counter()
    value = op.call()
    elapsed = time.perf_counter() - start
    tally.record(i, elapsed, op.check(value))


def run_for(
    seconds: float,
    operations: list[Operation],
    after_pass: Callable[[float], None] | None = None,
) -> Tally:
    """Repeat the pass until ``seconds`` have elapsed.  The first pass runs
    whole; a later one stops part way at the deadline.

    The reference kernel is probed before the first operation and after
    every operation, and each latency is scaled by the probes on either
    side of it (see reference.py): the machine's speed shifts within a
    fraction of a second, so only probes taken right beside an operation
    tell how fast the machine ran it.  ``after_pass`` gets the share of
    the time used so far."""
    clock = time.perf_counter
    tally = Tally(len(operations))
    start = clock()
    deadline = start + seconds
    while tally.passes == 0 or clock() < deadline:
        before = probe()
        for i, op in enumerate(operations):
            if tally.passes and clock() >= deadline:
                break
            t0 = clock()
            value = op.call()
            elapsed = clock() - t0
            after = probe()
            tally.slowdowns.append((before + after) / (2 * REFERENCE_S))
            tally.record(i, scale(elapsed, before, after), op.check(value))
            before = after
        tally.passes += 1
        if after_pass is not None:
            after_pass((clock() - start) / seconds)
    return tally


def peak_pass(operations: list[Operation]) -> tuple[float, Tally]:
    """Largest tracemalloc peak of one operation, in MB, with cyclic
    garbage collected before each one so that it is not charged to it."""
    tally = Tally(len(operations))
    peak = 0
    tracemalloc.start()
    try:
        for i, op in enumerate(operations):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = op.call()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            tally.record(i, 0.0, op.check(value))
    finally:
        tracemalloc.stop()
    return peak / 1e6, tally


def chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class Roundtrip:
    """verify_report(N, CUTOFF) for the counts and the round trips of weight
    <= CUTOFF, then both round trips of every object of weight <= N through
    the public maps, in seeded batches."""

    per_request = False
    peak_ops = None  # every operation

    def __init__(
        self, modules: dict, seed: int, n: int = ROUNDTRIP_N, cutoff: int = ROUNDTRIP_CUTOFF,
        batch: int = ROUNDTRIP_BATCH,
    ) -> None:
        # functions are looked up at call time, so that a tracer installed
        # after construction sees the calls
        self.harness = modules["harness"]
        self.bijection = modules["bijection"]
        two_color = modules["partitions"].TwoColorPartition
        self.n, self.cutoff = n, cutoff
        self.expected = oracles.two_color_counts(n)
        objects = []
        for k in range(1, n + 1):
            for red, green in oracles.two_color_objects(k):
                image = oracles.closed_map(red, green)
                objects.append((True, two_color(red, green), image))
                objects.append((False, image, (red, green)))
        random.Random(seed).shuffle(objects)
        self.batches = chunks(objects, batch)
        # round trips in a pass; verify_report counts each direction as one
        self.units = len(objects) + sum(2 * self.expected[k] for k in range(1, cutoff + 1))

    def _check_counts(self, report) -> Outcome:
        failed = 0
        by_n = {r.n: r for r in report.records}
        for n in range(1, self.n + 1):
            count, record = self.expected[n], by_n.get(n)
            if record is None or not (
                record.ok
                and record.s_count == record.t_count == record.series_count == count
                and record.round_trip_checked == (2 * count if n <= self.cutoff else 0)
            ):
                failed += 1
        if len(report.records) != self.n or not report.ok or report.witness is not None:
            failed = failed or self.n
        return Outcome(self.n, failed, failed)

    def _round_trips(self, batch: list) -> list:
        forward = self.bijection.two_color_to_schmidt
        backward = self.bijection.schmidt_to_two_color
        out = []
        for from_two_color, obj, _ in batch:
            if from_two_color:
                image = forward(obj)
                out.append((image, backward(image)))
            else:
                preimage = backward(obj)
                out.append(((preimage.red, preimage.green), forward(preimage)))
        return out

    @staticmethod
    def _check_batch(batch: list, result: list) -> Outcome:
        failed = abs(len(result) - len(batch))
        for (_, obj, expected), (middle, back) in zip(batch, result):
            if middle != expected or back != obj:
                failed += 1
        return Outcome(len(batch), failed, failed)

    def operations(self) -> list[Operation]:
        counts = Operation(lambda: self.harness.verify_report(self.n, self.cutoff), self._check_counts)
        return [counts] + [
            Operation(
                functools.partial(self._round_trips, batch),
                functools.partial(self._check_batch, batch),
            )
            for batch in self.batches
        ]


class Refined:
    """The refinement grid through the public enumerators, four cells per
    operation; for every n the preimages of the Schmidt partitions of n,
    which the grid's transported counts read; and refined_report on a
    small grid."""

    per_request = False
    peak_ops = None

    def __init__(self, modules: dict, seed: int, grid: tuple = REFINED_GRID) -> None:
        # functions are looked up at call time, as in Roundtrip
        self.harness = modules["harness"]
        self.partitions = modules["partitions"]
        self.bijection = modules["bijection"]
        boxes, literal = oracles.BoxCounts(), oracles.LiteralCounts()
        n_max, r_max, l_max, p_max, q_max = grid
        self.ops: list[Operation] = [
            Operation(
                lambda: self.harness.refined_report(*REPORT_GRID),
                functools.partial(self._check_report, boxes, literal),
            )
        ]
        for n in range(1, n_max + 1):
            preimages = {}
            for red, green in oracles.two_color_objects(n):
                preimages[oracles.closed_map(red, green)] = (red, green)
            self.ops.append(
                Operation(
                    functools.partial(self._transport, n),
                    functools.partial(self._check_transport, preimages),
                )
            )
            for r in range(1, r_max + 1):
                for l in range(1, l_max + 1):
                    for p in range(1, p_max + 1):
                        cells = [
                            (
                                self.partitions.RefinedQuery(n=n, r=r, l=l, p=p, q=q),
                                oracles.refined_count(boxes, n, r, l, p, q),
                                literal.count(2 * max(r, l), p + q, n),
                            )
                            for q in range(1, q_max + 1)
                        ]
                        self.ops.append(
                            Operation(
                                functools.partial(self._cells, [c[0] for c in cells]),
                                functools.partial(self._check_cells, cells),
                            )
                        )
        random.Random(seed).shuffle(self.ops)
        self.units = n_max * r_max * l_max * p_max * q_max  # grid cells in a pass

    def _transport(self, n: int) -> list:
        backward = self.bijection.schmidt_to_two_color
        return [(p, backward(p)) for p in self.partitions.enumerate_schmidt(n)]

    @staticmethod
    def _check_transport(expected: dict, result: list) -> Outcome:
        failed = abs(len(result) - len(expected))
        for partition, preimage in result:
            if expected.get(partition) != (preimage.red, preimage.green):
                failed += 1
        return Outcome(len(expected), min(failed, len(expected)), min(failed, len(expected)))

    @staticmethod
    def _check_report(boxes, literal, report) -> Outcome:
        n_max, r_max, l_max, p_max, q_max = REPORT_GRID
        expected = [
            (n, r, l, p, q) for n in range(1, n_max + 1) for r in range(1, r_max + 1)
            for l in range(1, l_max + 1) for p in range(1, p_max + 1) for q in range(1, q_max + 1)
        ]
        failed = abs(len(report.records) - len(expected))
        for key, record in zip(expected, report.records):
            n, r, l, p, q = key
            count = oracles.refined_count(boxes, n, r, l, p, q)
            if not (
                (record.n, record.r, record.l, record.p, record.q) == key
                and record.t_refined == record.transported_count == count
                and record.s_literal == literal.count(2 * max(r, l), p + q, n)
                and record.transported_match
            ):
                failed += 1
        if not report.ok:
            failed = failed or len(expected)
        failed = min(failed, len(expected))
        return Outcome(len(expected), failed, failed)

    def _cells(self, queries: list) -> list:
        refined = self.partitions.enumerate_two_color_refined
        literal = self.partitions.enumerate_schmidt_refined_literal
        return [(refined(q), literal(q)) for q in queries]

    @staticmethod
    def _cell_ok(query, count: int, literal_count: int, two_color: list, vectors: list) -> bool:
        n, r, l, p, q = query.n, query.r, query.l, query.p, query.q
        if len(two_color) != count or len(set(two_color)) != count:
            return False
        for tc in two_color:
            if not (
                len(tc.red) == r and len(tc.green) == l and tc.max_red <= p
                and tc.max_green <= q and sum(tc.red) + sum(tc.green) == n
            ):
                return False
        if len(vectors) != literal_count or len(set(vectors)) != literal_count:
            return False
        length, cap = 2 * max(r, l), p + q
        for v in vectors:
            if not (
                len(v) == length and cap >= v[0] and v[-1] >= 0 and sum(v[::2]) == n
                and all(a >= b for a, b in zip(v, v[1:]))
            ):
                return False
        return True

    def _check_cells(self, cells: list, result: list) -> Outcome:
        failed = abs(len(result) - len(cells))
        for (query, count, literal_count), (two_color, vectors) in zip(cells, result):
            if not self._cell_ok(query, count, literal_count, two_color, vectors):
                failed += 1
        return Outcome(len(cells), failed, failed)

    def operations(self) -> list[Operation]:
        return self.ops


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    stdout: str | None  # expected output; None for malformed input
    malformed: str | None = None


def _part(u: float) -> int:
    """The part size at quantile ``u`` of the log-uniform law on [1, MAX_PART]."""
    return min(MAX_PART, int(math.exp(u * math.log(MAX_PART + 1))))


def _well_formed(rng: random.Random, command: str, sizes: list[int]) -> tuple[Request, list[str]]:
    if command == "map":
        colours = [rng.choice("rg") for _ in sizes]
        tokens = [f"{s}{c}" for s, c in zip(sizes, colours)]
        rng.shuffle(tokens)
        red = tuple(sorted((s for s, c in zip(sizes, colours) if c == "r"), reverse=True))
        green = tuple(sorted((s for s, c in zip(sizes, colours) if c == "g"), reverse=True))
        expected = oracles.plain_text(oracles.closed_map(red, green)) + "\n"
    else:
        tokens = [str(s) for s in sorted(sizes, reverse=True)]
        expected = oracles.colored_text(*oracles.closed_unmap(tuple(sorted(sizes, reverse=True)))) + "\n"
    return Request((command, "+".join(tokens)), expected), tokens


def _corrupt(rng: random.Random, command: str, tokens: list[str], kind: str, digit: str) -> Request:
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    suffix = tokens[i][-1] if command == "map" else ""
    if kind == "non_ascii_digit":
        tokens[i] = digit + suffix
    elif kind == "empty_token":
        tokens.insert(rng.randint(0, len(tokens)), "")
    elif kind == "zero_part" and command == "map":
        tokens[i] = "0" + suffix
    elif kind == "zero_part":
        tokens.append("0")
    elif kind == "bad_colour":
        tokens[i] = tokens[i][:-1] + rng.choice(("b", "R", "G", "x", ""))
    else:  # increasing
        tokens.append(str(int(tokens[0]) + 1))
    return Request((command, "+".join(tokens)), None, kind)


def malformed_requests() -> list[Request]:
    """The fixed malformed set: every command and class, several times."""
    rng = random.Random(MALFORMED_SEED)
    out = []
    for command, kinds in MALFORMED.items():
        for kind in kinds:
            for v in range(MALFORMED_VARIANTS):
                digit = NON_ASCII_DIGITS[v % len(NON_ASCII_DIGITS)]
                sizes = [_part(rng.random()) for _ in range(rng.randint(1, 8))]
                _, tokens = _well_formed(rng, command, sizes)
                out.append(_corrupt(rng, command, tokens, kind, digit))
    return out


def request_stream(seed: int, count: int = REQUESTS_PER_PASS) -> list[Request]:
    """The seeded requests of one pass; the same seed gives the same ones.

    Every pairing of command (map, unmap) and part count (1-8) comes
    equally often, in a seeded order.  The part sizes of the pass are
    log-uniform in [1, MAX_PART] and stratified: the pass's k-th part of T
    takes a quantile from the k-th of T equal slices, in a seeded order.
    So every seed's pass holds the same mix of commands, lengths and
    sizes, and only how they are combined differs.  The malformed set is
    placed at seeded positions, scaled to ``count``.
    """
    rng = random.Random(seed)
    malformed = malformed_requests()
    malformed = malformed[: round(count * len(malformed) / REQUESTS_PER_PASS)]
    pairings = [(command, k) for command in ("map", "unmap") for k in range(1, 9)]
    shapes = [pairings[j % len(pairings)] for j in range(count - len(malformed))]
    rng.shuffle(shapes)
    total = sum(k for _, k in shapes)
    quantiles = [(j + rng.random()) / total for j in range(total)]
    rng.shuffle(quantiles)
    sizes = iter(_part(u) for u in quantiles)
    requests = [_well_formed(rng, c, [next(sizes) for _ in range(k)])[0] for c, k in shapes]
    rng.shuffle(malformed)
    for request in malformed:
        requests.insert(rng.randint(0, len(requests)), request)
    return requests


class Requests:
    """cli.main on the seeded requests of one pass."""

    per_request = True
    peak_ops = PEAK_REQUESTS

    def __init__(self, modules: dict, seed: int, count: int = REQUESTS_PER_PASS) -> None:
        self.cli = modules["cli"]
        self.requests = request_stream(seed, count)
        self.units = len(self.requests)

    def _invoke(self, argv: tuple[str, ...]):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to report
            return None, out.getvalue(), err.getvalue(), exc
        return code, out.getvalue(), err.getvalue(), None

    @staticmethod
    def _check(request: Request, value) -> Outcome:
        code, out, err, exc = value
        if request.malformed is None:
            ok = exc is None and code == 0 and out == request.stdout and err == ""
        else:
            ok = exc is None and code == 2 and out == ""
        if ok:
            return Outcome(1)
        return Outcome(1, 1, int(request.malformed != KNOWN_DEFECT))

    def operations(self) -> list[Operation]:
        return [
            Operation(
                functools.partial(self._invoke, r.argv),
                functools.partial(self._check, r),
            )
            for r in self.requests
        ]


WORKLOADS = {"roundtrip": Roundtrip, "refined": Refined, "requests": Requests}


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it starts, on one CPU, so that
    the reference kernel meets the contention of the work it scales."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_package() -> dict:
    """Import the layer modules from ``src/``, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"schmidt.{layer}") for layer in tracing.LAYERS}
    for module in modules.values():
        if SRC.resolve() not in Path(module.__file__).resolve().parents:
            raise ImportError(f"{module.__name__} was imported from {module.__file__}")
    return modules


class SetupClock:
    """Scaled times of ``import schmidt.cli`` in fresh interpreters (see
    reference.py), taken at even intervals through the run so that no one
    stretch of it decides their median."""

    def __init__(self, runs: int = SETUP_RUNS) -> None:
        self.runs = runs
        self.times: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.command = [sys.executable, str(HERE / "reference.py"), "schmidt.cli"]
        self._start()  # the first start may compile bytecode; not counted

    def _start(self) -> float:
        proc = subprocess.run(
            self.command, cwd=ROOT, env=self.env, capture_output=True, text=True, check=True, timeout=60
        )
        return float(proc.stdout)

    def after_pass(self, share: float) -> None:
        if len(self.times) < self.runs and share >= len(self.times) / self.runs:
            self.times.append(self._start())

    def median(self) -> float:
        while len(self.times) < self.runs:
            self.times.append(self._start())
        return statistics.median(self.times)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Run:
    metrics: dict[str, tuple[float, str]]
    measured: list[Tally]  # counted in attempted and failed
    unmeasured: list[Tally]  # checked, but not counted
    note: str
    errors: list[str] = field(default_factory=list)


def end_to_end(workload, seconds: float) -> Run:
    operations = workload.operations()
    setup = SetupClock()
    timed = run_for(seconds, operations, setup.after_pass)
    setup_s = setup.median()
    peak_mb, peak_check = peak_pass(operations[: workload.peak_ops])
    per_op = timed.medians()
    pass_s = sum(per_op)
    latencies = per_op if workload.per_request else [pass_s]
    metrics = {
        "ops_per_s": (workload.units / pass_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "peak_alloc_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = (
        f"passes={timed.passes} operations={len(operations)} slowdown median"
        f" {statistics.median(timed.slowdowns):.3f} range {min(timed.slowdowns):.3f}"
        f"-{max(timed.slowdowns):.3f}"
    )
    return Run(metrics, [timed], [peak_check], note)


def layer_metrics(snapshots: list[dict[str, tracing.Stat]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes."""
    first = snapshots[0]
    empty = tracing.Stat()
    metrics = {}
    for group in PREDICTIONS["groups"]:
        for name in group["metrics"]:
            layer, stat = name.rsplit(".", 1)
            counts = first.get(layer, empty).counts
            if stat in ("self_s", "total_s"):
                value = statistics.median(getattr(s.get(layer, empty), stat) for s in snapshots)
                metrics[name] = (value, "s")
            elif stat == "calls":
                metrics[name] = (first.get(layer, empty).calls, "count")
            elif stat == "kept_ratio":
                enumerated = counts.get("enumerated", 0)
                metrics[name] = (counts.get("objects", 0) / enumerated if enumerated else 0.0, "ratio")
            else:
                metrics[name] = (counts.get(stat, 0), "count")
    return metrics


def missing_layers(workload_name: str, stats: dict[str, tracing.Stat]) -> list[str]:
    """Layers predicted to run on this workload that recorded no call."""
    missing = []
    for group in PREDICTIONS["groups"]:
        if workload_name in group["called_on"]:
            for name in group["metrics"]:
                layer = name.rsplit(".", 1)[0]
                if layer not in missing and (layer not in stats or stats[layer].calls < 1):
                    missing.append(layer)
    return missing


def traced(workload, workload_name: str, seconds: float) -> Run:
    """Each operation untraced and then traced, back to back, so that drift
    in the machine's speed hits both sides alike."""
    operations = workload.operations()
    tracer = tracing.Tracer()
    plain, traced_tally = Tally(len(operations)), Tally(len(operations))
    snapshots = []
    deadline = time.perf_counter() + seconds
    while not snapshots or time.perf_counter() < deadline:
        for i, op in enumerate(operations):
            run_op(op, i, plain)
            with tracer:
                run_op(op, i, traced_tally)
        snapshots.append(tracer.take())
    plain.passes = traced_tally.passes = len(snapshots)
    metrics = layer_metrics(snapshots)
    overhead = sum(traced_tally.best()) - sum(plain.best())
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = [f"passes={len(snapshots)} operations={len(operations)}"]
    lines += [
        f"layer {name} calls={s.calls} self_s={s.self_s:.6f} total_s={s.total_s:.6f} {s.counts}"
        for name, s in sorted(snapshots[0].items())
        if s.calls
    ]
    errors = [
        f"no call recorded on {workload_name} for {layer}"
        for layer in missing_layers(workload_name, snapshots[0])
    ]
    return Run(metrics, [plain, traced_tally], [], "\n".join(lines), errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schmidt" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        modules = load_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](modules, args.seed)
    if args.trace:
        run = traced(workload, args.workload, args.seconds)
    else:
        run = end_to_end(workload, args.seconds)
    outcomes = worst_outcomes(run.measured)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    checked = outcomes + [o for tally in run.unmeasured for o in tally.outcomes if o is not None]
    unexplained = sum(o.unexplained for o in checked)
    if unexplained:
        run.errors.append(f"{unexplained} outputs disagree with the oracles")
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace}"
        f" python={sys.version.split()[0]} nproc={os.cpu_count()} {run.note}"
    )
    print(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} {value} {unit}")
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
    }
    print(json.dumps(result))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())

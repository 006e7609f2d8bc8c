"""Run one workload, check every result exactly, and compute its metrics.

An untraced run warms up on the workload's tiny round, then measures the
end-to-end metrics over a number of whole rounds set by ``seconds``.  Its
times are calibrated against the host's speed (see ``calibration``).  A traced run runs round 0 once untraced and twice
under the tracer (the second pass only to confirm that the exact counts
repeat), and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

from . import checks, corpus, workloads
from .calibration import Calibrator
from .tracing import Tracer
from .workloads import ROOT, SRC, CliRunner, Workspace

DEFAULT_SEED = 1
SETUP_REPEATS = 11
STARTUP_REPEATS = 7
# Operations of the tiny round run untimed before the timed loop.  cli-batch
# starts a process per operation, so its warm-up is cut short.
WARMUP_OPS = {"cli-batch": 4}
# Calibrated seconds one round of each workload took at the seed commit.  A run
# of ``seconds`` times round(seconds / this) whole rounds, so every run -- of any
# seed, on a host at any speed, of the parent and of a change alike -- times
# the same operations, and the tail percentile is taken over the same count.
NOMINAL_ROUND_S = {"pinv-deficient": 2.87, "drazin-index": 3.95, "fullrank-dense": 3.67, "cli-batch": 5.29}
# A run stops early, after a whole round, once its operations have taken this
# many times ``seconds`` of wall time, when the host or the code is much slower.
WALL_CAP = 1.2
DIGEST_FILE = Path(__file__).with_name("digests.json")
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Counts that must repeat exactly between two traced passes over one round.
EXACT_COUNTS = (
    "minors.minor_calls", "minors.det_calls", "minors.principal_minor_sum_calls",
    "index_sets.subsets_yielded",
    "elimination.integerize_calls", "elimination.det_pairs_calls",
    "elimination.bareiss_ops", "elimination.operand_bits_max",
    "pinv.ledger_bits_max", "drazin.ledger_bits_max",
)

PER_LAYER = {
    "minors.minor_calls": "count", "minors.minor_self_s": "s",
    "minors.det_calls": "count", "minors.det_self_s": "s",
    "minors.principal_minor_sum_calls": "count",
    "minors.adjugate_s": "s", "minors.char_poly_s": "s",
    "index_sets.subsets_yielded": "count",
    "elimination.integerize_calls": "count", "elimination.integerize_s": "s",
    "elimination.det_pairs_calls": "count", "elimination.det_pairs_s": "s",
    "elimination.rank_pairs_s": "s",
    "elimination.bareiss_ops": "count", "elimination.operand_bits_max": "bits",
    "matrices.multiply_calls": "count", "matrices.multiply_s": "s",
    "matrices.rank_calls": "count", "matrices.rank_s": "s",
    "matrices.power_s": "s", "matrices.replace_calls": "count",
    "drazin.calls": "count", "drazin.self_s": "s", "drazin.index_of_s": "s",
    "drazin.ledger_bits_max": "bits",
    "pinv.calls": "count", "pinv.self_s": "s", "pinv.ledger_bits_max": "bits",
    "solvers.calls": "count", "solvers.self_s": "s",
    "cli.startup_ms": "ms",
    "matrix_io.parse_s": "s", "matrix_io.format_s": "s", "matrix_io.output_bytes": "bytes",
    "parallel.map_calls": "count", "parallel.pool_s": "s",
    "verify.check_s": "s",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import adjinv; "
    "[adjinv.parse_matrix_text(t) for t in json.load(open(sys.argv[2]))]"
)


# -- helpers ----------------------------------------------------------------------------


def _spawn_seconds(argv: list[str], env: dict | None = None) -> float:
    """Wall time of one child process from start to exit; it must succeed."""
    t0 = perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env=env, timeout=120, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


class SetupTimer:
    """Times a fresh interpreter doing ``import adjinv`` plus parsing the text.

    Samples are taken between rounds, spread over the run, each calibrated
    like an operation, and the median is reported, so one slow moment of the
    machine does not decide the value.
    """

    def __init__(self, texts: list[str], work: Path, cal: Calibrator) -> None:
        path = work / "setup.json"
        path.write_text(json.dumps(texts), encoding="utf-8")
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(path)]
        self.cal = cal
        self.samples: list[tuple[float, float]] = []  # (wall, calibrated)

    def sample(self, count: int = 1) -> None:
        for _ in range(min(count, SETUP_REPEATS - len(self.samples))):
            [(_, wall, calibrated)] = self.cal.time_each([lambda: _spawn_seconds(self.argv)])
            self.samples.append((wall, calibrated))

    def median(self) -> tuple[float, float]:
        """Median (wall, calibrated) seconds."""
        self.sample(SETUP_REPEATS)
        return (statistics.median(w for w, _ in self.samples),
                statistics.median(c for _, c in self.samples))


def measure_cli_startup() -> float:
    """Median ``import adjinv.cli`` time above a bare interpreter start, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = statistics.median(
        _spawn_seconds([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_REPEATS))
    cli = statistics.median(
        _spawn_seconds([sys.executable, "-c", "import adjinv.cli"], env) for _ in range(STARTUP_REPEATS))
    return (cli - bare) * 1000


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def new_round(workload: str, seed: int, number: int, tiny: bool, work: Workspace) -> workloads.Round:
    work.round_no = number
    rng = random.Random(f"{workload}:{seed}:{number}")
    return workloads.BUILDERS[workload](rng, tiny, work)


def timed(op) -> workloads.Outcome:
    """Run one operation; its latency is wall time, uncalibrated."""
    t0 = perf_counter()
    out = op.call()
    out.latency = out.wall = perf_counter() - t0
    return out


def timed_all(calls, cal: Calibrator) -> Iterator[workloads.Outcome]:
    """Run the calls back to back; each outcome gets its wall and calibrated latency."""
    for out, wall, calibrated in cal.time_each(calls):
        out.wall, out.latency = wall, calibrated
        yield out


def load_digests(workload: str, seed: int, tiny: bool) -> dict[str, str]:
    if seed != DEFAULT_SEED or tiny or not DIGEST_FILE.exists():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8")).get(workload, {})


def check_outcomes(done, digests: dict[str, str]) -> tuple[list[str], float]:
    """Exact checks and digest comparison for (round, op, outcome) triples.

    Returns one message per failed operation and the time the checks took.
    """
    failures = []
    t0 = perf_counter()
    for number, op, out in done:
        try:
            problems = op.check(out)
        except Exception as exc:  # a malformed result must count as a failure, not stop the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        want = digests.get(f"r{number}.{op.op_id}")
        if want is not None and checks.digest(out.output()) != want:
            problems.append("output digest differs from the recorded one")
        if problems:
            failures.append(f"r{number}.{op.op_id}: {'; '.join(problems)}")
    return failures, perf_counter() - t0


class Run:
    """A workspace directory for one run, removed when the run ends."""

    def __init__(self, workload: str) -> None:
        if workload not in workloads.BUILDERS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(workloads.BUILDERS)}")
        self.dir = WORK_ROOT / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _ceiling(workload: str, tiny: bool) -> None:
    corpus.check_ceiling(workloads.round_shapes(workload, tiny) * workloads.MAX_ROUNDS)


# -- untraced run: end-to-end metrics ----------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    _ceiling(workload, tiny)
    with Run(workload) as path:
        work = Workspace(path, CliRunner(path))
        cal = Calibrator()
        # Warm-up: lazy imports, the interpreter's specialisation and the file
        # cache settle before anything is timed.  Built before round 0, whose
        # CLI files share its names.
        warmup = new_round(workload, seed, 0, True, work).ops
        for op in warmup[:WARMUP_OPS.get(workload, len(warmup))]:
            op.call()
        first = new_round(workload, seed, 0, tiny, work)
        setup = SetupTimer([c.text for c in first.cases], path, cal)
        setup.sample(2)
        digests = load_digests(workload, seed, tiny)
        latencies, walls, failures = [], [], []
        peak_kb, check_s = 0, 0.0
        rounds = min(workloads.MAX_ROUNDS, max(1, round(seconds / NOMINAL_ROUND_S[workload])))
        rnd = first
        for number in range(rounds):
            if number:
                rnd = new_round(workload, seed, number, tiny, work)
            outs = list(timed_all([op.call for op in rnd.ops], cal))
            latencies += [out.latency for out in outs]
            walls += [out.wall for out in outs]
            peak_kb = max([peak_kb] + [out.rss_kb for out in outs])
            # Checked round by round, so memory does not grow with the run length.
            round_failures, round_check_s = check_outcomes(
                [(number, op, out) for op, out in zip(rnd.ops, outs)], digests)
            failures += round_failures
            check_s += round_check_s
            setup.sample(2)
            if sum(walls) >= WALL_CAP * seconds:
                break
        if workload != "cli-batch":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_wall, setup_s = setup.median()
    tail_s, pct, samples = tail(latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = [f"rounds: {number + 1} of {rounds}, checks took {check_s:.1f} s",
             f"op_tail_ms is p{pct:.1f} of {samples} ops",
             f"error_rate: {len(failures)}/{len(latencies)} = {len(failures) / len(latencies):.4f}",
             f"host speed factor {cal.speed_factor():.3f} (reference kernel median / its baseline time)",
             f"wall clock, uncalibrated: setup_s {setup_wall:.4f}, ops_per_s {len(walls) / sum(walls):.4f}, "
             f"op_p50_ms {statistics.median(walls) * 1000:.4f}, op_tail_ms {tail(walls)[0] * 1000:.4f}"]
    return _result(values, END_TO_END, len(latencies), failures, notes)


def _result(values: dict, units: dict, attempted: int, failures: list[str], notes: list[str]) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
        "failures": failures,
    }


# -- traced run: per-layer metrics -----------------------------------------------------------------


def _traced_pass(ops, tracer: Tracer, cal: Calibrator) -> list[workloads.Outcome]:
    def call(number, op):
        tracer.op_id = number
        return op.call()

    outs = list(timed_all([lambda n=n, op=op: call(n, op) for n, op in enumerate(ops)], cal))
    for number, out in enumerate(outs):
        tracer.op_id = number
        # Formatting the output is traced too, outside the operation's latency.
        tracer.count("matrix_io.output_bytes", len(out.output().encode()))
    tracer.op_id = -1
    return outs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    calls, self_s = tracer.summary()
    counters = tracer.counters

    def module_total(table, module):
        return sum(v for name, v in table.items() if name.startswith(module + "."))

    return {
        "minors.minor_calls": calls["minors.minor"],
        "minors.minor_self_s": self_s["minors.minor"],
        "minors.det_calls": calls["minors.det"],
        "minors.det_self_s": self_s["minors.det"],
        "minors.principal_minor_sum_calls": calls["minors.principal_minor_sum"],
        "minors.adjugate_s": tracer.outermost_s({"minors.adjugate"}),
        "minors.char_poly_s": tracer.outermost_s({"minors.char_poly_coeffs"}),
        "index_sets.subsets_yielded": counters["index_sets.subsets_yielded"],
        "elimination.integerize_calls": calls["elimination.integerize"],
        "elimination.integerize_s": tracer.outermost_s({"elimination.integerize"}),
        "elimination.det_pairs_calls": calls["elimination.det_pairs"],
        "elimination.det_pairs_s": tracer.outermost_s({"elimination.det_pairs"}),
        "elimination.rank_pairs_s": tracer.outermost_s({"elimination.rank_pairs"}),
        "elimination.bareiss_ops": counters["elimination.bareiss_ops"],
        "elimination.operand_bits_max": counters["elimination.operand_bits_max"],
        "matrices.multiply_calls": calls["matrices.multiply"],
        "matrices.multiply_s": tracer.outermost_s({"matrices.multiply"}),
        "matrices.rank_calls": calls["matrices.rank"],
        "matrices.rank_s": tracer.outermost_s({"matrices.rank"}),
        "matrices.power_s": tracer.outermost_s({"matrices.power"}),
        "matrices.replace_calls": calls["matrices.replace_column"] + calls["matrices.replace_row"],
        "drazin.calls": module_total(calls, "drazin"),
        "drazin.self_s": module_total(self_s, "drazin"),
        "drazin.index_of_s": tracer.outermost_s({"drazin.index_of"}),
        "drazin.ledger_bits_max": counters["drazin.ledger_bits_max"],
        "pinv.calls": module_total(calls, "pinv"),
        "pinv.self_s": module_total(self_s, "pinv"),
        "pinv.ledger_bits_max": counters["pinv.ledger_bits_max"],
        "solvers.calls": module_total(calls, "solvers"),
        "solvers.self_s": module_total(self_s, "solvers"),
        "matrix_io.parse_s": tracer.outermost_s({"matrix_io.parse_matrix_text", "matrix_io.parse_matrix_file"}),
        "matrix_io.format_s": tracer.outermost_s(
            {"matrix_io.format_output", "matrix_io.format_matrix", "matrix_io.matrix_tokens"}),
        "matrix_io.output_bytes": counters["matrix_io.output_bytes"],
        "parallel.map_calls": calls["_parallel.parallel_map"],
        "parallel.pool_s": self_s["_parallel.parallel_map"],
    }


def run_traced(workload: str, seed: int, tiny: bool = False) -> dict:
    """Per-layer metrics over round 0 of the seed; the run length is that round."""
    _ceiling(workload, tiny)
    with Run(workload) as path:
        work = Workspace(path, CliRunner(path, in_process=True))
        first = Tracer()
        with first:
            rnd = new_round(workload, seed, 0, tiny, work)
        # The untraced pass runs before any spans exist, so their memory does
        # not slow it down and the overhead ratio is not understated.
        cal = Calibrator()
        untraced = list(timed_all([op.call for op in rnd.ops], cal))
        with first:
            outs = _traced_pass(rnd.ops, first, cal)
        second = Tracer()
        with second:
            _traced_pass(rnd.ops, second, cal)
        failures, check_s = check_outcomes([(0, op, out) for op, out in zip(rnd.ops, outs)],
                                           load_digests(workload, seed, tiny))
    values = layer_metrics(first)
    repeat = layer_metrics(second)
    for name in EXACT_COUNTS:
        if values[name] != repeat[name]:
            failures.append(f"exact count {name} differs between traced passes: "
                            f"{values[name]} then {repeat[name]}")
    values["cli.startup_ms"] = measure_cli_startup()
    values["verify.check_s"] = check_s
    values["trace.overhead_ratio"] = (sum(o.latency for o in outs)
                                      / sum(o.latency for o in untraced))
    values["error_rate"] = len(failures) / len(outs)
    if not tiny:
        TRACE_ROOT.mkdir(exist_ok=True)
        first.write(TRACE_ROOT / f"trace-{workload}.json")
    notes = [f"traced round 0: {len(outs)} ops, {len(first.names)} spans"]
    return _result(values, PER_LAYER, len(outs), failures, notes)


# -- digests -------------------------------------------------------------------------------


def record_digests(rounds: int) -> None:
    """Record output digests of the default seed's first rounds, for every workload."""
    table = {}
    for workload in workloads.BUILDERS:
        with Run(workload) as path:
            work = Workspace(path, CliRunner(path))
            done = []
            for number in range(rounds):
                rnd = new_round(workload, DEFAULT_SEED, number, False, work)
                done += [(number, op, timed(op)) for op in rnd.ops]
            failures, _ = check_outcomes(done, {})
        if failures:
            raise RuntimeError(f"{workload}: cannot record digests of failing outputs: {failures[:3]}")
        table[workload] = {f"r{n}.{op.op_id}": checks.digest(out.output()) for n, op, out in done}
        print(f"{workload}: {len(done)} digests", file=sys.stderr)
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

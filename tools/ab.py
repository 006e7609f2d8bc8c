"""Time the library's operations on two trees in one process, call by call, and print one table.

    python tools/ab.py REV [--pairs 10] [--json PATH]

``git archive`` extracts REV's ``src/adjinv`` into a temporary directory,
and it is imported as the package ``adjinv_parent`` beside the working
tree's ``adjinv`` (both use relative imports only, so each tree runs its own
modules).  The inputs are rounds 0-3 of seed 1 of the three library
workloads (``pinv-deficient``, ``drazin-index`` and ``fullrank-dense``),
each round built by the benchmark's own builder in
``perfbench/workloads.py``.  Each case keeps its matrix text, its right
sides as text, and its ops in the benchmark's order: the op's name from
its id, and which texts its arguments are, read off the benchmark's call.
Each op is called as the same name on each tree's package.

A pair runs every input once on each tree.  For each input, each tree reads
the same matrix text with its own ``parse_matrix_text`` (timed as an op of
its own) and its right sides with the same reader, untimed, so both start
from fresh matrices that keep nothing; then it runs the workload's op
sequence on them in the benchmark's order, so a later op reads what an
earlier one kept, and each call is timed.  The tree that goes first
alternates from input to input and from pair to pair.  After both trees
ran an input, the results are compared in a form neither tree's classes
enter (a Matrix as its entries, a Scalar as its parts, a result class as
its fields, a raised error as its type and message); any difference stops
the run with exit status 1.

Per op (``workload/op``), a pair's time on each tree is the sum over the
op's calls in the pair, and the pair's ratio is change/parent, the working
tree over REV.  The table gives each tree's median time per pair in
milliseconds, the median ratio, its quartiles, and the pairs in which the
change was faster (ties count for neither).  ``--json PATH`` writes the
same report.  Uses only the standard library and the benchmark's
workload modules; a measuring aid, not a test.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import inspect
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import adjinv  # noqa: E402
from perfbench import corpus, workloads  # noqa: E402

PARENT = "adjinv_parent"
WORKLOADS = ("pinv-deficient", "drazin-index", "fullrank-dense")
ROUNDS, SEED = 4, 1  # rounds 0-3 of seed 1 in each pair


@dataclasses.dataclass(frozen=True)
class Input:
    workload: str
    texts: tuple[str, ...]  # matrix-file texts of A and of its right sides
    ops: tuple[tuple[str, tuple[int, ...]], ...]  # (op, indices into texts of its arguments), in order


def _input(workload: str, case, ops) -> Input:
    """The case's texts and its ops, each op's arguments found among the texts as the working tree reads them."""
    texts = [case.text]
    if case.rhs:
        texts.append(corpus.matrix_text([[e] for e in case.rhs]))
    if case.row_rhs:
        texts.append(corpus.matrix_text([list(case.row_rhs)]))
    values = [adjinv.parse_matrix_text(t) for t in texts]
    calls = []
    for op in ops:
        # The benchmark's call: call_library(module, fname, *args) closes over its arguments.
        args = inspect.getclosurevars(op.call).nonlocals["args"]
        calls.append((op.op_id.split(".", 1)[1], tuple(values.index(arg) for arg in args)))
    return Input(workload, tuple(texts), tuple(calls))


def build_inputs() -> list[Input]:
    """Rounds 0 .. ROUNDS-1 of SEED of the library workloads, built by the benchmark's own round builders."""
    inputs = []
    for i in range(ROUNDS):
        for w in WORKLOADS:
            rnd = workloads.BUILDERS[w](random.Random(f"{w}:{SEED}:{i}"), False, None)
            for case in rnd.cases:
                ops = [op for op in rnd.ops if op.op_id.startswith(case.key + ".")]
                inputs.append(_input(w, case, ops))
    return inputs


def import_revision(rev: str, where: Path):
    """Extract REV's src/adjinv under ``where``, import it as the package ``adjinv_parent`` and return it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/adjinv"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    package = where / "src" / "adjinv"
    spec = importlib.util.spec_from_file_location(PARENT, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT] = module
    spec.loader.exec_module(module)
    return module


def canonical(value):
    """A form of a result that neither tree's classes enter: equal results of the two trees give equal forms."""
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value))
    if hasattr(value, "row_lists"):
        return ("Matrix", value.rows, value.cols, tuple((e.re, e.im) for row in value.row_lists() for e in row))
    if hasattr(value, "re") and hasattr(value, "im"):
        return ("Scalar", value.re, value.im)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple((f.name, canonical(getattr(value, f.name)))
                                               for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(map(canonical, value))
    return value


def _timed(times: dict, key: str, call, *args):
    """call(*args), or the exception it raised, with its seconds added to ``times[key]``."""
    t = time.perf_counter()
    try:
        value = call(*args)
    except Exception as exc:  # an expected refusal (GroupInverseError) is a result like any other
        value = exc
    times[key] = times.get(key, 0.0) + time.perf_counter() - t
    return value


def run_input(package, item: Input, times: dict) -> list:
    """Run one input's op sequence on one tree's package; add each call's seconds to ``times``; return the results."""
    read = package.parse_matrix_text
    a = _timed(times, f"{item.workload}/parse_matrix_text", read, item.texts[0])
    values = [a] + [read(t) for t in item.texts[1:]]
    results = [("parse_matrix_text", a)]
    for op, args in item.ops:
        results.append((op, _timed(times, f"{item.workload}/{op}", getattr(package, op), *(values[i] for i in args))))
    return results


def run_pairs(trees: dict, inputs: list[Input], pairs: int) -> dict[str, list[tuple[float, float]]]:
    """Per op, (parent seconds, change seconds) of each pair; raises SystemExit(1) if results differ."""
    per_op: dict[str, list[tuple[float, float]]] = {}
    for p in range(pairs):
        gc.collect()
        times = {name: {} for name in trees}
        for i, item in enumerate(inputs):
            order = ("change", "parent") if (p + i) % 2 == 0 else ("parent", "change")
            results = {name: run_input(trees[name], item, times[name]) for name in order}
            for (op, got), (_, want) in zip(results["change"], results["parent"]):
                if canonical(got) != canonical(want):
                    raise SystemExit(f"pair {p + 1}: {item.workload}/{op} differs between the trees on\n{item.texts[0]}")
        for key, t in times["parent"].items():
            per_op.setdefault(key, []).append((t, times["change"][key]))
    return per_op


def summarize(per_op: dict[str, list[tuple[float, float]]]) -> dict[str, dict]:
    report = {}
    for key, runs in per_op.items():
        ratios = [c / p for p, c in runs]
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        report[key] = {
            "parent_ms": statistics.median(p for p, _ in runs) * 1e3,
            "change_ms": statistics.median(c for _, c in runs) * 1e3,
            "ratio_median": statistics.median(ratios), "ratio_q1": q1, "ratio_q3": q3,
            "wins": sum(c < p for p, c in runs), "pairs": len(runs),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision whose src/adjinv is the parent tree")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (at least 2)")
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    inputs = build_inputs()
    with tempfile.TemporaryDirectory(prefix="adjinv-ab-") as where:
        trees = {"change": adjinv, "parent": import_revision(commit, Path(where))}
        per_op = run_pairs(trees, inputs, args.pairs)
    report = summarize(per_op)
    print(f"change = working tree, parent = {args.rev} ({commit[:12]}); {args.pairs} pairs of {len(inputs)} inputs"
          f" (seed {SEED}, rounds 0-{ROUNDS - 1}); results equal in every pair")
    print(f"{'op':<44}{'parent ms':>11}{'change ms':>11}{'ratio':>8}{'q1':>8}{'q3':>8}{'wins':>8}")
    for key, r in report.items():
        print(f"{key:<44}{r['parent_ms']:>11.3f}{r['change_ms']:>11.3f}{r['ratio_median']:>8.3f}"
              f"{r['ratio_q1']:>8.3f}{r['ratio_q3']:>8.3f}{r['wins']:>5}/{r['pairs']}")
    if args.json:
        args.json.write_text(json.dumps({"rev": args.rev, "commit": commit, "seed": SEED, "rounds": ROUNDS,
                                         "pairs": args.pairs, "equal": True, "ops": report}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

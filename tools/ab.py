"""Time the library on two trees in one process, call by call, and print one table.

    python tools/ab.py REV [--pairs 10] [--sizes 8 12 20 40] [--json PATH]

``git archive`` extracts REV's ``src/adjinv`` into a temporary directory,
and it is imported as the package ``adjinv_parent`` beside the working
tree's ``adjinv`` (both use relative imports only, so each tree runs its own
modules, each at its own ``elimination._INT_MIN`` gate).  There are two kinds
of input.

Workload inputs are rounds 0-3 of seed 1 of the three library workloads
(``pinv-deficient``, ``drazin-index`` and ``fullrank-dense``), each round
built by the benchmark's own builder in ``perfbench/workloads.py``.  Each
case keeps its matrix text, its right sides as text, and its ops in the
benchmark's order: the op's name from its id, and which texts its arguments
are, read off the benchmark's call.  Each tree reads the matrix text with its
own ``parse_matrix_text`` (timed as an op of its own) and its right sides
with the same reader, untimed, so both start from fresh matrices that keep
nothing; then it calls each op by name on its package, in the benchmark's
order, so a later op reads what an earlier one kept.

Kernel inputs are built at each n of ``--sizes``, real and complex, by the
benchmark's corpus (``perfbench/corpus.py``), each by construction, from a
seed that fixes them across runs and trees, so none is picked or checked by
the library under test: a nonsingular n x n A (``rank_r_matrix`` of rank
n), a column y (``vector``), a full-rank n x (n+4) matrix, a rank-n/2
n x n product, a full-row-rank n/2 x n F and a column z, the text of A with
each row scaled by a rational (``scaled_rows``, so its tokens carry
denominators), and a ``drazin_matrix`` of index 2 with a nilpotent part of
size n - n//2.  Integer corpus rows are handed to the kernels as int pairs.
The public cells' inputs are matrix texts drawn after those: ``drazin_matrix``
of index 1 and of index 3, each with a nilpotent part of size n//2 (so n is
at least 6), and ``rank_r_matrix`` n x 2n and 2n x n of rank n/2.
Each cell forms its arguments on the tree's own modules, untimed.  Timed
only, on private kernels whose return conventions change between revisions:
``eliminate`` (the sweep of A), ``certify`` (``full_rank_mod_p`` of the
n x (n+4) matrix), ``solve I`` and ``solve y`` (``adjoint_solve_pairs``
from A's sweep), ``A A`` and ``A y`` (``matmul_pairs``), ``factor``
(``row_factor_pairs`` from the product's sweep), ``gram`` (F F* by
``hermitian_matmul_pairs`` and its ``gram_solve_pairs`` on z),
``skeleton`` (``skeleton_ledger_pairs`` of the product and its sweep) and
``chain`` (``drazin._chain_ledger`` of the index-2 matrix, its chain kept).
These kernels keep nothing, so each timed-only cell calls its kernel again
on the same arguments until ``FLOOR`` seconds have passed (once when one
call takes longer) and its time is the seconds per call.  Each cell is an
input of its own, so the two trees run it one right after the other.  A
cell either tree cannot form or call prints as absent, with the error, and
the other cells still run.  Compared like the workload ops, one call each
on fresh inputs, on public names: ``build`` (``Matrix(n, n, entries)`` on
the entries of the scaled A, as Fractions, complex ones as the tree's
Scalars), and, as an op sequence of its own, ``parse_matrix_text`` of the
text of the scaled A, then ``char_poly_coeffs``, ``mp_inverse`` and
``drazin_inverse``, each on a fresh rank-n/2 product read untimed.  Up to
n = ``PRIME_MAX``, ``n=N prime`` reads the nonsingular prime family and
runs ``mp_inverse`` on it: entry (i, j) = k/p_ij, k in +-1..5 and p_ij
distinct among the first n^2 primes, shuffled by ``random.Random(1)``; its
common scale grows with those primes.  The public cells are compared too,
each one call on a matrix read untimed from its text: ``drazin_inverse`` and
``check_drazin`` on the index-1 and index-3 inputs, and ``mp_inverse`` and
``check_penrose`` on the n x 2n and 2n x n inputs; a check's inverse is
formed untimed.  The cells' cost grows fast with n:
at n = 100 one call of ``drazin_inverse`` on the rank-50 product takes
about 16 s real and 5 min complex on a shared 2-vCPU x86 host under
Python 3.11, so a pair there takes about 12 minutes.

A pair runs every input once on each tree, with ``gc.collect()`` before
each tree runs each input, so neither tree collects the other's garbage.
The tree that goes first alternates from input to input and from pair to
pair.  After both trees ran an input, its compared results are compared in a
form neither tree's classes enter (a Matrix as its entries, a Scalar as its
parts, a result class as its fields, a raised error as its type and
message); any difference stops the run with exit status 1.

Per row (``workload/op``, ``n=12 real/cell`` or ``n=12 real/op``), a
pair's time on each tree is the sum over the row's calls in the pair (for
a timed-only cell, its seconds per call), and the pair's ratio is
change/parent, the working tree over REV.  The table gives each tree's
median time per pair in milliseconds, the spread of the parent's times (the
distance between their quartiles), the median ratio and its quartiles, the
pairs the change won (ties count for neither), and a verdict: "faster" or
"slower" when, over at least 10 pairs, the change wins, or loses, at least
9 in 10 and the medians differ by more than that spread; "unresolved"
otherwise, and always below 10 pairs.
``--json PATH`` writes the same report, and beside it ``slopes``: per cell
and kind (``real/eliminate``), the slope of log(change ms) against log n
between neighbouring sizes.  To weigh a change of ``_INT_MIN``,
move the gate in the working tree and run against HEAD.  Uses only the
standard library and the benchmark's workload modules; a measuring aid, not
a test.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import inspect
import json
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import adjinv  # noqa: E402
from adjinv import elimination  # noqa: E402
from perfbench import corpus, workloads  # noqa: E402

PARENT = "adjinv_parent"
WORKLOADS = ("pinv-deficient", "drazin-index", "fullrank-dense")
ROUNDS, SEED = 4, 1  # rounds 0-3 of seed 1 in each pair
FLOOR = 0.02  # seconds a timed-only cell repeats its call for, on each tree in each pair
PRIME_MAX = 20  # largest n of the prime cell


def _timed(times: dict, key: str, setup, floor: float = 0.0):
    """Form the call (function, *arguments) = setup(), untimed, and call it, again on the same arguments until
    ``floor`` seconds have passed; return its last result, or the exception either step raised, with the
    seconds per call added to ``times[key]``."""
    try:
        call, *args = setup()
    except Exception as exc:  # a name this tree lacks, or calls otherwise
        return exc
    calls, t = 0, time.perf_counter()
    while True:
        try:
            value = call(*args)
        except Exception as exc:  # an expected refusal (GroupInverseError) is a result like any other
            value = exc
        calls, elapsed = calls + 1, time.perf_counter() - t
        if elapsed >= floor:
            break
    times[key] = times.get(key, 0.0) + elapsed / calls
    return value


@dataclasses.dataclass(frozen=True)
class Input:
    label: str  # the workload, or "n=12 real" or "n=12 prime" for a kernel input
    texts: tuple[str, ...]  # matrix-file texts of A and of its right sides
    ops: tuple[tuple[str, tuple[int, ...]], ...]  # (op, indices into texts of its arguments), in order

    def run(self, tree, times: dict) -> list:
        """(key, result, compared) of each call of the op sequence on one tree; each call's seconds go to ``times``."""
        read, key = tree.parse_matrix_text, f"{self.label}/parse_matrix_text"
        a = _timed(times, key, lambda: (read, self.texts[0]))
        values, results = [a] + [read(t) for t in self.texts[1:]], [(key, a, True)]
        for op, args in self.ops:
            key = f"{self.label}/{op}"
            results.append((key, _timed(times, key, lambda: (getattr(tree, op), *(values[i] for i in args))), True))
        return results


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


def _read_chain(tree, text: str):
    """A fresh matrix of ``tree`` read from ``text``, keeping its index chain."""
    m = tree.parse_matrix_text(text)
    tree.index_of(m)
    return m


# Timed-only cells, on private kernels: name -> setup(tree, inputs), the call and its arguments, formed untimed on
# the tree's own modules.
CELLS = {
    "eliminate": lambda t, c: (t.elimination.eliminate, c.a),
    "certify": lambda t, c: (t.elimination.full_rank_mod_p, c.wide),
    "solve I": lambda t, c: (t.elimination.adjoint_solve_pairs, t.elimination.eliminate(c.a)),
    "solve y": lambda t, c: (t.elimination.adjoint_solve_pairs, t.elimination.eliminate(c.a), c.y),
    "A A": lambda t, c: (t.elimination.matmul_pairs, c.a, c.a),
    "A y": lambda t, c: (t.elimination.matmul_pairs, c.a, c.y),
    "factor": lambda t, c: (t.elimination.row_factor_pairs, t.elimination.eliminate(c.product)),
    "gram": lambda t, c: (lambda e: e.gram_solve_pairs(e.hermitian_matmul_pairs(c.f, c.f_star), c.z), t.elimination),
    "skeleton": lambda t, c: (t.elimination.skeleton_ledger_pairs, c.product, t.elimination.eliminate(c.product)),
    "chain": lambda t, c: (t.drazin._chain_ledger, _read_chain(t, c.indexed)),
}


# The public cells: (inverse, the input it reads, the rows' suffix); each inverse's row comes with its check's.
PUBLIC = (("drazin_inverse", "index_one", "index 1"), ("drazin_inverse", "index_three", "index 3"),
          ("mp_inverse", "n_by_2n", "n x 2n"), ("mp_inverse", "two_n_by_n", "2n x n"))
# Each inverse's check, and the arguments after A that the check takes from the inverse's result.
CHECKS = {"drazin_inverse": ("check_drazin", lambda result: (result.drazin_inverse, result.index)),
          "mp_inverse": ("check_penrose", lambda result: (result.pseudo_inverse,))}


def _public(op: str, inverse: str, text: str, tree, c):
    """The call of ``op``, ``inverse`` or its check, on a fresh A read from the input ``text``; a check's inverse is
    formed here, untimed."""
    a = tree.parse_matrix_text(getattr(c, text))
    if op == inverse:
        return getattr(tree, op), a
    return getattr(tree, op), a, *CHECKS[inverse][1](getattr(tree, inverse)(a))


# Compared cells, on public names: setup(tree, inputs) as in CELLS, one call each on fresh inputs.
COMPARED = {
    "build": lambda t, c: (t.Matrix, c.n, c.n,
                           [e if e.im else e.re for row in t.parse_matrix_text(c.texts[0]).row_lists() for e in row]),
    **{f"{op} {shape}": partial(_public, op, inverse, text)
       for inverse, text, shape in PUBLIC for op in (inverse, CHECKS[inverse][0])},
}


class Cell(types.SimpleNamespace):
    """One cell on the kernel inputs of one size and kind, integer pairs and matrix texts that no tree's classes
    enter."""

    def run(self, tree, times: dict) -> list:
        """(key, result, compared) of the cell on one tree, compared when it is in COMPARED; its seconds go to
        ``times``."""
        key, compared = f"{self.label}/{self.name}", self.name in COMPARED
        setup = partial((COMPARED if compared else CELLS)[self.name], tree, self)
        return [(key, _timed(times, key, setup, 0.0 if compared else FLOOR), compared)]


def _prime_input(n: int) -> Input:
    """``mp_inverse`` of the nonsingular prime-family matrix of size n (see the module docstring)."""
    rng = random.Random(1)
    primes = list(islice((p for p in count(2) if all(p % d for d in range(2, isqrt(p) + 1))), n * n))
    rng.shuffle(primes)
    ks = (rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in primes)
    text = adjinv.format_matrix(adjinv.Matrix(n, n, map(Fraction, ks, primes)))
    return Input(f"n={n} prime", (text,), (("mp_inverse", (0,)),))


def _pairs(rows) -> list:
    """Integer corpus rows, of (re, im) Fraction entries, as rows of int pairs."""
    return [[(int(re), int(im)) for re, im in row] for row in rows]


def build_cells(n: int, complex_entries: bool) -> list:
    """The kernel inputs of size n, built by the benchmark's corpus from a seed that fixes them across runs and
    trees: the cells, and the reads and public operations compared like the workload ops."""
    rng, half, cx = random.Random(f"ab:{n}:{complex_entries}"), n // 2, complex_entries
    label = f"n={n} {'complex' if cx else 'real'}"
    a, product = corpus.rank_r_matrix(rng, n, n, n, cx), corpus.rank_r_matrix(rng, n, n, half, cx)
    f, texts = _pairs(corpus.rank_r_matrix(rng, half, n, half, cx)), (corpus.matrix_text(corpus.scaled_rows(rng, a)),)
    inputs = dict(label=label, n=n, a=_pairs(a), product=_pairs(product), f=f,
                  f_star=elimination._conjugate_transpose(f),
                  wide=_pairs(corpus.rank_r_matrix(rng, n, n + 4, n, cx)),
                  y=_pairs([e] for e in corpus.vector(rng, n, cx)),
                  z=_pairs([e] for e in corpus.vector(rng, half, cx)),
                  texts=texts,  # the text of A, its tokens carrying denominators
                  indexed=corpus.matrix_text(corpus.drazin_matrix(rng, n, 2, n - n // 2, cx)[0]),  # index 2
                  # the public cells' inputs, drawn after the rest so those stay as they were
                  index_one=corpus.matrix_text(corpus.drazin_matrix(rng, n, 1, half, cx)[0]),
                  index_three=corpus.matrix_text(corpus.drazin_matrix(rng, n, 3, half, cx)[0]),
                  n_by_2n=corpus.matrix_text(corpus.rank_r_matrix(rng, n, 2 * n, half, cx)),
                  two_n_by_n=corpus.matrix_text(corpus.rank_r_matrix(rng, 2 * n, n, half, cx)))
    ops = (("char_poly_coeffs", (1,)), ("mp_inverse", (2,)), ("drazin_inverse", (3,)))  # each on a fresh product
    fresh = Input(label, texts + (corpus.matrix_text(product),) * 3, ops)
    return [Cell(name=name, **inputs) for name in (*CELLS, *COMPARED)] + [fresh]


def build_inputs(sizes: list[int]) -> list:
    """Rounds 0 .. ROUNDS-1 of SEED of the library workloads, built by the benchmark's own round builders,
    then the kernel inputs of each size, real and complex, and the prime family's up to ``PRIME_MAX``."""
    inputs = []
    for i in range(ROUNDS):
        for w in WORKLOADS:
            rnd = workloads.BUILDERS[w](random.Random(f"{w}:{SEED}:{i}"), False, None)
            for case in rnd.cases:
                ops = [op for op in rnd.ops if op.op_id.startswith(case.key + ".")]
                inputs.append(_input(w, case, ops))
    inputs += [item for n in sizes for cx in (False, True) for item in build_cells(n, cx)]
    return inputs + [_prime_input(n) for n in sizes if n <= PRIME_MAX]


def import_revision(rev: str, where: Path):
    """Extract REV's src/adjinv as ``where``/adjinv_parent, import it as the package ``adjinv_parent`` and return it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", f"--prefix={PARENT}/",
                              f"{rev}:src/adjinv"], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    sys.path.insert(0, str(where))
    return importlib.import_module(PARENT)


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


def run_pairs(trees: dict, inputs: list, pairs: int) -> tuple[dict[str, list[tuple[float, float]]], dict[str, str]]:
    """Per row, (parent seconds, change seconds) of each pair, and per timed-only cell a tree could not run, the
    error; raises SystemExit(1) if compared results differ."""
    per_op, absent = {}, {}
    for p in range(pairs):
        times = {name: {} for name in trees}
        for i, item in enumerate(inputs):
            results = {}
            for name in ("change", "parent") if (p + i) % 2 == 0 else ("parent", "change"):
                gc.collect()
                results[name] = item.run(trees[name], times[name])
            for (key, got, compared), (_, want, _) in zip(results["change"], results["parent"]):
                if compared and canonical(got) != canonical(want):
                    where = "".join(f"\n{t}" for t in dict.fromkeys(item.texts))
                    raise SystemExit(f"pair {p + 1}: {key} differs between the trees on{where}")
                for name, value in (("parent", want), ("change", got)):
                    if not compared and isinstance(value, Exception):
                        absent.setdefault(key, f"{name}: {type(value).__name__}: {value}")
        for key, t in times["parent"].items():
            if key not in absent:
                per_op.setdefault(key, []).append((t, times["change"][key]))
    return per_op, absent


def summarize(per_op: dict[str, list[tuple[float, float]]]) -> dict[str, dict]:
    """Per row, each tree's median ms, the spread of the parent's ms, the ratios, the wins and the verdict."""
    report = {}
    for key, runs in per_op.items():
        parent, change, ratios = [p for p, _ in runs], [c for _, c in runs], [c / p for p, c in runs]
        (q1, _, q3), (p1, _, p3) = (statistics.quantiles(x, n=4, method="inclusive") for x in (ratios, parent))
        gain, spread = statistics.median(parent) - statistics.median(change), p3 - p1
        wins, losses = sum(c < p for p, c in runs), sum(c > p for p, c in runs)
        need = 9 * len(runs) / 10 if len(runs) >= 10 else len(runs) + 1  # 9 in 10 of at least 10 pairs
        verdict = ("faster" if wins >= need and gain > spread
                   else "slower" if losses >= need and -gain > spread else "unresolved")
        report[key] = {"parent_ms": statistics.median(parent) * 1e3, "change_ms": statistics.median(change) * 1e3,
                       "spread_ms": spread * 1e3, "ratio_median": statistics.median(ratios), "ratio_q1": q1,
                       "ratio_q3": q3, "wins": wins, "pairs": len(runs), "verdict": verdict}
    return report


def slopes(report: dict[str, dict]) -> dict[str, list[float]]:
    """Per kernel cell and kind ("real/eliminate"), the slope of log(change ms) against log n between neighbouring
    sizes, smallest n first."""
    points = {}
    for key, r in report.items():
        label, cell = key.split("/", 1)
        if label.startswith("n="):
            n, kind = label[2:].split(" ", 1)
            points.setdefault(f"{kind}/{cell}", []).append((int(n), r["change_ms"]))
    for p in points.values():
        p.sort()
    return {key: [round(math.log(t1 / t0) / math.log(n1 / n0), 3) for (n0, t0), (n1, t1) in zip(p, p[1:])]
            for key, p in points.items() if len(p) > 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision whose src/adjinv is the parent tree")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (at least 2)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 20, 40], help="sizes n of the kernel cells")
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if min(args.sizes) < 6:
        parser.error("--sizes must be at least 6 (the index-3 input's nilpotent part, n//2, holds a block of 3)")
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    inputs = build_inputs(args.sizes)
    with tempfile.TemporaryDirectory(prefix="adjinv-ab-") as where:
        trees = {"change": adjinv, "parent": import_revision(commit, Path(where))}
        per_op, absent = run_pairs(trees, inputs, args.pairs)
    report = summarize(per_op)
    print(f"change = working tree, parent = {args.rev} ({commit[:12]}); {args.pairs} pairs of {len(inputs)} inputs"
          f" (seed {SEED}, rounds 0-{ROUNDS - 1}; kernel cells at n = {' '.join(map(str, args.sizes))});"
          f" _INT_MIN {elimination._INT_MIN} / {trees['parent'].elimination._INT_MIN};"
          " compared results equal in every pair")
    print(f"{'row':<36}{'parent ms':>11}{'change ms':>11}{'spread':>10}{'ratio':>8}{'q1':>7}{'q3':>7}{'wins':>7}"
          "  verdict")
    for key, r in report.items():
        print(f"{key:<36}{r['parent_ms']:>11.3f}{r['change_ms']:>11.3f}{r['spread_ms']:>10.3f}{r['ratio_median']:>8.3f}"
              f"{r['ratio_q1']:>7.3f}{r['ratio_q3']:>7.3f}{r['wins']:>4}/{r['pairs']:<2}  {r['verdict']}")
    for key, why in absent.items():
        print(f"{key:<36}absent ({why})")
    if args.json:
        args.json.write_text(json.dumps({"rev": args.rev, "commit": commit, "seed": SEED, "rounds": ROUNDS,
                                         "sizes": args.sizes, "pairs": args.pairs, "equal": True,
                                         "ops": report, "absent": absent, "slopes": slopes(report)}, indent=2)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

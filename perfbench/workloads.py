"""The four benchmark workloads: seeded rounds of operations and their checks.

A workload is a sequence of rounds.  Round ``i`` of seed ``s`` is generated
from ``random.Random(f"{workload}:{s}:{i}")``, so the same seed always gives
the same inputs, and every round has the same size mix.  An operation is one
library call (or one CLI process) plus the exact check of its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from adjinv.drazin import GroupInverseError, drazin_inverse
from adjinv.matrices import Matrix, column_vector, multiply, row_vector
from adjinv.matrix_io import OutputFormat, format_output, parse_matrix_file, parse_matrix_text
from adjinv.pinv import mp_inverse
from adjinv.scalars import parse_scalar
from . import checks, corpus
from .corpus import Case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "adjinv" / "data"

# Rounds a run may use at most; the corpus ceiling is checked over all of them.
MAX_ROUNDS = 40


def lib(module: str, fname: str):
    """The library function as bound right now (a tracing wrapper, if installed)."""
    return getattr(sys.modules[f"adjinv.{module}"], fname)


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None
    exit_code: int | None = None
    stdout: str = ""
    rss_kb: int = 0
    latency: float = 0.0  # seconds; calibrated to the host's speed in timed loops
    wall: float = 0.0  # seconds of wall time

    def output(self) -> str:
        """The text the output digest is taken over."""
        if self.exit_code is not None:
            return f"{self.exit_code}\n{self.stdout}"
        if self.error is not None:
            return json.dumps({"refused": type(self.error).__name__})
        return checks.result_layout(self.value)


@dataclass
class Op:
    op_id: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]


@dataclass
class Round:
    cases: list[Case]
    ops: list[Op] = field(default_factory=list)


def call_library(module: str, fname: str, *args) -> Callable[[], Outcome]:
    def call() -> Outcome:
        try:
            return Outcome(value=lib(module, fname)(*args))
        except Exception as exc:  # recorded and judged by the check
            return Outcome(error=exc)

    return call


def _expect_value(check: Callable[[object], list[str]]) -> Callable[[Outcome], list[str]]:
    def run(out: Outcome) -> list[str]:
        if out.error is not None:
            return [f"unexpected {type(out.error).__name__}: {out.error}"]
        return check(out.value)

    return run


def _parse(case: Case):
    return lib("matrix_io", "parse_matrix_text")(case.text)


# -- pinv-deficient -----------------------------------------------------------------

# (m, n, rank, complex): square, tall and wide, rank about min(m, n) / 2.
PINV_SHAPES = [(6, 6, 3, False), (8, 6, 3, True), (6, 8, 3, False),
               (8, 8, 4, True), (10, 7, 3, False), (7, 10, 3, True)]
PINV_TINY = [(3, 3, 1, False), (4, 3, 2, True)]


def pinv_round(rng: random.Random, tiny: bool, work: "Workspace") -> Round:
    cases = []
    for t, (m, n, r, cx) in enumerate(PINV_TINY if tiny else PINV_SHAPES):
        rows = corpus.rank_r_matrix(rng, m, n, r, cx)
        cases.append(Case(f"p{t}", corpus.matrix_text(rows), m, n, r,
                          rhs=corpus.vector(rng, m, cx), row_rhs=corpus.vector(rng, n, cx)))
    rnd = Round(cases)
    for case in cases:
        a = _parse(case)
        y, yr = checks.column(case.rhs), checks.row(case.row_rhs)
        ctx: dict = {}

        def pinv_check(res, a=a, ctx=ctx):
            ctx["X"] = res.pseudo_inverse
            out = checks.check_pinv(a, res.pseudo_inverse)
            out += checks.check_ledger(res, res.pseudo_inverse, "pinv")
            if res.representation_used not in ("eq1", "eq2"):
                out.append(f"rank-deficient input dispatched to {res.representation_used}")
            return out

        k = case.key
        rnd.ops += [
            Op(f"{k}.mp_inverse", call_library("pinv", "mp_inverse", a), _expect_value(pinv_check)),
            Op(f"{k}.projector_p", call_library("pinv", "projector_p", a),
               _expect_value(lambda p, a=a, ctx=ctx: checks.check_projector_p(a, ctx.get("X"), p))),
            Op(f"{k}.projector_q", call_library("pinv", "projector_q", a),
               _expect_value(lambda q, a=a, ctx=ctx: checks.check_projector_q(a, ctx.get("X"), q))),
            Op(f"{k}.lsq_solve", call_library("solvers", "lsq_solve", a, y),
               _expect_value(lambda rep, a=a, y=y, ctx=ctx:
                             checks.check_lsq(a, y, rep.solution, ctx.get("X"))
                             + checks.check_ledger_vector(rep))),
            Op(f"{k}.lsq_solve_row_system", call_library("solvers", "lsq_solve_row_system", yr, a),
               _expect_value(lambda rep, a=a, yr=yr, ctx=ctx:
                             checks.check_row_system(a, yr, rep.solution, ctx.get("X"))
                             + checks.check_ledger_vector(rep))),
        ]
    return rnd


# -- drazin-index ---------------------------------------------------------------------

# (n, core rank, index, complex); the nilpotent part has size n - core.
DRAZIN_SHAPES = [(7, 4, 1, False), (8, 3, 2, True), (9, 3, 3, False),
                 (10, 3, 2, True), (8, 5, 1, True)]
DRAZIN_TINY = [(3, 1, 2, False), (3, 2, 1, True)]


def drazin_round(rng: random.Random, tiny: bool, work: "Workspace") -> Round:
    cases = []
    for t, (n, core, k, cx) in enumerate(DRAZIN_TINY if tiny else DRAZIN_SHAPES):
        rows, coeffs = corpus.drazin_matrix(rng, n, k, n - core, cx)
        cases.append(Case(f"d{t}", corpus.matrix_text(rows), n, n, core, index=k,
                          char_coeffs=coeffs, rhs=corpus.vector(rng, n, cx)))
    rnd = Round(cases)
    for case in cases:
        a = _parse(case)
        y = checks.column(case.rhs)
        k = case.index
        ctx: dict = {}

        def dz_check(res, a=a, k=k, core=case.rank, ctx=ctx):
            ctx["XD"] = res.drazin_inverse
            out = checks.check_drazin(a, k, res.drazin_inverse)
            out += checks.check_ledger(res, res.drazin_inverse, "Drazin")
            if (res.index, res.rank_core) != (k, core):
                out.append(f"index/core rank {res.index}/{res.rank_core} differ from the construction")
            return out

        def group_check(out: Outcome, a=a, k=k, ctx=ctx) -> list[str]:
            if k >= 2:
                if isinstance(out.error, GroupInverseError):
                    return []
                return [f"index {k}: expected GroupInverseError, got {out.error or 'a value'}"]
            if out.error is not None:
                return [f"unexpected {type(out.error).__name__}: {out.error}"]
            return checks.check_drazin(a, k, out.value.drazin_inverse) + (
                [] if out.value.drazin_inverse == ctx.get("XD") else ["group inverse differs from A^D"])

        key = case.key
        rnd.ops += [
            Op(f"{key}.index_of", call_library("drazin", "index_of", a),
               _expect_value(lambda v, k=k: [] if v == k else [f"index {v}, constructed {k}"])),
            Op(f"{key}.drazin_inverse", call_library("drazin", "drazin_inverse", a), _expect_value(dz_check)),
            Op(f"{key}.group_inverse", call_library("drazin", "group_inverse", a), group_check),
            Op(f"{key}.drazin_times_a", call_library("drazin", "drazin_times_a", a),
               _expect_value(lambda p, a=a, ctx=ctx: checks.check_drazin_a(a, ctx.get("XD"), p))),
            Op(f"{key}.drazin_solve", call_library("solvers", "drazin_solve", a, y),
               _expect_value(lambda rep, a=a, k=k, y=y, ctx=ctx:
                             checks.check_drazin_solve(a, k, y, rep.solution, ctx.get("XD"))
                             + checks.check_ledger_vector(rep))),
            Op(f"{key}.char_poly_coeffs", call_library("minors", "char_poly_coeffs", a),
               _expect_value(lambda c, a=a, want=case.char_coeffs: checks.check_char_poly(a, c, want))),
        ]
    return rnd


# -- fullrank-dense ----------------------------------------------------------------------

# (shape, n, complex, operation, expected method tag); tall is (n+4) x n and
# wide n x (n+4).  Each matrix serves exactly one operation.
FULLRANK_MIX = [
    ("square", 12, False, "mp_inverse", "classical_inverse"),
    ("tall", 12, True, "mp_inverse", "eq6"),
    ("wide", 12, False, "mp_inverse", "eq7"),
    ("square", 14, True, "drazin_inverse", 0),
    ("square", 16, False, "drazin_solve", "classical_cramer"),
    ("tall", 16, False, "lsq_solve", "eq13"),
    ("wide", 16, True, "lsq_solve_row_system", "row_eq_fullrank"),
    ("square", 20, True, "drazin_solve", "classical_cramer"),
    ("tall", 20, False, "lsq_solve", "eq13"),
    ("wide", 20, False, "lsq_solve_row_system", "row_eq_fullrank"),
    ("square", 16, True, "mp_inverse", "classical_inverse"),
]
FULLRANK_TINY = [("square", 3, False, "mp_inverse", "classical_inverse"),
                 ("tall", 2, True, "lsq_solve", "eq13")]


def _dims(shape: str, n: int) -> tuple[int, int]:
    return {"tall": (n + 4, n), "wide": (n, n + 4)}.get(shape, (n, n))


# operation -> (module, its arguments from (A, y, y_row), check, method tag of the result)
FULLRANK_OPS = {
    "mp_inverse": ("pinv", lambda a, y, yr: (a,),
                   lambda r, a, y, yr: (checks.check_fullrank_pinv(a, r.pseudo_inverse)
                                        + checks.check_ledger(r, r.pseudo_inverse, "pinv")),
                   lambda r: r.representation_used),
    "drazin_inverse": ("drazin", lambda a, y, yr: (a,),
                       lambda r, a, y, yr: (checks.check_inverse(a, r.drazin_inverse)
                                            + checks.check_ledger(r, r.drazin_inverse, "Drazin")),
                       lambda r: r.index),
    "drazin_solve": ("solvers", lambda a, y, yr: (a, y),
                     lambda r, a, y, yr: (checks.check_solution(a, y, r.solution)
                                          + checks.check_ledger_vector(r)),
                     lambda r: r.method),
    "lsq_solve": ("solvers", lambda a, y, yr: (a, y),
                  lambda r, a, y, yr: (checks.check_lsq(a, y, r.solution, None)
                                       + checks.check_ledger_vector(r)),
                  lambda r: r.method),
    "lsq_solve_row_system": ("solvers", lambda a, y, yr: (yr, a),
                             lambda r, a, y, yr: (checks.check_row_system(a, yr, r.solution, None)
                                                  + checks.check_ledger_vector(r)),
                             lambda r: r.method),
}


def fullrank_round(rng: random.Random, tiny: bool, work: "Workspace") -> Round:
    rnd = Round([])
    for t, (shape, n, cx, opname, tag) in enumerate(FULLRANK_TINY if tiny else FULLRANK_MIX):
        m, cols = _dims(shape, n)
        rows = corpus.scaled_rows(rng, corpus.rank_r_matrix(rng, m, cols, min(m, cols), cx))
        case = Case(f"f{t}", corpus.matrix_text(rows), m, cols, min(m, cols),
                    rhs=corpus.vector(rng, m, cx), row_rhs=corpus.vector(rng, cols, cx))
        rnd.cases.append(case)
        a = _parse(case)
        y, yr = checks.column(case.rhs), checks.row(case.row_rhs)
        module, args, check, tag_of = FULLRANK_OPS[opname]

        def full_check(r, a=a, y=y, yr=yr, check=check, tag_of=tag_of, want=tag):
            problems = check(r, a, y, yr)
            got = tag_of(r)
            return problems + ([] if got == want else [f"method {got}, expected {want}"])

        rnd.ops.append(Op(f"{case.key}.{opname}", call_library(module, opname, *args(a, y, yr)),
                          _expect_value(full_check)))
    return rnd


# -- cli-batch ----------------------------------------------------------------------------

BAD_TEXT = "2 2\n1 2\n3\n"


@dataclass
class Workspace:
    """Where a run keeps its files, how it runs the CLI, and the current round."""

    dir: Path
    runner: "CliRunner"
    round_no: int = 0


class CliRunner:
    """Runs ``python -m adjinv`` once per operation, one process at a time.

    With ``in_process`` set (the traced run) it calls ``adjinv.cli.main``
    directly instead, so the tracer sees inside the command.
    """

    def __init__(self, work: Path, in_process: bool = False) -> None:
        self.work = work
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONSTARTUP", None)

    def __call__(self, argv: list[str]) -> Outcome:
        if self.in_process:
            return self._in_process(argv)
        out_path = self.work / "cli.out"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "adjinv", *argv], stdout=out,
                                    stderr=subprocess.DEVNULL, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(exit_code=proc.returncode, stdout=out_path.read_text(encoding="utf-8"),
                       rss_kb=usage.ru_maxrss)

    def _in_process(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib("cli", "main")(argv)
        return Outcome(exit_code=code, stdout=out.getvalue())


def _cli_value(out: Outcome, json_mode: bool, kind: str):
    if json_mode:
        payload = json.loads(out.stdout)
        if "entries" in payload:
            flat = [parse_scalar(t) for r in payload["entries"] for t in r]
            return Matrix(payload["rows"], payload["cols"], flat), payload
        if "value" in payload:
            return payload["value"], payload
        return tuple(parse_scalar(t) for t in payload["values"]), payload
    if kind == "matrix":
        return parse_matrix_text(out.stdout), {}
    return out.stdout.strip(), {}


def _decimal(value) -> str:
    return format_output(value, OutputFormat(decimal_digits=12)) + "\n"


def cli_round(rng: random.Random, tiny: bool, work: "Workspace") -> Round:
    runner, round_no = work.runner, work.round_no
    scale = 1 if tiny else 0
    d1 = Case("d1", corpus.matrix_text(corpus.rank_r_matrix(rng, 5 - scale, 4 - scale, 2, False)),
              5 - scale, 4 - scale, 2)
    d2 = Case("d2", corpus.matrix_text(corpus.rank_r_matrix(rng, 6 - scale, 6 - scale, 3, True)),
              6 - scale, 6 - scale, 3)
    sq_rows, _ = corpus.drazin_matrix(rng, 5, 2, 2, False)
    sq = Case("sq", corpus.matrix_text(sq_rows), 5, 5, 3, index=2)
    sq1_rows, sq1_coeffs = corpus.drazin_matrix(rng, 4, 1, 2, True)
    sq1 = Case("sq1", corpus.matrix_text(sq1_rows), 4, 4, 2, index=1, char_coeffs=sq1_coeffs)
    rhs = {key: " ".join(corpus.token(e) for e in corpus.vector(rng, length, cx))
           for key, length, cx in (("d1", d1.rows, False), ("d1row", d1.cols, False),
                                   ("d2", d2.rows, True), ("sq", 5, False))}
    rnd = Round([d1, d2, sq, sq1])
    files = {}
    for case in rnd.cases:
        path = work.dir / f"r{round_no}-{case.key}.mat"
        path.write_text(case.text, encoding="utf-8")
        files[case.key] = (str(path), _parse(case))
    bad = work.dir / f"r{round_no}-bad.mat"
    bad.write_text(BAD_TEXT, encoding="utf-8")
    ex1 = str(DATA / "example1.mat")
    ex2 = str(DATA / "example2.mat")
    mats = {key: m for key, (_, m) in files.items()}
    mats["ex1"], mats["ex2"] = parse_matrix_file(ex1), parse_matrix_file(ex2)
    paths = {key: p for key, (p, _) in files.items()}
    paths.update(ex1=ex1, ex2=ex2, bad=str(bad))
    memo: dict = {}

    def X(key):  # checked Moore-Penrose inverse, computed after the timed loop
        if ("X", key) not in memo:
            x = mp_inverse(mats[key]).pseudo_inverse
            memo["X", key] = x
            memo.setdefault("bad", []).extend(checks.check_pinv(mats[key], x))
        return memo["X", key]

    def XD(key, k):
        if ("XD", key) not in memo:
            x = drazin_inverse(mats[key]).drazin_inverse
            memo["XD", key] = x
            memo.setdefault("bad", []).extend(checks.check_drazin(mats[key], k, x))
        return memo["XD", key]

    def vec(text, row=False):
        values = [parse_scalar(t) for t in text.split()]
        return row_vector(values) if row else column_vector(values)

    y_ex = "1 2 3 1"
    # (subcommand, matrix key, flags, expected exit, output kind, check)
    specs = [
        ("pinv", "d1", [], 0, "matrix", lambda v, p: checks.check_pinv(mats["d1"], v)),
        ("pinv", "d2", ["--json"], 0, "matrix",
         lambda v, p: checks.check_pinv(mats["d2"], v) + ([] if p["method"] in ("eq1", "eq2") else ["method"])),
        ("pinv", "d1", ["--method", "eq1", "--json"], 0, "matrix",
         lambda v, p: checks.check_pinv(mats["d1"], v) + ([] if p["method"] == "eq1" else ["method"])),
        ("pinv", "d2", ["--method", "eq2"], 0, "matrix", lambda v, p: checks.check_pinv(mats["d2"], v)),
        ("pinv", "ex1", ["--decimal", "12"], 0, "decimal", lambda s: _decimal(X("ex1"))),
        ("drazin", "sq", ["--json"], 0, "matrix", lambda v, p: checks.check_drazin(mats["sq"], 2, v)),
        ("drazin", "ex2", [], 0, "matrix", lambda v, p: checks.check_drazin(mats["ex2"], 2, v)),
        ("group-inverse", "sq1", ["--json"], 0, "matrix", lambda v, p: checks.check_drazin(mats["sq1"], 1, v)),
        ("group-inverse", "ex2", [], 3, None, None),
        ("group-inverse", "sq", ["--json"], 3, None, None),
        ("proj-p", "d1", [], 0, "matrix", lambda v, p: checks.check_projector_p(mats["d1"], X("d1"), v)),
        ("proj-q", "d2", ["--json"], 0, "matrix", lambda v, p: checks.check_projector_q(mats["d2"], X("d2"), v)),
        ("proj-p", "d2", ["--decimal", "12"], 0, "decimal", lambda s: _decimal(multiply(X("d2"), mats["d2"]))),
        ("drazin-a", "sq", [], 0, "matrix", lambda v, p: checks.check_drazin_a(mats["sq"], XD("sq", 2), v)),
        ("rank", "d2", ["--json"], 0, "int", lambda v, p: [] if v == "3" else [f"rank {v}"]),
        ("rank", "ex1", [], 0, "int", lambda v, p: [] if v == "3" else [f"rank {v}"]),
        ("index", "sq", ["--json"], 0, "int", lambda v, p: [] if v == "2" else [f"index {v}"]),
        ("index", "ex2", [], 0, "int", lambda v, p: [] if v == "2" else [f"index {v}"]),
        ("charpoly", "sq1", ["--json"], 0, "coeffs",
         lambda v, p: checks.check_char_poly(mats["sq1"], v, sq1_coeffs)),
        ("charpoly", "d1", [], 3, None, None),
        ("solve-lsq", "d1", [f"--rhs={rhs['d1']}"], 0, "matrix",
         lambda v, p: checks.check_lsq(mats["d1"], vec(rhs["d1"]), v, X("d1"))),
        ("solve-lsq", "ex1", [f"--rhs={y_ex}", "--json"], 0, "matrix",
         lambda v, p: checks.check_lsq(mats["ex1"], vec(y_ex), v, X("ex1"))),
        ("solve-row", "d1", [f"--rhs={rhs['d1row']}"], 0, "matrix",
         lambda v, p: checks.check_row_system(mats["d1"], vec(rhs["d1row"], True), v, X("d1"))),
        ("solve-drazin", "sq", [f"--rhs={rhs['sq']}", "--json"], 0, "matrix",
         lambda v, p: checks.check_drazin_solve(mats["sq"], 2, vec(rhs["sq"]), v, XD("sq", 2))),
        ("solve-drazin", "ex2", [f"--rhs={y_ex}", "--decimal", "12"], 0, "decimal",
         lambda s: _decimal(multiply(XD("ex2", 2), vec(y_ex)))),
        ("verify", "d2", [f"--rhs={rhs['d2']}"], 0, "verify", None),
        ("verify", "sq", [f"--rhs={rhs['sq']}", "--json"], 0, "verify", None),
        ("paper-examples", None, [], 0, "golden", None),
        ("pinv", "bad", [], 2, None, None),
        ("rank", "bad", ["--json"], 2, None, None),
    ]
    for t, (sub, key, flags, code, kind, check) in enumerate(specs):
        argv = [sub] + ([paths[key]] if key else []) + flags
        rnd.ops.append(Op(f"c{t:02d}.{sub}.{key}", lambda argv=argv: runner(argv),
                          _cli_check(code, kind, "--json" in flags, check, memo)))
    return rnd


def _cli_check(code, kind, json_mode, check, memo) -> Callable[[Outcome], list[str]]:
    def run(out: Outcome) -> list[str]:
        if out.exit_code != code:
            return [f"exit code {out.exit_code}, expected {code}"]
        if kind is None:
            return []
        if kind == "decimal":
            problems = [] if out.stdout == check(out) else ["decimal display differs"]
        elif kind == "verify":
            if json_mode:
                ok = all(c["passed"] for c in json.loads(out.stdout)["checks"])
            else:
                ok = all(line.endswith(": pass") for line in out.stdout.splitlines())
            problems = [] if ok and out.stdout else ["verify reported a failure"]
        elif kind == "golden":
            lines = out.stdout.splitlines()
            ok = lines and lines[-1].startswith("all ") and all(
                line.endswith(": pass") for line in lines[:-1])
            problems = [] if ok else ["golden examples failed"]
        else:
            value, payload = _cli_value(out, json_mode, kind)
            problems = check(value, payload)
        return problems + memo.pop("bad", [])

    return run


BUILDERS = {
    "pinv-deficient": pinv_round,
    "drazin-index": drazin_round,
    "fullrank-dense": fullrank_round,
    "cli-batch": cli_round,
}


def round_shapes(workload: str, tiny: bool) -> list[tuple[int, int, int]]:
    """(m, n, rank) of every matrix in one round, from the fixed size mix."""
    if workload == "pinv-deficient":
        return [(m, n, r) for m, n, r, _ in (PINV_TINY if tiny else PINV_SHAPES)]
    if workload == "drazin-index":
        return [(n, n, core) for n, core, _, _ in (DRAZIN_TINY if tiny else DRAZIN_SHAPES)]
    if workload == "fullrank-dense":
        shapes = []
        for shape, n, *_ in FULLRANK_TINY if tiny else FULLRANK_MIX:
            m, cols = _dims(shape, n)
            shapes.append((m, cols, min(m, cols)))
        return shapes
    return [(5, 4, 2), (6, 6, 3), (5, 5, 3), (4, 4, 2)]

import errno
import gc
import importlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from adjinv import Matrix, Scalar, parse_matrix_text
from adjinv import cli
from adjinv import golden
from adjinv import matrix_io


@pytest.fixture()
def example1_path(tmp_path, example1):
    from adjinv import format_matrix

    path = tmp_path / "example1.mat"
    path.write_text(format_matrix(example1) + "\n")
    return str(path)


@pytest.fixture()
def example2_path(tmp_path, example2):
    from adjinv import format_matrix

    path = tmp_path / "example2.mat"
    path.write_text(format_matrix(example2) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_lsq_prints_golden_solution(capsys, example1_path):
    code, out, _ = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 3 1")
    assert code == 0
    assert out.splitlines() == ["4 1", "12193/17010", "-416/1701", "5/9", "5693/8505"]


def test_solve_drazin_prints_golden_solution(capsys, example2_path):
    code, out, _ = run_cli(capsys, "solve-drazin", example2_path, "--rhs", "1 2 3 1")
    assert code == 0
    assert out.splitlines() == ["4 1", "1/2", "1", "1", "1/2"]


def test_index_and_rank(capsys, example1_path, example2_path):
    code, out, _ = run_cli(capsys, "index", example2_path)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "rank", example1_path)
    assert code == 0 and out.strip() == "3"


def test_pinv_output_reparses_to_golden(capsys, example1_path):
    code, out, _ = run_cli(capsys, "pinv", example1_path)
    assert code == 0
    reparsed = parse_matrix_text(out)
    expected = Matrix.from_rows(
        [
            [25779, -4905, 20742, -5037],
            [-3840, -2880, -4800, -960],
            [28350, -17010, 22680, -5670],
            [39558, -18810, 26484, -13074],
        ]
    ) * (Scalar(1) / Scalar(102060))
    assert reparsed == expected


def test_pinv_json_schema(capsys, example1_path):
    code, out, _ = run_cli(capsys, "pinv", example1_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 4 and payload["cols"] == 4
    assert payload["method"] == "eq1"
    assert payload["denominator"] == "102060"
    assert all(isinstance(tok, str) for row in payload["entries"] for tok in row)
    assert payload["entries"][2][0] == "5/18"  # 28350/102060 reduced


def test_solve_json_method_tag(capsys, example1_path):
    code, out, _ = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 3 1", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "eq14"
    assert payload["entries"] == [["12193/17010"], ["-416/1701"], ["5/9"], ["5693/8505"]]


def test_decimal_display(capsys, example1_path):
    code, out, _ = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 3 1", "--decimal", "6")
    assert code == 0
    assert out.splitlines()[1] == "0.716814"


def test_charpoly(capsys, example2_path):
    code, out, _ = run_cli(capsys, "charpoly", example2_path)
    assert code == 0
    assert out.strip() == "4 2 0 0"


def test_group_inverse_exit_code(capsys, tmp_path):
    path = tmp_path / "nilpotent.mat"
    path.write_text("2 2\n0 1\n0 0\n")
    code, _, err = run_cli(capsys, "group-inverse", str(path))
    assert code == 3
    assert "group inverse" in err


def test_non_square_precondition(capsys, tmp_path):
    path = tmp_path / "wide.mat"
    path.write_text("2 3\n1 0 0\n0 1 0\n")
    code, _, err = run_cli(capsys, "index", str(path))
    assert code == 3
    code, _, _ = run_cli(capsys, "drazin", str(path))
    assert code == 3


def test_literal_forms_refuse_over_budget(capsys, tmp_path, monkeypatch):
    # 24 x 24 of rank 12: C(23, 11) * 576, about 7.5e8 minors per literal form.
    from adjinv import format_matrix, minors, multiply

    left = Matrix(24, 12, [(3 * i + 5 * j) % 7 - 3 + (i == j) * 11 for i in range(24) for j in range(12)])
    right = Matrix(12, 24, [(2 * i + 3 * j) % 5 - 2 + (i == j) * 13 for i in range(12) for j in range(24)])
    path = tmp_path / "big.mat"
    path.write_text(format_matrix(multiply(left, right)) + "\n")

    def no_minors(*args):
        raise AssertionError("a minor was formed")

    monkeypatch.setattr(minors, "minor", no_minors)
    for method in ("eq1", "eq2"):
        code, out, err = run_cli(capsys, "pinv", str(path), "--method", method)
        assert code == 3 and out == ""
        assert "--method auto" in err and "budget" in err


@pytest.fixture(scope="module")
def gated_files(tmp_path_factory):
    """Five seeded files of 12 x 12 and larger, at or above the gate ``elimination._INT_MIN`` = 10.

    square12 is real and nonsingular, rank11 a real 12 x 14 of rank 11,
    index1rank10 a real 12 x 12 of index 1 and rank 10, and tall16x12 and
    wide12x16 complex of full column and full row rank, which pass the
    full-rank certificate.
    """
    rng = random.Random(29)

    def rand(m, n):
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]

    def crand(m, n):
        return [[f"{rng.randint(-3, 3)}{rng.randint(-3, 3):+d}i" for _ in range(n)] for _ in range(m)]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    files = {"square12": rand(12, 12), "rank11": mul(rand(12, 11), rand(11, 14)),
             "index1rank10": mul(rand(12, 10), rand(10, 12)), "tall16x12": crand(16, 12), "wide12x16": crand(12, 16)}
    directory = tmp_path_factory.mktemp("gated")
    for name, a in files.items():
        (directory / f"{name}.mat").write_text(
            f"{len(a)} {len(a[0])}\n" + "".join(" ".join(map(str, row)) + "\n" for row in a))
    return directory


# Each run's matrix reaches the gate on its short side, so the CLI takes int
# rows, the dot-form back substitution and the full-rank certificate.  A
# solve-drazin on square12 replays a complex right side on an int sweep; on
# index1rank10 it reads the chain's factor off an int sweep.
GATED_RUNS = [
    ("verify", "square12", "--rhs", "1 -2 3 0 1/2 1 2 -1 0 1 1 2"),
    ("solve-drazin", "square12", "--rhs", "1 -2+1i 3 0 1/2 1 2i -1 0 1 1 2"),
    ("pinv", "rank11"),
    ("verify", "rank11"),
    ("solve-row", "rank11", "--rhs", "1 -2 3 0 1/2 1 2 -1 0 1 1 2 -3 4"),
    ("drazin", "index1rank10"),
    ("solve-drazin", "index1rank10", "--rhs", "1 2 3 4 5 6 7 8 9 10 11 12"),
    ("pinv", "tall16x12", "--json"),
    ("solve-lsq", "tall16x12", "--rhs", "1 -2+1i 3 0 1/2 1 2i -1 0 1 1 2 -3 1-1i 0 4"),
    ("proj-p", "tall16x12"),
    ("verify", "tall16x12", "--rhs", "1 -2+1i 3 0 1/2 1 2i -1 0 1 1 2 -3 1-1i 0 4"),
    ("solve-row", "wide12x16", "--rhs", "2 0 -1 1/3 1i 4 -2 1 0 3-2i 1 1 0 -1 2 5"),
    ("proj-q", "wide12x16"),
]


@pytest.mark.parametrize("argv", GATED_RUNS, ids=lambda argv: f"{argv[0]}-{argv[1]}")
def test_cli_runs_at_gated_sizes(capsys, gated_files, argv):
    sub, name, *rest = argv
    code, out, err = run_cli(capsys, sub, str(gated_files / f"{name}.mat"), *rest)
    assert code == 0, err
    if sub == "verify":
        assert out and all(line.endswith(": pass") for line in out.splitlines()), out


def test_usage_errors(capsys, example1_path):
    code, _, err = run_cli(capsys, "nonsense", example1_path)
    assert code == 1
    code, _, err = run_cli(capsys, "solve-lsq", example1_path)
    assert code == 1 and "--rhs" in err
    code, _, err = run_cli(
        capsys, "solve-lsq", example1_path, "--rhs", "1 2 3 1", "--rhs-file", example1_path
    )
    assert code == 1 and "not both" in err
    code, _, err = run_cli(capsys, "pinv", example1_path, "--json", "--decimal", "3")
    assert code == 1
    code, _, err = run_cli(capsys, "pinv", example1_path, "--decimal", "-1")
    assert code == 1 and "nonnegative" in err
    code, _, err = run_cli(capsys, "pinv", example1_path, "--threads", "0")
    assert code == 1


def test_input_errors(capsys, tmp_path, example1_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n3\n")
    code, _, err = run_cli(capsys, "rank", str(bad))
    assert code == 2 and "line 3" in err
    bad.write_text("1 1\n\u00b2\n")
    code, _, err = run_cli(capsys, "rank", str(bad))
    assert code == 2 and "line 2, column 1" in err
    code, _, err = run_cli(capsys, "rank", str(tmp_path / "missing.mat"))
    assert code == 2
    # A file that is not UTF-8 text, or not a file at all, is an input error too.
    latin = tmp_path / "latin.mat"
    latin.write_bytes(b"2 2\n1 \xff\n1 1\n")
    for path in (latin, tmp_path):
        code, out, err = run_cli(capsys, "rank", str(path))
        assert (code, out) == (2, "") and err.startswith("input error:")
        code, out, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs-file", str(path))
        assert (code, out) == (2, "") and err.startswith("input error:")
    assert "not UTF-8" in run_cli(capsys, "verify", str(latin))[2]
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 x 1")
    assert code == 2
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "")
    assert code == 2 and "right-side vector is empty" in err
    square = tmp_path / "square.mat"
    square.write_text("2 2\n1 2\n3 4\n")
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs-file", str(square))
    assert code == 2 and "right-side file must be a vector, got 2 x 2" in err
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 3")
    assert code == 3  # well-formed vector of the wrong length


def test_bad_rhs_token_names_its_column(capsys, example1_path):
    # The column is that of the offending character, as in a matrix file.
    code, out, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2x")
    assert (code, out) == (2, "")
    assert err == (
        "input error: line 1, column 4: bad right-side token '2x': unexpected character 'x' at offset 1\n"
    )
    code, _, err = run_cli(capsys, "solve-row", example1_path, "--rhs", "  1\t-1/0 3 1")
    assert code == 2 and "line 1, column 8: bad right-side token '-1/0': zero denominator at offset 3" in err


def test_bad_rhs_token_on_a_later_line_names_its_line_and_column(capsys, example1_path):
    # A --rhs may span lines; the place is the line and column within its text.
    code, out, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2\n3 4x")
    assert (code, out) == (2, "")
    assert err == (
        "input error: line 2, column 4: bad right-side token '4x': unexpected character 'x' at offset 1\n"
    )
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2\n3 1")
    assert code == 0 and err == ""


def test_rhs_lines_break_where_matrix_lines_do(capsys, example1_path):
    # \r ends a line of --rhs text as it ends one of a matrix file; \x85 does not.
    code, out, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2\r3 4x")
    assert (code, out) == (2, "")
    assert err == (
        "input error: line 2, column 4: bad right-side token '4x': unexpected character 'x' at offset 1\n"
    )
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2\x853 4x")
    assert code == 2 and err.startswith("input error: line 1, column 8: ")


def test_rhs_file_orientations(capsys, example1_path, tmp_path):
    rhs_col = tmp_path / "rhs_col.mat"
    rhs_col.write_text("4 1\n1\n2\n3\n1\n")
    code, out_col, _ = run_cli(capsys, "solve-lsq", example1_path, "--rhs-file", str(rhs_col))
    assert code == 0
    rhs_row = tmp_path / "rhs_row.mat"
    rhs_row.write_text("1 4\n1 2 3 1\n")
    code, out_row, _ = run_cli(capsys, "solve-lsq", example1_path, "--rhs-file", str(rhs_row))
    assert code == 0
    assert out_col == out_row


def test_byte_order_mark_files(capsys, tmp_path):
    # Editors that write a UTF-8 byte-order mark still give a readable file.
    plain = tmp_path / "plain.mat"
    plain.write_bytes(resources.files("adjinv").joinpath("data/example1.mat").read_bytes())
    bom = tmp_path / "bom.mat"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run_cli(capsys, "pinv", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "pinv", str(bom)) == expected
    rhs, rhs_bom = tmp_path / "rhs.mat", tmp_path / "rhs_bom.mat"
    rhs.write_text("4 1\n1\n2\n3\n1\n")
    rhs_bom.write_bytes(b"\xef\xbb\xbf" + rhs.read_bytes())
    expected = run_cli(capsys, "solve-lsq", str(plain), "--rhs-file", str(rhs))
    assert expected[0] == 0
    assert run_cli(capsys, "solve-lsq", str(plain), "--rhs-file", str(rhs_bom)) == expected


def test_solve_row_subcommand(capsys, tmp_path):
    path = tmp_path / "column.mat"
    path.write_text("2 1\n1\n2\n")
    code, out, _ = run_cli(capsys, "solve-row", str(path), "--rhs", "5")
    assert code == 0
    assert out.splitlines() == ["1 2", "1 2"]


def test_projector_subcommands(capsys, example1_path, example2_path):
    code, out_p, _ = run_cli(capsys, "proj-p", example1_path)
    assert code == 0
    p = parse_matrix_text(out_p)
    assert p.shape == (4, 4)
    code, out_q, _ = run_cli(capsys, "proj-q", example1_path)
    assert code == 0
    q = parse_matrix_text(out_q)
    assert q == q.H
    code, out_da, _ = run_cli(capsys, "drazin-a", example2_path)
    assert code == 0
    proj = parse_matrix_text(out_da)
    from adjinv import multiply

    assert proj == multiply(proj, proj)


def test_verify_subcommand(capsys, example1_path, example2_path):
    code, out, _ = run_cli(capsys, "verify", example1_path, "--rhs", "1 2 3 1")
    assert code == 0
    lines = out.splitlines()
    assert "penrose:AXA=A: pass" in lines
    assert "dsolve:A^(k+1)x=A^k y: pass" in lines
    code, out, _ = run_cli(capsys, "verify", example2_path)
    assert code == 0
    assert "drazin:AX=XA: pass" in out


def test_verify_checks_the_drazin_solve_independently(capsys, example2_path, monkeypatch):
    from adjinv import matrices

    # A faulty index search that hands over the core 2 M_k: the inverse and
    # the solution come out scaled by 2^-(k+1), and verify must not check
    # them against the same faulty chain.
    real = matrices._index_search

    def faulty(a):
        k, r, factors, core = real(a)
        return k, r, factors, core * 2

    monkeypatch.setattr(matrices, "_index_search", faulty)
    code, out, _ = run_cli(capsys, "verify", example2_path, "--rhs", "1 2 3 1")
    assert code == 4
    assert "dsolve:A^(k+1)x=A^k y: FAIL" in out.splitlines()


def test_verify_forms_a_to_the_index_once(capsys, example2_path, monkeypatch):
    from adjinv import verify

    # example2 has index 2: one A^k serves the Drazin checks and the dsolve checks.
    powers = []
    for module in (cli, verify):
        real = module.power
        monkeypatch.setattr(module, "power", lambda a, k, real=real: powers.append(k) or real(a, k))
    code, out, _ = run_cli(capsys, "verify", example2_path, "--rhs", "1 2 3 1")
    assert code == 0 and "dsolve:x in R(A^k): pass" in out.splitlines()
    assert powers == [2]


@pytest.mark.parametrize("rhs, expected_code", [("1 x", 2), ("1 2", 3)])
def test_verify_reads_the_right_side_first(capsys, tmp_path, monkeypatch, rhs, expected_code):
    from adjinv import matrices, pinv

    path = tmp_path / "m.mat"
    path.write_text("3 3\n2 1 0\n1 3 1\n0 1 4\n")
    calls = []
    for module, name in ((pinv, "mp_inverse"), (matrices, "_index_search")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real, **kw: calls.append(name) or real(*args, **kw))
    code, out, err = run_cli(capsys, "verify", str(path), "--rhs", rhs)
    assert code == expected_code and out == ""
    assert err.startswith("input error:" if expected_code == 2 else "error: right side has 2 entries")
    assert calls == []


def test_verify_json(capsys, example2_path):
    code, out, _ = run_cli(capsys, "verify", example2_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(item["passed"] for item in payload["checks"])


def test_verify_failure_exit_code(capsys, example1_path, monkeypatch):
    from adjinv.pinv import PinvResult
    from adjinv import Matrix as M

    def broken(a, method="auto"):
        wrong = M.zeros(a.cols, a.rows)
        return PinvResult(wrong, Scalar(1), wrong, "eq1")

    monkeypatch.setattr(cli._pinv, "mp_inverse", broken)
    code, out, err = run_cli(capsys, "verify", example1_path)
    assert code == 4
    assert "AXA=A" in err

    def inexact(a, method="auto"):
        raise ArithmeticError("inexact division in fraction-free elimination")

    monkeypatch.setattr(cli._pinv, "mp_inverse", inexact)
    code, out, err = run_cli(capsys, "pinv", example1_path)
    assert (code, out) == (4, "") and err.startswith("internal verification failure:")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self) -> int:
        return self._fd


@pytest.mark.parametrize("argv", [["pinv"], ["verify"]])
def test_closed_stdout_exits_quietly(capsys, tmp_path, monkeypatch, example1_path, argv):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno()))
        code = cli.main(argv + [example1_path])
        monkeypatch.undo()
    assert (code, capsys.readouterr()) == (cli.EXIT_PIPE, ("", ""))


def _child_env() -> dict:
    """The environment for a child Python that imports the same adjinv as this process."""
    import adjinv

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(adjinv.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_ends_the_process_quietly(example1_path, unbuffered):
    # The read end is closed before the process starts, so its first write
    # meets a closed pipe: in print when stdout is unbuffered, else when the
    # buffer is flushed.
    read, write = os.pipe()
    os.close(read)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "adjinv", "pinv", example1_path],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.EXIT_PIPE, b"")


def test_process_entry_point_freezes_the_heap_once_before_printing(capsys, monkeypatch, example1_path):
    printed_before_freeze = []
    monkeypatch.setattr(gc, "freeze", lambda: printed_before_freeze.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["adjinv", "pinv", example1_path])
    assert cli.main() == 0
    assert printed_before_freeze == [""]
    assert capsys.readouterr().out.startswith("4 4\n")


@pytest.mark.parametrize("argv, expected_code", [
    (["pinv", "{example1}"], cli.EXIT_OK),
    (["pinv", "{example1}", "--json"], cli.EXIT_OK),
    (["pinv", "{example1}", "--json", "--decimal", "3"], cli.EXIT_USAGE),
    (["rank", "{missing}"], cli.EXIT_INPUT),
])
def test_in_process_calls_never_freeze(capsys, tmp_path, example1_path, argv, expected_code):
    # A frozen heap could never collect the cyclic garbage the caller holds.
    frozen = gc.get_freeze_count()
    argv = [arg.format(example1=example1_path, missing=tmp_path / "missing.mat") for arg in argv]
    assert run_cli(capsys, *argv)[0] == expected_code
    assert gc.get_freeze_count() == frozen


def test_importing_the_package_and_cli_loads_no_json():
    probe = ("import sys; before = set(sys.modules); import adjinv, adjinv.cli; "
             "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('json', '_json')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_decimal_is_imported_on_the_digit_cap_path_only():
    # fractions imports decimal too (Python 3.10-3.13), in every process that
    # runs scalars, so the bare package import is the one that shows it.
    from adjinv import scalars

    assert "Decimal" not in vars(scalars)
    probe = ("import sys; before = set(sys.modules); import adjinv; "
             "print(sorted(m for m in set(sys.modules) - before if 'decimal' in m))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_process_json_output_matches_the_in_process_run(capsys, example1_path):
    code, out, err = run_cli(capsys, "pinv", example1_path, "--json")
    done = subprocess.run([sys.executable, "-m", "adjinv", "pinv", example1_path, "--json"],
                          capture_output=True, env=_child_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
    assert code == 0 and json.loads(out)["method"] == "eq1"


def test_paper_examples_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0
    assert "all 22 golden values match" in out
    assert "FAIL" not in out


def _shipped_data(tmp_path) -> Path:
    """A copy in ``tmp_path`` of the files the paper examples read from the package's data directory."""
    for name in ("example1.mat", "example2.mat", "paper_examples.txt"):
        (tmp_path / name).write_bytes(resources.files("adjinv").joinpath("data/" + name).read_bytes())
    return tmp_path / "paper_examples.txt"


def _tamper(monkeypatch, tmp_path, old: str, new: str) -> None:
    """Point the paper examples at a copy of the shipped data whose one occurrence of ``old`` reads ``new``."""
    data = _shipped_data(tmp_path)
    text = data.read_text(encoding="utf-8")
    assert text.count(old) == 1
    data.write_text(text.replace(old, new), encoding="utf-8")
    monkeypatch.setattr(golden, "_DATA", str(tmp_path))


# The expected denominator of example 1, 102060, changed to 1: three rows read it.
DENOMINATOR = ("\n102060\n", "\n1\n")


def test_paper_examples_detects_mismatch(capsys, monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, *DENOMINATOR)
    code, out, err = run_cli(capsys, "paper-examples")
    assert code == 4
    assert "FAIL" in out
    assert [line for line in out.splitlines() if line.endswith(": FAIL")] == [
        "example1: order-3 principal-minor sum of A*A = 102060: FAIL",
        "example1: denominator = 102060: FAIL",
        "example1: pseudoinverse matrix: FAIL",
    ]
    assert err == "3 golden value(s) did not match\n"


def test_paper_examples_fail_exactly_the_row_of_a_changed_value(capsys, monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, "\n25779\n", "\n25778\n")  # numerator l11 only
    code, out, err = run_cli(capsys, "paper-examples")
    assert code == 4
    assert [line for line in out.splitlines() if not line.endswith(": pass")] == [
        "example1: numerator l11 = 25779: FAIL"]
    assert err == "1 golden value(s) did not match\n"


@pytest.mark.parametrize("mismatch", [False, True])
def test_paper_examples_json_reports_the_checks_of_its_text(capsys, monkeypatch, tmp_path, mismatch):
    if mismatch:
        _tamper(monkeypatch, tmp_path, *DENOMINATOR)
    code, out, err = run_cli(capsys, "paper-examples")
    json_code, json_out, json_err = run_cli(capsys, "paper-examples", "--json")
    text = [line.rsplit(": ", 1) for line in out.splitlines() if line.endswith((": pass", ": FAIL"))]
    checks = [(item["name"], item["passed"]) for item in json.loads(json_out)["checks"]]
    assert checks == [(name, result == "pass") for name, result in text] and len(checks) == 22
    assert (json_code, json_err) == (code, err) and code == (4 if mismatch else 0)


def test_paper_examples_read_the_shipped_files(capsys, monkeypatch, tmp_path):
    _shipped_data(tmp_path)
    monkeypatch.setattr(golden, "_DATA", str(tmp_path))
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0 and out.endswith("all 22 golden values match\n")
    # One entry of A changed: 1.5 becomes 2.5 in row 2.
    tampered = (tmp_path / "example1.mat").read_text().replace("7 -4 -9 1.5", "7 -4 -9 2.5")
    assert tampered != (tmp_path / "example1.mat").read_text()
    (tmp_path / "example1.mat").write_text(tampered)
    code, out, err = run_cli(capsys, "paper-examples")
    assert code == 4
    lines = out.splitlines()
    assert any(line.startswith("example1: ") and line.endswith(": FAIL") for line in lines)
    assert all(line.endswith(": pass") for line in lines if line.startswith("example2: "))
    assert "golden value(s) did not match" in err


def test_importing_golden_reads_no_file():
    def refuse(source):
        raise AssertionError(f"importing adjinv.golden read {source}")

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_io, "parse_matrix_file", refuse)
            patch.setattr(matrix_io, "parse_matrix_text", refuse)
            importlib.reload(golden)
            assert golden.parse_matrix_file is golden.parse_matrix_text is refuse
    finally:
        importlib.reload(golden)
    assert golden.parse_matrix_file is matrix_io.parse_matrix_file
    assert golden.parse_matrix_text is matrix_io.parse_matrix_text


def _unmatched_blocks(monkeypatch, tmp_path) -> tuple[set, set]:
    """On the data in ``tmp_path``: (the names the paper examples' rows read that its data file lacks, the blocks of
    the file that no row reads).  The rows stop at the first name the file lacks."""
    monkeypatch.setattr(golden, "_DATA", str(tmp_path))
    blocks, reads = golden._expected(), set()

    class Reads(dict):
        def __getitem__(self, name):
            reads.add(name)
            return super().__getitem__(name)

    monkeypatch.setattr(golden, "_expected", lambda: Reads(blocks))
    try:
        golden.run_all()
    except KeyError:
        pass
    return reads - set(blocks), set(blocks) - reads


def test_every_block_of_the_paper_examples_data_is_read_and_every_block_read_exists(monkeypatch, tmp_path):
    _shipped_data(tmp_path)
    assert _unmatched_blocks(monkeypatch, tmp_path) == (set(), set())


def test_the_block_check_fails_on_a_renamed_block(monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, "[example1.gram]", "[example1.gram_matrix]")
    missing, unread = _unmatched_blocks(monkeypatch, tmp_path)
    assert missing == {"example1.gram"} and "example1.gram_matrix" in unread


def test_the_block_check_fails_on_a_block_no_row_reads(monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, "[example1.l11]", "[example1.l12]\n1 1\n0\n\n[example1.l11]")
    assert _unmatched_blocks(monkeypatch, tmp_path) == (set(), {"example1.l12"})


def test_a_repeated_block_name_is_refused_at_its_line(capsys, monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, "[example2.index]", "[example2.d11]")
    lines = (tmp_path / "paper_examples.txt").read_text(encoding="utf-8").splitlines()
    _, line = [k + 1 for k, text in enumerate(lines) if text == "[example2.d11]"]  # the second is refused
    code, out, err = run_cli(capsys, "paper-examples")
    assert (code, out) == (2, "")
    assert err == f"input error: line {line}, column 1: block [example2.d11] is repeated\n"


def test_a_malformed_block_is_reported_at_its_line_in_the_data_file(capsys, monkeypatch, tmp_path):
    _tamper(monkeypatch, tmp_path, "\n3 2 2\n", "\n3 2 two\n")  # the ranks of example 2
    line = (tmp_path / "paper_examples.txt").read_text(encoding="utf-8").splitlines().index("3 2 two") + 1
    code, out, err = run_cli(capsys, "paper-examples")
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: line {line}, column 5: bad scalar token 'two'")


def test_bundled_paper_examples_data_works_via_cli(capsys, monkeypatch):
    with resources.as_file(resources.files("adjinv").joinpath("data")) as path:
        assert (path / "paper_examples.txt").is_file()
        monkeypatch.setattr(golden, "_DATA", str(path))
        code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0 and out.endswith("all 22 golden values match\n")


def test_bundled_data_files_work_via_cli(capsys):
    with resources.as_file(
        resources.files("adjinv").joinpath("data/example1.mat")
    ) as path:
        code, out, _ = run_cli(capsys, "solve-lsq", str(path), "--rhs", "1 2 3 1")
    assert code == 0
    assert out.splitlines()[1] == "12193/17010"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # The subcommands are listed by name, the exit codes are given, and the
    # developer docstring of the module stays out.
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    words = " ".join(out.split())
    for code in ("0 success", "1 usage error", "2 input error", "3 mathematical precondition violated",
                 "4 internal verification failure", "141 output cut short"):
        assert code in words
    for developer in ("_COMMANDS", ":mod:", "gc.freeze"):
        assert developer not in out


MATRICES = {
    "nilpotent": "2 2\n0 1\n0 0\n",
    "nonsingular": "3 3\n2 1 0\n1 3 1\n0 1 4\n",
    "wide": "2 3\n1 0 2\n0 1 1\n",
    "column": "2 1\n1\n2\n",
}


@pytest.mark.parametrize(
    "argv, method, denominator",
    [
        (["drazin", "example2"], "eq11", "8"),
        (["drazin", "nilpotent"], "zero", "1"),
        (["group-inverse", "nonsingular"], "classical_inverse", "18"),
        (["solve-drazin", "example2", "--rhs", "1 2 3 1"], "eq16", "8"),
        (["solve-drazin", "nonsingular", "--rhs", "1 2 3"], "classical_cramer", "18"),
        (["solve-row", "wide", "--rhs", "1 2 3"], "row_eq_fullrank", "6"),
        (["solve-row", "column", "--rhs", "5"], "row_eq_general", "5"),
        (["proj-p", "example1"], None, None),
        (["proj-q", "example1"], None, None),
        (["drazin-a", "example2"], None, None),
        (["rank", "example1"], None, None),
        (["index", "example2"], None, None),
        (["charpoly", "example2"], None, None),
    ],
)
def test_json_ledger_fields(capsys, tmp_path, example1_path, example2_path, argv, method, denominator):
    sub, name, *rest = argv
    if name in MATRICES:
        path = tmp_path / f"{name}.mat"
        path.write_text(MATRICES[name])
    else:
        path = {"example1": example1_path, "example2": example2_path}[name]
    code, out, _ = run_cli(capsys, sub, str(path), *rest, "--json")
    assert code == 0
    payload = json.loads(out)
    if method is None:
        assert "method" not in payload and "denominator" not in payload
    else:
        assert (payload["method"], payload["denominator"]) == (method, denominator)


SUBCOMMANDS = [
    "pinv", "drazin", "group-inverse", "proj-p", "proj-q", "drazin-a", "rank", "index",
    "charpoly", "solve-lsq", "solve-row", "solve-drazin", "verify", "paper-examples",
]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_and_options(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: adjinv {sub} ")
    takes_rhs = sub.startswith("solve-") or sub == "verify"
    assert ("--rhs RHS" in out) == takes_rhs
    assert ("--rhs-file RHS_FILE" in out) == takes_rhs
    assert ("--method" in out) == (sub == "pinv")
    assert ("positional arguments:\n  matrix" in out) == (sub != "paper-examples")
    for option in ("--decimal N", "--json", "--threads THREADS"):
        assert option in out


def test_long_exact_values(capsys, tmp_path):
    from adjinv import char_poly_coeffs, column_vector, multiply, pinv, row_vector
    from adjinv.matrix_io import parse_vector_text

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    token = tmp_path / "token.mat"
    token.write_text("2 2\n" + "1" * 5001 + " 0\n0 1\n")
    code, out, _ = run_cli(capsys, "rank", str(token))
    assert (code, out) == (0, "2\n")

    big = "1" + "0" * 2500  # 10**2500, written without int->str under a low cap
    a = Matrix.from_rows([[big, 1], [1, big]])
    path = tmp_path / "big.mat"
    path.write_text(f"2 2\n{big} 1\n1 {big}\n")
    code, out_poly, _ = run_cli(capsys, "charpoly", str(path))
    assert code == 0
    code, out_pinv, _ = run_cli(capsys, "pinv", str(path))
    assert code == 0
    code, out_json, _ = run_cli(capsys, "pinv", str(path), "--json")
    assert code == 0
    code, out_lsq, _ = run_cli(capsys, "solve-lsq", str(path), "--rhs", "9" * 5001 + " 0")
    assert code == 0
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
    assert parse_vector_text(out_poly) == row_vector(char_poly_coeffs(a))
    res = pinv.mp_inverse(a)
    assert parse_matrix_text(out_pinv) == res.pseudo_inverse
    assert parse_vector_text(json.loads(out_json)["denominator"]) == row_vector([res.denominator])
    assert parse_matrix_text(out_lsq) == multiply(res.pseudo_inverse, column_vector([10**5001 - 1, 0]))


def test_decimal_digit_cap(capsys, example1_path):
    code, out, err = run_cli(capsys, "pinv", example1_path, "--decimal", "10001")
    assert code == 1 and out == "" and "at most 10000" in err
    code, out, _ = run_cli(capsys, "rank", example1_path, "--decimal", "10000")
    assert (code, out) == (0, "3\n")

import json
from importlib import resources

import pytest

from adjinv import Matrix, Scalar, parse_matrix_text
from adjinv import cli
from adjinv import golden


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
    code, _, err = run_cli(capsys, "pinv", example1_path, "--threads", "0")
    assert code == 1


def test_input_errors(capsys, tmp_path, example1_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n3\n")
    code, _, err = run_cli(capsys, "rank", str(bad))
    assert code == 2 and "line 3" in err
    code, _, err = run_cli(capsys, "rank", str(tmp_path / "missing.mat"))
    assert code == 2
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 x 1")
    assert code == 2
    code, _, err = run_cli(capsys, "solve-lsq", example1_path, "--rhs", "1 2 3")
    assert code == 3  # well-formed vector of the wrong length


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


def test_verify_searches_the_index_once(capsys, example2_path, monkeypatch):
    from adjinv import drazin

    calls = []
    real = drazin._index_powers
    monkeypatch.setattr(drazin, "_index_powers", lambda a: calls.append(a) or real(a))
    code, out, _ = run_cli(capsys, "verify", example2_path, "--rhs", "1 2 3 1")
    assert code == 0 and "FAIL" not in out
    assert "dsolve:x in R(A^k): pass" in out.splitlines()
    assert len(calls) == 1


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


def test_paper_examples_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0
    assert "all 22 golden values match" in out
    assert "FAIL" not in out


def test_paper_examples_detects_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(golden, "EXAMPLE1_DENOMINATOR", Scalar(1))
    code, out, err = run_cli(capsys, "paper-examples")
    assert code == 4
    assert "FAIL" in out


def test_bundled_data_files_work_via_cli(capsys):
    with resources.as_file(
        resources.files("adjinv").joinpath("data/example1.mat")
    ) as path:
        code, out, _ = run_cli(capsys, "solve-lsq", str(path), "--rhs", "1 2 3 1")
    assert code == 0
    assert out.splitlines()[1] == "12193/17010"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0

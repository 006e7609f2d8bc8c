"""Tests of the benchmark itself: smoke runs, failure counting, refusals, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from adjinv.matrices import Matrix
from adjinv.scalars import Scalar
from perfbench import bench, tracing, workloads
from perfbench.workloads import CliRunner, Workspace

WORKLOADS = sorted(workloads.BUILDERS)


@pytest.fixture
def work(tmp_path):
    return Workspace(tmp_path, CliRunner(tmp_path))


def tiny_round(workload, work, seed=5):
    return bench.new_round(workload, seed, 0, True, work)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_is_correct(workload):
    result = bench.run_untraced(workload, seed=3, seconds=0.01, tiny=True)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = bench.run_traced(workload, seed=3, tiny=True)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["error_rate"]["value"] == 0


def test_tampered_result_counts_as_failure(work):
    rnd = tiny_round("pinv-deficient", work)
    op = rnd.ops[0]
    assert op.op_id.endswith(".mp_inverse")
    out = bench.timed(op)
    assert op.check(out) == []
    x = out.value.pseudo_inverse
    entries = [x.at(i, j) for i in range(x.rows) for j in range(x.cols)]
    entries[0] = entries[0] + Scalar(1, 7)
    out.value = replace(out.value, pseudo_inverse=Matrix(x.rows, x.cols, entries))
    failures, _ = bench.check_outcomes([(0, op, out)], {})
    assert len(failures) == 1 and "Penrose" in failures[0]


def test_malformed_result_counts_as_failure(work):
    rnd = tiny_round("pinv-deficient", work)
    op = rnd.ops[0]
    out = bench.timed(op)
    out.value = "not a result"
    failures, _ = bench.check_outcomes([(0, op, out)], {})
    assert len(failures) == 1 and "check raised" in failures[0]


def test_digest_mismatch_counts_as_failure(work):
    rnd = tiny_round("drazin-index", work)
    op = rnd.ops[0]
    out = bench.timed(op)
    failures, _ = bench.check_outcomes([(0, op, out)], {f"r0.{op.op_id}": "0" * 64})
    assert len(failures) == 1 and "digest" in failures[0]


def test_expected_refusal_counts_as_success(work):
    from adjinv.drazin import GroupInverseError

    rnd = tiny_round("drazin-index", work)
    assert rnd.cases[0].index >= 2
    done = []
    for op in rnd.ops[:6]:  # every operation on the index-2 matrix
        done.append((0, op, bench.timed(op)))
    refused = [out for _, op, out in done if op.op_id.endswith(".group_inverse")]
    assert isinstance(refused[0].error, GroupInverseError)
    failures, _ = bench.check_outcomes(done, {})
    assert failures == []


def test_cli_refusal_exit_codes_count_as_success(work):
    rnd = bench.new_round("cli-batch", 5, 0, True, work)
    done = [(0, op, bench.timed(op)) for op in rnd.ops
            if op.op_id.endswith(("group-inverse.ex2", "pinv.bad"))]
    assert sorted(out.exit_code for _, _, out in done) == [2, 3]
    failures, _ = bench.check_outcomes(done, {})
    assert failures == []


def test_tracer_wraps_every_binding_site_and_restores_them():
    import adjinv.cli
    import adjinv.pinv
    from adjinv import matrices

    original_rank = matrices.rank
    tracer = tracing.Tracer()
    with tracer:
        wrapped = set(tracing.installed_wrappers())
        assert {"adjinv.matrices.rank", "adjinv.pinv.rank", "adjinv.drazin.rank",
                "adjinv.cli.char_poly_coeffs", "adjinv.golden.mp_inverse_columns",
                "adjinv.pinv.parallel_map"} <= wrapped
        assert adjinv.pinv.rank is not original_rank
    assert tracing.installed_wrappers() == []
    assert adjinv.pinv.rank is original_rank
    assert adjinv.cli.char_poly_coeffs.__module__ == "adjinv.minors"


def test_traced_run_leaves_no_wrapper_installed():
    bench.run_traced("pinv-deficient", seed=4, tiny=True)
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner", "inner"]
    tracer.starts = [0.0, 1.0, 3.0]
    tracer.ends = [10.0, 2.0, 6.0]
    tracer.parents = [-1, 0, 0]
    assert tracer.self_times() == [6.0, 1.0, 3.0]
    assert tracer.outermost_s({"outer", "inner"}) == 10.0


def test_same_seed_gives_same_inputs(work):
    first = [c.text for c in bench.new_round("fullrank-dense", 9, 2, True, work).cases]
    again = [c.text for c in bench.new_round("fullrank-dense", 9, 2, True, work).cases]
    other = [c.text for c in bench.new_round("fullrank-dense", 10, 2, True, work).cases]
    assert first == again and first != other


def test_corpus_ceiling_fails_fast():
    from perfbench import corpus

    with pytest.raises(ValueError, match="ceiling"):
        corpus.check_ceiling([(12, 12, 6)] * 1000)


def test_constructed_drazin_matrix_has_its_index():
    from adjinv import index_of, parse_matrix_text
    from perfbench import corpus

    rng = random.Random(0)
    for n, core, k in [(5, 2, 3), (4, 2, 1), (6, 3, 2)]:
        rows, coeffs = corpus.drazin_matrix(rng, n, k, n - core, True)
        assert index_of(parse_matrix_text(corpus.matrix_text(rows))) == k
        assert coeffs[-1] == (0, 0)


def test_calibration_scales_wall_time_by_the_reference_kernel():
    from perfbench import calibration

    cal = calibration.Calibrator()
    samples = iter([0.004, 0.002, 0.001])
    cal.sample = lambda: next(samples)  # reference kernel at half, then double the baseline speed
    (first, wall1, cal1), (second, wall2, cal2) = cal.time_each([lambda: "a", lambda: "b"])
    assert (first, second) == ("a", "b")
    assert cal1 == pytest.approx(wall1 * calibration.REFERENCE_S / 0.003)
    assert cal2 == pytest.approx(wall2 * calibration.REFERENCE_S / 0.0015)


def test_run_length_is_whole_rounds_set_by_seconds():
    result = bench.run_untraced("pinv-deficient", seed=3,
                                seconds=2 * bench.NOMINAL_ROUND_S["pinv-deficient"], tiny=True)
    assert result["attempted"] == 2 * len(workloads.PINV_TINY) * 5

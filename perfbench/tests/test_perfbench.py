"""Tests of the benchmark itself: every check fails on a wrong output, and every
workload runs end to end in smoke mode.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, harness, tracing
from perfbench.workloads import WORKLOADS, Ops
from sinkquant import quant
from sinkquant.sinks import SinkSet

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LAYOUTS = [(axis, mode) for axis in ("per_token", "per_channel", "per_tensor") for mode in ("dynamic", "static")]


def _quantized(axis="per_token", mode="dynamic", sparse=0.05, shape=(40, 37)):
    x = np.random.default_rng(5).normal(size=shape)
    spec = quant.QuantSpec(2, axis, mode, 16, sparse_fraction=sparse)
    qt = quant.quantize_tensor(x, spec)
    return x, quant.dequantize(qt), qt


@pytest.mark.parametrize("axis,mode", LAYOUTS)
def test_half_step_and_packed_length_hold_on_every_layout(axis, mode):
    x, x_hat, qt = _quantized(axis, mode)
    assert checks.check_half_step("t", x, x_hat, qt) == []
    assert checks.check_packed_length("t", qt) == []


def test_half_step_fails_on_an_element_pushed_past_half_a_step():
    x, x_hat, qt = _quantized()
    coded = np.ones(x.size, dtype=bool)
    coded[qt.outlier_indices] = False
    i = int(np.flatnonzero(coded)[7])
    row, col = divmod(i, x.shape[1])
    step = qt.params.scale[row * 3 + col // 16]
    bad = x_hat.copy()
    bad[row, col] = x[row, col] + 0.51 * step
    assert checks.check_half_step("t", x, bad, qt)


def test_half_step_fails_on_an_outlier_not_restored():
    x, x_hat, qt = _quantized()
    bad = x_hat.copy().ravel()
    bad[qt.outlier_indices[0]] += 1e-9
    assert checks.check_half_step("t", x, bad.reshape(x.shape), qt)


def test_packed_length_fails_on_a_short_buffer():
    _, _, qt = _quantized()
    qt.packed = qt.packed[:-1]
    assert checks.check_packed_length("t", qt)


def test_file_roundtrip_check_fails_on_changed_codes_or_params():
    _, _, qt = _quantized()
    assert checks.check_same_quantized("t", qt, copy.deepcopy(qt)) == []
    codes = copy.deepcopy(qt)
    codes.packed = bytes([qt.packed[0] ^ 0b11]) + qt.packed[1:]
    assert checks.check_same_quantized("t", qt, codes)
    params = copy.deepcopy(qt)
    params.params.scale[3] *= 1.0 + 1e-12
    assert checks.check_same_quantized("t", qt, params)


def test_token_check_fails_on_a_dropped_planted_sink():
    assert checks.check_tokens("t", (0, 1337, 2901), [2901, 0, 1337]) == []
    assert checks.check_tokens("t", (0, 1337), [0, 1337, 2901])


def test_error_order_check():
    assert checks.check_error_order({"kvsink": 0.05, "pfn": 0.2, "none": 0.5}) == []
    assert checks.check_error_order({"kvsink": 0.2, "pfn": 0.05, "none": 0.5})
    assert checks.check_error_order({"kvsink": 0.05, "pfn": 0.5, "none": 0.5})


def test_footprint_check_fails_on_one_byte():
    fp = {"quantized_bytes": 10, "sink_bytes": 4}
    assert checks.check_footprint("t", fp, dict(fp)) == []
    assert checks.check_footprint("t", fp, {**fp, "sink_bytes": 5})


def test_exact_row_and_identity_checks_fail_on_one_ulp():
    rows = np.random.default_rng(1).normal(size=(8, 4))
    recon = rows.copy()
    assert checks.check_rows_exact("t", recon, rows, [0, 5]) == []
    recon[5, 2] = np.nextafter(recon[5, 2], np.inf)
    assert checks.check_rows_exact("t", recon, rows, [0, 5])
    assert checks.check_identical("t", [rows], [rows.copy()]) == []
    assert checks.check_identical("t", [rows], [recon])


def test_profile_and_stage_checks():
    from sinkquant.sinks import SinkProfile

    profile = SinkProfile("p", 4, 1, 64, (1, 32))
    assert checks.check_profile(profile, 1, (1, 32)) == []
    assert checks.check_profile(profile, 2, (1, 32))
    assert checks.check_profile(profile, 1, (1,))
    assert checks.check_stages(checks.LIFE_CYCLE) == []
    assert checks.check_stages(["initial", "emergence", "dissipation", "final"])


def test_sink_logit_check_fails_on_a_nonzero_delta():
    rows = [{"attention_score_delta": 0.0}, {"attention_score_delta": 0.0}]
    assert checks.check_sink_logits_kept(rows) == []
    assert checks.check_sink_logits_kept(rows + [{"attention_score_delta": 1e-15}])
    assert checks.check_sink_logits_kept([])


def _smoke(name, tmp_path):
    workload = WORKLOADS[name](smoke=True, workdir=str(tmp_path))
    ops = Ops()
    state = workload.setup(3, ops)
    out = workload.run_pass(state, ops)
    return workload, state, out, ops


def _breaks(workload, state, out, ops):
    failures, _ = workload.verify(state, out, ops)
    return failures


def test_prefill_verify_fails_on_a_dropped_sink(tmp_path):
    workload, state, out, ops = _smoke("prefill-planted-4k", tmp_path)
    assert _breaks(workload, state, out, ops) == []
    out.kept = SinkSet.of(list(out.kept)[:-1], 5)
    assert _breaks(workload, state, out, ops)


def test_roundtrip_verify_fails_on_an_element_past_half_a_step(tmp_path):
    workload, state, out, ops = _smoke("kv-roundtrip", tmp_path)
    assert _breaks(workload, state, out, ops) == []
    keys_hat = out.recon[0].copy()
    keys_hat[5, 3] = state.keys[state.keep][5, 3] + 0.51 * out.read[0].params.scale[3]  # group = channel 3
    out.recon = (keys_hat, out.recon[1])
    assert _breaks(workload, state, out, ops)


def test_decode_verify_fails_on_a_changed_mid_stream_sink(tmp_path):
    workload, state, out, ops = _smoke("decode-stream", tmp_path)
    assert _breaks(workload, state, out, ops) == []
    k_hat, v_hat = out.recon[0]
    v_hat = v_hat.copy()
    v_hat[state.mid_sink, 0] = np.nextafter(v_hat[state.mid_sink, 0], np.inf)
    out.recon[0] = (k_hat, v_hat)
    assert _breaks(workload, state, out, ops)


def test_analysis_verify_fails_on_a_nonzero_sink_logit_delta(tmp_path):
    workload, state, out, ops = _smoke("analysis-sweep", tmp_path)
    assert _breaks(workload, state, out, ops) == []
    out.disruption[0]["attention_score_delta"] = 1e-12
    assert _breaks(workload, state, out, ops)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(name, trace):
    result, failures = harness.run(name, seed=2, seconds=0.2, trace=trace, smoke=True)
    assert failures == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")


def test_command_line_names_every_workload():
    from perfbench.run import WORKLOAD_NAMES

    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


def test_tracer_restores_every_patched_function():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES] == originals


def test_run_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-roundtrip", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

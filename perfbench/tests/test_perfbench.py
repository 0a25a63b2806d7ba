"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests      (from the root of a checkout)

Smoke runs of every workload at its tiny size, the metric-name contract, the
span recorder, and one deliberately corrupted output per correctness check.
"""

import dataclasses
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twdpsim import estimators, harness, sos  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3


def tiny_output(name, tmp_path, sizes=None):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(SEED, sizes or wl.tiny, tmp_path)
    wl.reset(inputs)
    return wl, inputs, wl.run(inputs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_its_check_and_repeats_bit_for_bit(name, tmp_path):
    wl, inputs, out = tiny_output(name, tmp_path)
    assert wl.check(inputs, out) == {}
    prints = wl.fingerprint(out)
    assert len(prints) == wl.operations(inputs)
    wl.reset(inputs)
    assert wl.fingerprint(wl.run(inputs)) == prints


def test_tiny_validate_with_the_pdf_scenario(tmp_path):
    wl, inputs, report = tiny_output("validate", tmp_path, {"n_trials": 4, "with_pdf": True})
    assert any(rec.statistic == "pdf" for rec in report.records)
    assert wl.check(inputs, report) == {}


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [name for name, _, _ in spans.LAYER_METRICS]
    assert [m["name"] for m in doc["per_layer"]] == layer
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_ref_s", "peak_rss_mb", "setup_s"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for w in doc["workloads"]:
        assert NAME.fullmatch(w["name"]) and w["why"] == workloads.WORKLOADS[w["name"]].why


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 19).startswith("no tail")
    assert run.tail_percentile(list(range(20))).startswith("p50")
    assert run.tail_percentile(list(range(100))).startswith("p90")


# --- host-speed probe ---------------------------------------------------------


def test_probe_samples_during_its_body_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeedProbe(interval=0.02) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    inside = [dt for start, dt in probe.samples if t0 <= start < t1]
    assert len(probe.samples) == len(inside) + 2 and len(inside) >= 3
    assert probe.spent_between(t0, t1) == pytest.approx(sum(inside))
    assert probe.scale() > 0


def test_probe_scale_follows_the_kernel_time():
    probe = hostspeed.HostSpeedProbe()
    probe.samples = [(0.0, hostspeed.REFERENCE_S * 2), (1.0, hostspeed.REFERENCE_S * 2)]
    assert probe.scale() == pytest.approx(0.5)
    assert probe.spent_between(0.5, 2.5) == probe.samples[1][1]


def test_setup_only_child_reports_its_probe(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "theory",
         "--seed", "1", "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["spent_s"] > 0 and probe["scale"] > 0


# --- tracing ----------------------------------------------------------------


def traced(tmp_path, name):
    import twdpsim
    from twdpsim import cli, fileio, params, theory

    recorder = spans.SpanRecorder()
    patch = spans.Patch(
        recorder, twdpsim, [params, sos, theory, estimators, harness, fileio, cli],
        spans.trace_targets(estimators),
    )
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(SEED, wl.tiny, tmp_path)
    original = sos.generate_trace
    with patch:
        assert sos.generate_trace is not original
        out = wl.run(inputs)
    assert sos.generate_trace is original
    assert wl.check(inputs, out) == {}
    return recorder


def test_traced_validate_nests_harness_sos_and_draws(tmp_path):
    rec = traced(tmp_path, "validate")
    chain = {}
    for s in rec.spans:
        parent = rec.spans[s.parent].name if s.parent >= 0 else None
        chain.setdefault(s.name, set()).add(parent)
    assert chain["harness.run_validation"] == {None}
    assert "harness.run_validation" in chain["sos.generate_ensemble"]
    assert chain["sos.generate_trace"] == {"sos.generate_ensemble"}
    assert chain["sos.draw_trial_randoms"] == {"sos.generate_trace"}
    m = spans.rep_layer_metrics(rec.spans, list(range(len(rec.spans))))
    assert 0 < m["sos.draw_s"] < m["sos.generate_s"] < m["harness.run_s"]
    assert 0 < m["harness.self_s"] < m["harness.run_s"]
    assert m["harness.records"] == 4 * 5 + 2 and m["harness.records_failed"] == 0


def test_traced_trace_files_counts_bytes_and_cli_self_time(tmp_path):
    rec = traced(tmp_path, "trace-files")
    m = spans.rep_layer_metrics(rec.spans, list(range(len(rec.spans))))
    n_trials, n_samples = workloads.TRACE_FILES.tiny.values()
    per_file = spans.TRACE_HEADER_BYTES + 16 * n_samples
    assert m["fileio.bytes_written"] == m["fileio.bytes_read"] == n_trials * per_file
    assert m["sos.samples"] == n_trials * n_samples
    assert 0 < m["cli.self_s"] < m["cli.dispatch_s"]


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("harness.run_validation", 0.0, 10.0, -1, {"records": 1, "records_failed": 0}),
        spans.Span("sos.generate_ensemble", 1.0, 7.0, 0, {"samples": 5}),
        spans.Span("sos.generate_trace", 2.0, 6.0, 1, {"samples": 5}),
    ]
    m = spans.rep_layer_metrics(s, [0, 1, 2])
    assert m["harness.self_s"] == pytest.approx(4.0)
    assert m["sos.generate_s"] == pytest.approx(6.0)
    assert m["sos.generate_calls"] == 1 and m["sos.samples"] == 5


# --- each check fails on a corrupted copy of its output -----------------------


def test_validate_check_catches_a_perturbed_deviation(tmp_path):
    wl, inputs, report = tiny_output("validate", tmp_path)
    rec = report.records[0]
    broken = dataclasses.replace(rec, max_abs_dev=rec.tol_max_abs * 1.5)
    bad = dataclasses.replace(report, records=(broken,) + report.records[1:])
    assert list(wl.check(inputs, bad)) == [f"{rec.scenario}/{rec.statistic}"]
    nudged = dataclasses.replace(rec, rms_dev=np.nextafter(rec.rms_dev, 1.0))
    prints = wl.fingerprint(dataclasses.replace(report, records=(nudged,) + report.records[1:]))
    assert prints != wl.fingerprint(report)


def test_analysis_check_catches_a_biased_estimate_and_a_bad_histogram(tmp_path):
    wl, inputs, out = tiny_output("analysis", tmp_path)
    out["rsq"] = out["rsq"] + 1.0
    hist = out["pdf"]
    out["pdf"] = dataclasses.replace(hist, densities=hist.densities * 1.001)
    assert set(wl.check(inputs, out)) == {"rsq", "pdf"}


def test_theory_check_catches_values_beyond_the_module_contracts(tmp_path):
    wl, inputs, out = tiny_output("theory", tmp_path)
    out["sim_acf_squared.n64"] = out["sim_acf_squared.n64"] + 1e-11
    out["rician-k10.envelope_pdf"] = out["rician-k10.envelope_pdf"] + 1e-9
    assert set(wl.check(inputs, out)) == {"sim_acf_squared.n64", "rician-k10.envelope_pdf"}


def test_trace_files_check_catches_a_flipped_payload_byte(tmp_path):
    wl, inputs, out = tiny_output("trace-files", tmp_path)
    path = out["files"][inputs.sampled[0]][0]
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    assert list(wl.check(inputs, out)) == [f"trial{inputs.sampled[0]}"]


def test_trace_files_check_catches_a_truncated_file(tmp_path):
    wl, inputs, out = tiny_output("trace-files", tmp_path)
    path = out["files"][-1][0]
    path.write_bytes(path.read_bytes()[:-16])
    assert list(wl.check(inputs, out)) == [f"trial{len(out['files']) - 1}"]

"""The four benchmark workloads.

Each workload turns a seed and a size table into inputs (``prepare``, part of
set-up), runs one timed repetition (``run``), and checks one repetition's
output (``check``, untimed).  ``fingerprint`` digests each operation's output
so the runner can require every repetition of one seed to agree bit for bit.

Workloads reach twdpsim only through stable entry points, looked up on their
modules at call time so the traced run can swap them for span recorders:
``harness.run_validation``, ``sos.generate_ensemble``/``generate_trace``, the
``estimators``, ``theory`` and ``params`` functions, ``fileio.read_trace``
and ``cli.cli_dispatch``.  No workload builds a ``TraceEnsemble`` itself, so
a different ensemble representation cannot break the benchmark.

An operation, the unit of ``attempted`` and ``failed``, is a validation
record, a statistic call, a closed-form call or a trace file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hostspeed
from twdpsim import cli, estimators, fileio, harness, params, sos, theory

# The builtin suite's tolerances are sized from estimator standard errors at
# this many trials.
TOLERANCE_TRIALS = 500

HERE = Path(__file__).resolve().parent
THEORY_REFERENCE = HERE / "theory_reference.npz"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sizes`` are the measured input sizes and ``tiny`` the ones used for the
    warm-up and the smoke tests.  ``check`` and ``fingerprint`` return dicts
    keyed by operation label; ``operations`` and ``samples`` give the
    operations and nominal synthesized samples of one repetition.
    ``probe_kernel`` is the host-speed kernel that best follows the kind of
    work the workload does (see ``hostspeed``).
    """

    name: str
    why: str
    sizes: dict
    tiny: dict
    prepare: Callable[[int, dict, Path], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]
    fingerprint: Callable[[Any], dict]
    operations: Callable[[Any], int]
    samples: Callable[[Any], int]
    reset: Callable[[Any], None] = lambda inputs: None
    probe_kernel: Callable[[], Any] = hostspeed.mixed_kernel


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _deviation(values: np.ndarray, oracle: np.ndarray) -> tuple[float, float]:
    diff = np.abs(values - oracle)
    return float(diff.max()), float(math.sqrt(np.mean(diff**2)))


def _scaled(tol: harness.Tolerance, n_trials: int) -> harness.Tolerance:
    """The same standard-error multiple at ``n_trials`` instead of 500."""
    factor = math.sqrt(TOLERANCE_TRIALS / n_trials)
    return harness.Tolerance(tol.max_abs * factor, tol.rms * factor)


# --- validate -------------------------------------------------------------


@dataclass
class ValidateInputs:
    suite: list
    seed: int


def _validate_prepare(seed: int, sizes: dict, workdir: Path) -> ValidateInputs:
    """The builtin suite at ``n_trials`` trials per ensemble.

    ``with_pdf`` false drops the pdf scenario, whose reference CDF costs over
    a second at any trial count; only the warm-up does that.

    The full suite takes about 45 s at the builtin 500 trials, more than one
    benchmark run may take, so the workload runs it at fewer trials.
    Deviations are scored against tolerances rescaled to the same standard-
    error multiple as the builtin 500-trial ones; self-consistency
    tolerances are already in standard-error units and stay as they are.
    """
    m = sizes["n_trials"]
    suite = []
    for vs in harness.builtin_scenarios():
        if "pdf" in vs.statistics and not sizes["with_pdf"]:
            continue
        tolerances = dict(vs.tolerances)
        if vs.oracle != "self_consistency":
            tolerances = {k: _scaled(t, m) for k, t in tolerances.items()}
        cfg = dataclasses.replace(vs.scenario, n_trials=m)
        params.validate_scenario(cfg)
        suite.append(dataclasses.replace(vs, scenario=cfg, tolerances=tolerances))
    return ValidateInputs(suite, seed)


def _validate_run(inp: ValidateInputs):
    return harness.run_validation(inp.suite, inp.seed)


def _validate_check(inp: ValidateInputs, report) -> dict:
    failed = {}
    expected = [(vs.name, stat) for vs in inp.suite for stat in vs.statistics]
    got = [(rec.scenario, rec.statistic) for rec in report.records]
    for key in expected:
        if key not in got:
            failed["/".join(key)] = "record missing from the report"
    sizes = {vs.name: vs.scenario.n_trials for vs in inp.suite}
    for rec in report.records:
        label = f"{rec.scenario}/{rec.statistic}"
        within = rec.max_abs_dev <= rec.tol_max_abs and rec.rms_dev <= rec.tol_rms
        if not (math.isfinite(rec.max_abs_dev) and math.isfinite(rec.rms_dev)):
            failed[label] = "non-finite deviation"
        elif rec.passed != within:
            failed[label] = f"passed={rec.passed} disagrees with its deviations"
        elif not rec.passed:
            failed[label] = (
                f"failed: max_abs {rec.max_abs_dev:.4g} (tol {rec.tol_max_abs:.4g}), "
                f"rms {rec.rms_dev:.4g} (tol {rec.tol_rms:.4g})"
            )
        elif rec.n_trials != sizes.get(rec.scenario):
            failed[label] = f"n_trials {rec.n_trials} != {sizes.get(rec.scenario)}"
        elif rec.seed != harness.derive_seed(inp.seed, rec.scenario):
            failed[label] = "scenario seed not derived from the master seed"
    if len(got) != len(expected) and not failed:
        failed["report"] = f"{len(got)} records, expected {len(expected)}"
    return failed


def _validate_fingerprint(report) -> dict:
    """Per record: a digest of its line in the JSON report."""
    return {
        f"{rec.scenario}/{rec.statistic}": hashlib.sha256(
            json.dumps(vars(rec), sort_keys=True).encode()
        ).hexdigest()
        for rec in report.records
    }


def _validate_samples(inp: ValidateInputs) -> int:
    total = 0
    for vs in inp.suite:
        ensembles = 2 if vs.oracle == "self_consistency" else 1
        total += ensembles * vs.scenario.n_trials * vs.scenario.n_samples
    return total


VALIDATE = Workload(
    name="validate",
    why=(
        "The headline command, run_validation over the builtin suite: sos "
        "synthesis dominates, then estimators; block and indexed synthesis "
        "show their gains here."
    ),
    sizes={"n_trials": 100, "with_pdf": True},
    tiny={"n_trials": 4, "with_pdf": False},
    prepare=_validate_prepare,
    run=_validate_run,
    check=_validate_check,
    fingerprint=_validate_fingerprint,
    operations=lambda inp: sum(len(vs.statistics) for vs in inp.suite),
    samples=_validate_samples,
)


# --- analysis -------------------------------------------------------------


@dataclass
class AnalysisInputs:
    scenario: Any
    grid: Any
    oracles: dict
    tolerance: harness.Tolerance


def _analysis_prepare(seed: int, sizes: dict, workdir: Path) -> AnalysisInputs:
    scn = params.validate_scenario(
        params.make_scenario(
            k=10.0,
            gamma=0.5,
            n_trials=sizes["n_trials"],
            n_samples=sizes["n_samples"],
            seed=seed,
        )
    )
    grid = harness.default_correlation_grid(scn)
    p, rates, fd = scn.params, scn.rates, scn.doppler_hz
    quad = theory.sim_acf_quadrature(p, rates, fd, grid).values
    ccf = theory.sim_ccf_quadrature(p, rates, grid).values
    re, im = (s.values for s in theory.sim_acf_complex(p, rates, fd, grid))
    rsq = theory.sim_acf_squared(p, rates, fd, scn.n_sinusoids, grid).values
    oracles = {
        "rxx": quad,
        "ryy": quad,
        "rxy": ccf,
        "ryx": -ccf,
        "rzz": re + 1j * im,
        "rzz_re": re,
        "rzz_im": im,
        "rsq": rsq,
    }
    missing = set(estimators.ESTIMATOR_KINDS) - set(oracles)
    if missing:
        raise ValueError(f"no oracle for estimator kinds {sorted(missing)}")
    corr_tol = next(
        vs.tolerances["rxx"]
        for vs in harness.builtin_scenarios()
        if vs.oracle == "simulator_formula" and "rxx" in vs.tolerances
    )
    return AnalysisInputs(scn, grid, oracles, _scaled(corr_tol, scn.n_trials))


def _analysis_run(inp: AnalysisInputs) -> dict:
    """One ensemble shared by every statistic, as in a notebook session."""
    ens = sos.generate_ensemble(inp.scenario)
    out = {
        kind: estimators.per_trial_correlation(ens, kind, inp.grid)
        for kind in estimators.ESTIMATOR_KINDS
    }
    out["pdf"] = estimators.envelope_pdf(
        ens, bins=harness.PDF_BINS, value_range=harness.PDF_RANGE
    )
    out["lcr"] = estimators.level_crossing_rate(ens, harness.LCR_THRESHOLDS)
    return out


def _analysis_check(inp: AnalysisInputs, out: dict) -> dict:
    failed = {}
    scn, tol = inp.scenario, inp.tolerance
    for kind, oracle in inp.oracles.items():
        values = out.get(kind)
        if values is None:
            failed[kind] = "statistic missing"
            continue
        if values.shape != (scn.n_trials, len(inp.grid)):
            failed[kind] = f"shape {values.shape}"
            continue
        mean = values.mean(axis=0)
        parts = [(mean.real, oracle.real)]
        if np.iscomplexobj(oracle):
            parts.append((mean.imag, oracle.imag))
        for est, ref in parts:
            max_abs, rms = _deviation(est, ref)
            if not (max_abs <= tol.max_abs and rms <= tol.rms):
                failed[kind] = (
                    f"max_abs {max_abs:.4g} (tol {tol.max_abs:.4g}), "
                    f"rms {rms:.4g} (tol {tol.rms:.4g}) against the simulator formula"
                )
    hist = out.get("pdf")
    if hist is None:
        failed["pdf"] = "statistic missing"
    else:
        integral = float(np.sum(hist.densities * np.diff(hist.bin_edges)))
        stride = estimators.decorrelation_stride(scn)
        picks = scn.n_trials * len(range(0, scn.n_samples, stride))
        if abs(integral - 1.0) > 1e-12:
            failed["pdf"] = f"histogram integrates to {integral!r}"
        elif np.any(hist.densities < 0) or hist.n_samples != picks:
            failed["pdf"] = f"negative density or {hist.n_samples} picks != {picks}"
    curve = out.get("lcr")
    if curve is None:
        failed["lcr"] = "statistic missing"
    else:
        obs = scn.n_trials * (scn.n_samples - 1) * scn.sample_period_s
        if not (
            np.array_equal(curve.thresholds, harness.LCR_THRESHOLDS)
            and np.all(np.isfinite(curve.rates))
            and np.all(curve.rates >= 0)
            and math.isclose(curve.observation_time_s, obs, rel_tol=1e-12)
        ):
            failed["lcr"] = "thresholds, rates or observation time wrong"
    return failed


def _analysis_fingerprint(out: dict) -> dict:
    prints = {k: _digest(v) for k, v in out.items() if k not in ("pdf", "lcr")}
    prints["pdf"] = _digest(out["pdf"].bin_edges, out["pdf"].densities)
    prints["lcr"] = _digest(out["lcr"].thresholds, out["lcr"].rates)
    return prints


ANALYSIS = Workload(
    name="analysis",
    why=(
        "The demo/notebook path: one 500x6001 ensemble shared by every "
        "estimator kind, the envelope pdf and the LCR; a one-pass lag-product "
        "bundle shows here, indexed pdf synthesis does not."
    ),
    sizes={"n_trials": 500, "n_samples": 6001},
    tiny={"n_trials": 8, "n_samples": 6001},
    prepare=_analysis_prepare,
    run=_analysis_run,
    check=_analysis_check,
    fingerprint=_analysis_fingerprint,
    operations=lambda inp: len(estimators.ESTIMATOR_KINDS) + 2,
    samples=lambda inp: inp.scenario.n_trials * inp.scenario.n_samples,
)


# --- theory ---------------------------------------------------------------

# Channels of the closed-form workload: Rician K=10 and TWDP K=10 at two
# severities.  The finite-N kernel does not depend on the channel, so the
# sim_acf_squared curves run on one channel only.
THEORY_CHANNELS = (
    ("rician-k10", 10.0, 0.0),
    ("twdp-k10-g05", 10.0, 0.5),
    ("twdp-k10-g10", 10.0, 1.0),
)
KERNEL_CHANNEL = "twdp-k10-g05"
KERNEL_N = (8, 64)
# Lag step in units of 1/f_D; the full 10001-lag grid spans f_D*tau in [0, 10]
# and smaller sizes use a prefix of it.
THEORY_FD_TAU_STEP = 1e-3
# Reference values are stored on every REFERENCE_STRIDE-th lag.
REFERENCE_STRIDE = 10
# Tolerances from the modules' own contracts: 1e-12 for the correlation
# kernels; the density's inner integral is good to 1e-10 absolute (the
# density multiplies it by z); each CDF segment is good to 1e-9.
KERNEL_TOL = 1e-12
PDF_TOL = 1e-10
CDF_SEGMENT_TOL = 1e-9


@dataclass
class TheoryInputs:
    tasks: list  # (label, name of a twdpsim.theory function, its arguments)
    sizes: dict
    reference: dict


def theory_edges(n_bins: int) -> np.ndarray:
    """Leading ``n_bins`` bins of the 100-bin harness pdf range."""
    lo, hi = harness.PDF_RANGE
    return np.linspace(lo, hi, harness.PDF_BINS + 1)[: n_bins + 1]


def _theory_prepare(seed: int, sizes: dict, workdir: Path) -> TheoryInputs:
    tasks = []
    edges = theory_edges(sizes["n_bins"])
    centres = 0.5 * (edges[:-1] + edges[1:])
    for name, k, gamma in THEORY_CHANNELS:
        scn = params.validate_scenario(params.make_scenario(k=k, gamma=gamma))
        p, rates, fd = scn.params, scn.rates, scn.doppler_hz
        grid = theory.LagGrid.from_sample_lags(sizes["n_lags"], THEORY_FD_TAU_STEP / fd, fd)
        if name == KERNEL_CHANNEL:
            for n in KERNEL_N:
                tasks.append((f"sim_acf_squared.n{n}", "sim_acf_squared", (p, rates, fd, n, grid)))
        tasks += [
            (f"{name}.ref_acf_quadrature", "ref_acf_quadrature", (p, rates, fd, grid)),
            (f"{name}.ref_ccf_quadrature", "ref_ccf_quadrature", (p, rates, grid)),
            (f"{name}.ref_acf_complex", "ref_acf_complex", (p, rates, fd, grid)),
            (f"{name}.ref_acf_squared", "ref_acf_squared", (p, rates, fd, grid)),
            (f"{name}.envelope_pdf", "envelope_pdf_reference", (p, centres)),
            (f"{name}.envelope_cdf", "envelope_cdf_reference", (p, edges[1:])),
        ]
    # The seed fixes the evaluation order; the set of closed-form calls is the
    # same for every seed, so one stored reference covers all of them.
    random.Random(seed).shuffle(tasks)
    return TheoryInputs(tasks, dict(sizes), load_theory_reference())


def _values(result) -> np.ndarray:
    if isinstance(result, tuple):  # ref_acf_complex: (real part, imaginary part)
        return np.stack([series.values for series in result])
    return getattr(result, "values", result)


def _theory_run(inp: TheoryInputs) -> dict:
    # Functions are looked up at call time so the traced run sees its recorders.
    return {label: _values(getattr(theory, fn)(*args)) for label, fn, args in inp.tasks}


def load_theory_reference(path=THEORY_REFERENCE) -> dict:
    """Stored closed-form values; empty until make_reference.py has run."""
    if not Path(path).is_file():
        return {}
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _theory_check(inp: TheoryInputs, out: dict) -> dict:
    ref = inp.reference
    failed = {}
    n_lags, n_bins = inp.sizes["n_lags"], inp.sizes["n_bins"]
    labels = [task[0] for task in inp.tasks]
    if "n_lags" not in ref or n_lags > int(ref["n_lags"]) or n_bins > harness.PDF_BINS:
        return {label: "no stored reference for these sizes" for label in labels}
    stored = np.arange(0, n_lags, REFERENCE_STRIDE)
    for label in labels:
        values, want = out.get(label), ref.get(label)
        if values is None or want is None:
            failed[label] = "output or stored reference missing"
            continue
        values = np.asarray(values)
        if label.endswith("envelope_pdf") or label.endswith("envelope_cdf"):
            if values.shape != (n_bins,):
                failed[label] = f"shape {values.shape}"
                continue
            want = want[:n_bins]
            if label.endswith("envelope_pdf"):
                z = 0.5 * (theory_edges(n_bins)[:-1] + theory_edges(n_bins)[1:])
                tol = PDF_TOL * np.maximum(1.0, z)
            else:
                tol = CDF_SEGMENT_TOL * np.arange(1, n_bins + 1)
            err = np.abs(values - want)
        else:
            if values.shape[-1] != n_lags:
                failed[label] = f"shape {values.shape}"
                continue
            err = np.abs(values[..., stored] - want[..., : stored.size])
            tol = KERNEL_TOL
        if not np.all(err <= tol):
            failed[label] = f"max deviation {float(np.max(err)):.3g} from the stored reference"
    return failed


def _theory_fingerprint(out: dict) -> dict:
    return {k: _digest(v) for k, v in out.items()}


THEORY = Workload(
    name="theory",
    why=(
        "Closed forms only, no synthesis: finite-N squared-envelope kernels, "
        "reference ACF/CCF curves, envelope pdf/cdf oracles; kernel and "
        "pdf-oracle changes move it, synthesis and estimator changes do not."
    ),
    sizes={"n_lags": 10001, "n_bins": 100},
    tiny={"n_lags": 101, "n_bins": 4},
    prepare=_theory_prepare,
    run=_theory_run,
    check=_theory_check,
    fingerprint=_theory_fingerprint,
    operations=lambda inp: len(inp.tasks),
    samples=lambda inp: 0,
    # Most of the time is scipy quadrature calling back into Python, whose
    # speed drifts apart from numpy's.
    probe_kernel=hostspeed.interpreted_kernel,
)


# --- trace-files ----------------------------------------------------------

# The trace header as documented in twdpsim.fileio: magic, version, 8 f64
# channel fields, n_sinusoids, trial_index, seed, n_samples.  The check parses
# files itself rather than trusting read_trace.
_HEADER = struct.Struct("<8sH8dIIQQ")
# Trials whose files are compared byte for byte with a fresh generate_trace.
SAMPLED_TRIALS = 5


@dataclass
class TraceFilesInputs:
    scenario: Any
    config: Path
    out_dir: Path
    sampled: list


def _trace_prepare(seed: int, sizes: dict, workdir: Path) -> TraceFilesInputs:
    scn = params.validate_scenario(
        params.make_scenario(
            k=10.0,
            gamma=0.5,
            n_trials=sizes["n_trials"],
            n_samples=sizes["n_samples"],
            seed=seed,
        )
    )
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "gen.cfg"
    config.write_text(
        f"k = 10\ngamma = 0.5\nn_trials = {scn.n_trials}\n"
        f"n_samples = {scn.n_samples}\nseed = {seed}\n"
    )
    n_sampled = min(SAMPLED_TRIALS, scn.n_trials)
    sampled = sorted(random.Random(seed).sample(range(scn.n_trials), n_sampled))
    return TraceFilesInputs(scn, config, workdir / "traces", sampled)


def _trace_reset(inp: TraceFilesInputs) -> None:
    shutil.rmtree(inp.out_dir, ignore_errors=True)


def _trace_run(inp: TraceFilesInputs) -> dict:
    """``twdpsim gen`` through the CLI, then every file read back."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        status = cli.cli_dispatch(
            ["gen", "--config", str(inp.config), "--out", str(inp.out_dir)]
        )
    paths = sorted(inp.out_dir.iterdir()) if inp.out_dir.is_dir() else []
    return {"status": status, "files": [(path, fileio.read_trace(path)) for path in paths]}


def _expected_header(scn, trial_index: int) -> tuple:
    p = scn.params
    return (
        b"TWDPTRC1", 1, p.v1, p.v2, p.diffuse_power, p.omega, scn.aoa1, scn.aoa2,
        scn.doppler_hz, scn.sample_period_s, scn.n_sinusoids, trial_index,
        scn.seed, scn.n_samples,
    )


def _trace_check(inp: TraceFilesInputs, out: dict) -> dict:
    scn = inp.scenario
    labels = [f"trial{i}" for i in range(scn.n_trials)]
    if out["status"] != 0:
        return {label: f"gen exited {out['status']}" for label in labels}
    failed = {}
    size = _HEADER.size + 16 * scn.n_samples
    digest = scn.digest()
    by_trial = {}
    for path, trace in out["files"]:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
        fields = _HEADER.unpack(head) if len(head) == _HEADER.size else None
        label = f"trial{fields[11] if fields else path.name}"
        by_trial[label] = (path, trace)
        if path.stat().st_size != size:
            failed[label] = f"{path.name} holds {path.stat().st_size} bytes, expected {size}"
        elif fields != _expected_header(scn, trace.trial_index):
            failed[label] = f"{path.name} header does not match the scenario"
        elif (trace.seed, trace.scenario_digest, trace.samples.size) != (
            scn.seed, digest, scn.n_samples
        ):
            failed[label] = f"{path.name} read back with the wrong provenance"
    for label in labels:
        if label not in by_trial:
            failed[label] = "file missing"
    for idx in inp.sampled:
        label = f"trial{idx}"
        if label not in by_trial or label in failed:
            continue
        path, trace = by_trial[label]
        fresh = sos.generate_trace(scn, idx).samples
        want = np.ascontiguousarray(fresh, dtype="<c16").tobytes()
        payload = path.read_bytes()[_HEADER.size:]
        if payload != want or trace.samples.astype("<c16").tobytes() != want:
            failed[label] = f"{path.name} is not bit-identical to generate_trace"
    return failed


def _trace_fingerprint(out: dict) -> dict:
    return {f"trial{trace.trial_index}": _digest(trace.samples) for _, trace in out["files"]}


TRACE_FILES = Workload(
    name="trace-files",
    why=(
        "The only workload that writes files: the CLI gen path drives sos "
        "through per-trial generate_trace, then read_trace loads every file; "
        "a batch-only speed-up that slows single traces shows here."
    ),
    sizes={"n_trials": 300, "n_samples": 20001},
    tiny={"n_trials": 3, "n_samples": 101},
    prepare=_trace_prepare,
    run=_trace_run,
    check=_trace_check,
    fingerprint=_trace_fingerprint,
    operations=lambda inp: inp.scenario.n_trials,
    samples=lambda inp: inp.scenario.n_trials * inp.scenario.n_samples,
    reset=_trace_reset,
)


WORKLOADS = {w.name: w for w in (VALIDATE, ANALYSIS, THEORY, TRACE_FILES)}

"""twdpsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` for why each was chosen):

  validate     run_validation over the builtin suite at 100 trials
  analysis     one 500x6001 ensemble, every estimator kind, pdf and LCR
  theory       closed forms only, checked against a stored reference
  trace-files  ``twdpsim gen`` through cli_dispatch, every file read back

Untraced (``--trace 0``) runs repeat the workload until ``--seconds`` are
used, check every repetition's output, and report the end-to-end metrics:

  wall_s         median wall time of one repetition
  wall_ref_s     median of the same repetitions in reference-host seconds
  samples_per_s  nominal synthesized complex samples per repetition / wall_s
  peak_rss_mb    ru_maxrss of this process (one process per workload run)
  setup_s        median of several set-ups, each in a fresh interpreter:
                 imports, input construction and scenario validation,
                 warm-up; in reference-host seconds
  failed_frac    failed / attempted operations

Reference-host seconds take out the drift of a shared host's speed: a probe
samples a fixed kernel on the same core throughout each timed interval and
scales the interval by how fast the kernel ran (``hostspeed.py``).

The traced run (``--trace 1``) alternates untraced repetitions with
repetitions in which twdpsim's public functions are swapped for span
recorders, and reports per-layer metrics (``spans.LAYER_METRICS``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a human-readable report with provenance.  The JSON metrics are
``wall_ref_s``, ``peak_rss_mb`` and ``setup_s``.  ``wall_s``,
``samples_per_s`` and ``failed_frac`` appear only in the report: raw wall
time moves with the host's speed by more than any bound a comparison could
use, ``samples_per_s`` is zero on ``theory``, ``failed_frac`` is zero when all
is well, and the JSON line carries ``attempted`` and ``failed`` instead.
Exit status 2 means the benchmark could not run at all (for example, no
``src/twdpsim`` in the working directory).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_REPS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> dict:
    """Limit BLAS/OpenMP pools to the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= ncpu):
            os.environ[var] = str(ncpu)
    return {"nproc": ncpu, **{v: os.environ[v] for v in THREAD_VARS}}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twdpsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{permille / 10:g} {q[permille - 1]:.6g}"
    return "no tail percentile (needs n >= 20)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setups(args) -> list[float]:
    """Reference-host time of SETUP_REPEATS set-ups, each in a fresh interpreter.

    The child probes the host's speed from just after its first imports and
    reports the probe's own time and scale on its last line of output.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError("set-up failed:\n" + done.stderr.decode(errors="replace"))
        probe = json.loads(done.stdout.decode().splitlines()[-1])
        times.append((wall - probe["spent_s"]) * probe["scale"])
    return times


def set_up(workload, seed: int, workdir: Path):
    """Build the workload's inputs, then warm up on its tiny size."""
    inputs = workload.prepare(seed, workload.sizes, workdir)
    warm = workload.prepare(seed, workload.tiny, workdir / "warm-up")
    workload.reset(warm)
    workload.run(warm)
    workload.reset(warm)
    return inputs


def measure(workload, inputs, seconds: float, patch=None) -> list[dict]:
    """Repeat the workload for ``seconds``, checking every repetition.

    With ``patch``, odd repetitions run traced; the others run under the
    host-speed probe.  Returns one record per repetition: mode, start, end,
    wall time without the probe, the probe's scale to reference-host time
    (untraced only) and the failed operations.  An exception from the
    program ends the run without a result.
    """
    import hostspeed

    reps = []
    first_prints = None
    n_ops = workload.operations(inputs)
    began = time.perf_counter()
    while True:
        traced = patch is not None and len(reps) % 2 == 1
        workload.reset(inputs)
        probe = None if traced else hostspeed.HostSpeedProbe(workload.probe_kernel)
        with patch if traced else probe:
            t0 = time.perf_counter()
            out = workload.run(inputs)
            t1 = time.perf_counter()
        wall = t1 - t0 - (probe.spent_between(t0, t1) if probe else 0.0)
        failed = workload.check(inputs, out)
        prints = workload.fingerprint(out)
        del out
        if first_prints is None:
            first_prints = prints
        for label, digest in prints.items():
            if label not in failed and first_prints.get(label) != digest:
                failed[label] = "differs from the first repetition of this seed"
        reps.append(
            {
                "traced": traced,
                "start": t0,
                "end": t1,
                "wall": wall,
                "scale": probe.scale() if probe else None,
                "failed": failed,
                "n_failed": min(len(failed), n_ops),
            }
        )
        elapsed = time.perf_counter() - began
        typical = statistics.median(r["wall"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            workload.reset(inputs)
            return reps


def layer_report(workload, reps, recorder, setup_window, untraced_wall) -> dict:
    """Print and return the per-layer metrics of the traced repetitions."""
    import spans

    traced = [r for r in reps if r["traced"]]
    per_rep = [
        spans.rep_layer_metrics(recorder.spans, recorder.between(r["start"], r["end"]))
        for r in traced
    ]
    layer = {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
    during_setup = spans.rep_layer_metrics(recorder.spans, recorder.between(*setup_window))
    layer["params.validate_s"] = during_setup["params.validate_s"]
    traced_wall = statistics.median(r["wall"] for r in traced)
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{workload.name}.jsonl"
    recorder.dump(span_file)
    print(f"per-layer metrics, median of {len(traced)} traced repetitions "
          f"(params.validate_s: during set-up); {len(recorder.spans)} spans "
          f"in {span_file.relative_to(ROOT)}")
    metrics = {}
    for name, unit, _ in spans.LAYER_METRICS:
        value = layer[name]
        metrics[name] = {"value": value, "unit": unit}
        share = f"  {value / traced_wall:6.1%} of traced wall" if unit == "s" else ""
        print(f"  {name:28s} {value:>16.6g} {unit:6s}{share}")
    return metrics


def end_to_end_report(reps, setups, peak_rss_mb, samples, failed, attempted) -> dict:
    """Print all five end-to-end metrics; return those of the JSON line."""
    plain = [r["wall"] for r in reps]
    ref = [r["wall"] * r["scale"] for r in reps]
    wall = statistics.median(plain)
    wall_ref = statistics.median(ref)
    setup = statistics.median(setups)
    rate = (f"{samples / wall:.6g}", f"base: {samples} nominal complex samples "
            "synthesized per repetition, computed from scenario sizes")
    if not (samples and wall > 0):
        rate = ("n/a", "no synthesis in this workload")
    rows = [
        ("wall_s", f"{wall:.6g}", "s", f"median of n={len(plain)}; "
         f"min {min(plain):.6g}, max {max(plain):.6g}; {tail_percentile(plain)}"),
        ("wall_ref_s", f"{wall_ref:.6g}", "s", f"same repetitions in reference-host "
         f"seconds; min {min(ref):.6g}, max {max(ref):.6g}; {tail_percentile(ref)}; "
         f"median scale {statistics.median(r['scale'] for r in reps):.4g}"),
        ("samples_per_s", rate[0], "1/s", rate[1]),
        ("peak_rss_mb", f"{peak_rss_mb:.6g}", "MB", "ru_maxrss of this process"),
        ("setup_s", f"{setup:.6g}", "s", f"median of n={len(setups)} set-ups in "
         f"fresh interpreters, reference-host seconds; min {min(setups):.6g}, "
         f"max {max(setups):.6g}"),
        ("failed_frac", f"{failed / attempted:.6g}", "1",
         f"{failed} failed of {attempted} attempted operations"),
    ]
    print("end-to-end metrics:")
    for name, value, unit, note in rows:
        print(f"  {name:14s} {value:>14s} {unit:4s} {note}")
    return {
        "wall_ref_s": {"value": wall_ref, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup, "unit": "s"},
    }


def set_up_only(args) -> int:
    """One set-up of the workload, as timed by ``time_setups``."""
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / workload.name / f"setup-{os.getpid()}"
    set_up(workload, args.seed, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twdpsim" / "__init__.py").is_file():
        print(f"error: no src/twdpsim under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    caps = cap_threads()
    import hostspeed  # imports numpy, after the thread caps

    if args.setup_only:
        with hostspeed.HostSpeedProbe() as probe:
            status = set_up_only(args)
        print(json.dumps({"spent_s": sum(dt for _, dt in probe.samples),
                          "scale": probe.scale()}))
        return status
    sys.path.insert(0, str(SRC))
    import spans
    import workloads  # imports twdpsim from src/

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / workload.name

    setups = [] if args.trace else time_setups(args)
    patch = recorder = None
    if args.trace:
        import twdpsim
        from twdpsim import cli, estimators, fileio, harness, params, sos, theory

        recorder = spans.SpanRecorder()
        patch = spans.Patch(
            recorder, twdpsim,
            [params, sos, theory, estimators, harness, fileio, cli],
            spans.trace_targets(estimators),
        )
    setup_start = time.perf_counter()
    with patch or contextlib.nullcontext():
        inputs = set_up(workload, args.seed, workdir)
    setup_end = time.perf_counter()

    reps = measure(workload, inputs, args.seconds, patch)
    shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    n_ops = workload.operations(inputs)
    attempted = n_ops * len(reps)
    failed = sum(r["n_failed"] for r in reps)
    plain = [r["wall"] for r in reps if not r["traced"]]
    samples = workload.samples(inputs)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes,
        "operations_per_repetition": n_ops,
        "nominal_samples_per_repetition": samples,
        "why": workload.why,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": caps,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }
    print(f"perfbench {workload.name}: seed {args.seed}, {len(reps)} repetitions "
          f"({len(plain)} untraced), trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("repetitions (s, t = traced): " + " ".join(
        f"{r['wall']:.4f}{'t' if r['traced'] else ''}" for r in reps))

    if args.trace:
        metrics = layer_report(
            workload, reps, recorder, (setup_start, setup_end), statistics.median(plain)
        )
    else:
        metrics = end_to_end_report(reps, setups, peak_rss_mb, samples, failed, attempted)
    for i, r in enumerate(reps):
        for label, why in sorted(r["failed"].items()):
            print(f"FAILED rep {i} {label}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

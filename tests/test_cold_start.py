"""Cold start: the simulator alone loads numpy, not scipy.

Each test runs in a fresh interpreter, since this process has long since
imported scipy.special and scipy.fft.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from twdpsim import estimators, theory
from twdpsim.params import from_k_gamma, make_scenario, validate_scenario
from twdpsim.sos import generate_ensemble
from twdpsim.theory import LagGrid

ROOT = Path(__file__).resolve().parents[1]


def first_touches() -> dict:
    """One call of each of a reference CDF, a Bessel ACF and an estimator."""
    p = from_k_gamma(10.0, 0.5)
    grid = LagGrid.from_sample_lags(101, 1e-4, 100.0)
    scn = validate_scenario(make_scenario(k=10.0, gamma=0.5, n_trials=3, n_samples=301, seed=5))
    lags = LagGrid.from_sample_lags(31, scn.sample_period_s, scn.doppler_hz)
    means = estimators.correlation_means(generate_ensemble(scn), ("rxx", "rsq"), lags)
    return {
        "cdf": theory.envelope_cdf_reference(p, np.linspace(0.0, 3.0, 101)),
        "acf": theory.ref_acf_quadrature(p, (600.0, -300.0), 100.0, grid).values,
        **{f"means-{kind}": values for kind, values in means.items()},
    }


def _run(code: str, *args, cwd) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


COLD = """
import contextlib, io, sys
from pathlib import Path
import numpy as np
import twdpsim
from twdpsim.cli import cli_dispatch
from twdpsim.fileio import read_trace

def loaded():
    return [name for name in ("scipy.special", "scipy.fft") if name in sys.modules]

cfg, out, npz = sys.argv[1:]
print("import", loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = cli_dispatch(["gen", "--config", cfg, "--out", out])
print("gen", status, loaded())
trace = read_trace(sorted(Path(out).iterdir())[1])
print("read", trace.trial_index, loaded())
with contextlib.redirect_stdout(io.StringIO()):
    status = cli_dispatch(["--help"])
print("help", status, loaded())
from test_cold_start import first_touches
np.savez(npz, **first_touches())
print("touched", loaded())
"""


def test_gen_read_and_help_load_no_scipy_and_first_touches_match(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("k = 10\ngamma = 0.5\nn_trials = 3\nn_samples = 101\nseed = 7\n")
    lines = _run(COLD, cfg, tmp_path / "gen-out", tmp_path / "first.npz", cwd=tmp_path)
    assert lines.splitlines() == [
        "import []",
        "gen 0 []",
        "read 1 []",
        "help 0 []",
        "touched ['scipy.special', 'scipy.fft']",
    ]
    # The deferred imports change no value: the first calls in a cold
    # interpreter give the bytes this process gives with scipy long loaded.
    cold = np.load(tmp_path / "first.npz")
    warm = first_touches()
    assert sorted(cold.files) == sorted(warm)
    for name, values in warm.items():
        assert cold[name].tobytes() == values.tobytes(), name


RACE = """
import sys, threading
from twdpsim.theory import _Deferred

for name, attr in (("scipy.special", "j1"), ("scipy.fft", "irfft")):
    assert name not in sys.modules
    deferred = _Deferred(name)
    start = threading.Barrier(2)
    got = []

    def touch():
        start.wait()
        got.append(getattr(deferred, attr))

    threads = [threading.Thread(target=touch) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    real = getattr(sys.modules[name], attr)
    print(name, len(got), all(value is real for value in got), deferred.__dict__[attr] is real)
"""


def test_two_threads_on_a_fresh_deferred_get_the_real_attribute(tmp_path):
    assert _run(RACE, cwd=tmp_path).splitlines() == [
        "scipy.special 2 True True",
        "scipy.fft 2 True True",
    ]


def test_private_names_import_nothing(tmp_path):
    code = (
        "import copy, sys\n"
        "from twdpsim.theory import _Deferred\n"
        "d = _Deferred('scipy.special')\n"
        "print(hasattr(d, '__wrapped__'), type(copy.copy(d)).__name__, 'scipy.special' in sys.modules)\n"
    )
    assert _run(code, cwd=tmp_path).split() == ["False", "_Deferred", "False"]

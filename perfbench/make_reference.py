"""Regenerate ``theory_reference.npz``, the stored closed-form values that the
``theory`` workload is checked against.

    python3 perfbench/make_reference.py      (from the root of a checkout)

Run it only when a change to twdpsim.theory is meant to change its values,
and say so in the change.  Correlation curves are stored on every
``REFERENCE_STRIDE``-th lag of the full grid; pdf and cdf values on every bin.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.THEORY
    inputs = wl.prepare(0, wl.sizes, Path.cwd())
    out = wl.run(inputs)
    stored = {"n_lags": np.array(wl.sizes["n_lags"])}
    for label, values in out.items():
        values = np.asarray(values)
        if "envelope_" not in label:
            values = values[..., :: workloads.REFERENCE_STRIDE]
        stored[label] = values
    np.savez_compressed(workloads.THEORY_REFERENCE, **stored)
    print(f"wrote {len(out)} series to {workloads.THEORY_REFERENCE}")


if __name__ == "__main__":
    main()

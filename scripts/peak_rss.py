"""Run a command; report its wall time and peak RSS, and enforce a ceiling.

    python3 scripts/peak_rss.py --max-mb 200 -- twdpsim validate --seed 3

The peak is ``ru_maxrss`` of the waited-for children (kilobytes on Linux),
so it covers the command and anything it waited for.  Exit status: 1 when
its peak passes ``--max-mb``, whatever the command's own status, else the
command's own, so that a command refused on too large an input is still held
to the ceiling.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True, help="peak RSS ceiling")
    parser.add_argument("command", nargs="+", help="the command, after --")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    status = subprocess.run(args.command).returncode
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"wall {wall:.2f} s, peak RSS {peak_mb:.1f} MB (ceiling {args.max_mb:g} MB)",
        file=sys.stderr,
    )
    if peak_mb > args.max_mb:
        print(
            f"peak RSS {peak_mb:.1f} MB is over the {args.max_mb:g} MB ceiling",
            file=sys.stderr,
        )
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

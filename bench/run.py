"""brakeopt benchmark: three CLI workloads timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every command runs in this process through
``brakeopt.cli.main`` with the shipped config, on one thread, except the
set-up and peak-memory probes, which need a fresh interpreter each.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics of
``bench_trace``.  Every command run is followed by a correctness check.
Human-readable lines (machine, artifact hashes, every metric with its
unit) come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in every probe

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_package():
    """Import brakeopt from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "brakeopt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no brakeopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import brakeopt
    if Path(brakeopt.__file__).resolve().parent != (SRC / "brakeopt").resolve():
        raise SystemExit(f"bench: imported brakeopt from {brakeopt.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH))
    import bench_harness
    if args.workload not in bench_harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench_harness.WORKLOADS)}")
    out = BENCH.parent / ".bench_run" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    result = bench_harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

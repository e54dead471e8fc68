"""Fresh-interpreter probes for the benchmark.

    python3 bench_probe.py SRC setup
        print the time taken to import brakeopt, load the shipped config,
        fit the input model and build the model setup, as wall seconds and
        reference seconds (see bench_clock)
    python3 bench_probe.py SRC cli ARGS...
        run ``brakeopt ARGS...`` once, then print the process's peak resident
        set size in KiB; exits with the command's exit code

SRC is the directory holding the ``brakeopt`` package to import.
"""

import contextlib
import os
import sys

import bench_clock


def main(argv) -> int:
    src, mode, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    if mode == "setup":
        with bench_clock.SpeedClock() as clock:
            from brakeopt import config
            cfg = config.default_config()
            config.input_model_from(cfg)
            config.setup_from(cfg)
        print(repr(clock.wall), repr(clock.seconds))
        return 0
    if mode == "cli":
        import resource

        from brakeopt import cli
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            code = cli.main(rest)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return code
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

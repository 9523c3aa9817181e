"""Child-process entry points of the benchmark.

Run from the root of a checkout as ``python3 perfbench/child.py MODE``:

``noop``
    import the program's entry modules and exit (cold start-up cost);
``report --scale N --store DIR --out FILE``
    one ``repro report`` run, exactly as the CLI runs it;
``serve --scale N --store DIR ...``
    one ``repro serve --backend process`` server until SIGTERM.

``--probe-dir DIR`` installs the layer probes first and writes this
process's probe state to DIR when the command returns (pool workers
write theirs as they go); ``--trace PATH`` also turns on the program's
own span trace; ``--profile LAYER`` dumps cProfile stats for one layer.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.dirname(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("noop", "report", "serve"))
    parser.add_argument("--scale")
    parser.add_argument("--store", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers")
    parser.add_argument("--partitions")
    parser.add_argument("--hot-capacity")
    parser.add_argument("--probe-dir", default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)

    probe = None
    if args.probe_dir:
        from perfbench.probes import Probe
        probe = Probe(args.probe_dir, args.profile)
    start = time.perf_counter()
    import repro.cli
    import repro.harness  # noqa: F401 - part of the cold import cost
    import repro.jobs  # noqa: F401
    if args.mode == "noop":
        os.makedirs(args.store, exist_ok=True)
        return 0
    if probe is not None:
        probe.record("startup", time.perf_counter() - start)
        probe.install()
        # The benchmark asks a running server for a snapshot.
        signal.signal(signal.SIGUSR1, lambda _sig, _frame: probe.dump())
    if args.mode == "report":
        command = ["report", "--scale", args.scale, "--jobs", "1",
                   "--cache-dir", args.store, "--out", args.out]
    else:
        command = ["serve", "--backend", "process", "--port", "0",
                   "--scale", args.scale, "--workers", args.workers,
                   "--partitions", args.partitions,
                   "--hot-capacity", args.hot_capacity,
                   "--cache-dir", args.store]
    if args.trace:
        command += ["--trace", args.trace]
    try:
        return repro.cli.main(command)
    finally:
        if probe is not None:
            probe.dump()


if __name__ == "__main__":
    sys.exit(main())

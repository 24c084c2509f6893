"""Set-up probe: runs one wsnsim CLI invocation in a fresh interpreter and
prints ``time.monotonic()`` at the moment the first round would start, then
the mean time of the benchmark's reference kernel right afterwards, and
exits without simulating.

Usage: python3 first_round.py <src-dir> <wsnsim cli argv...>

The parent reads ``time.monotonic()`` just before it starts this process;
on Linux both read the system-wide CLOCK_MONOTONIC, so the difference is the
set-up time: interpreter start, numpy and wsnsim imports, argument parsing
and node deployment. The reference time tells the parent how fast the host
ran meanwhile.
"""

import os
import sys
import time

REF_SAMPLES = 20

src, *argv = sys.argv[1:]
sys.path.insert(0, src)

import wsnsim.cli  # noqa: E402
import wsnsim.engine  # noqa: E402


def first_round(*args, **kwargs):
    ready = time.monotonic()
    from run import reference_kernel

    refs = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference_kernel()
        refs.append(time.perf_counter() - start)
    print(repr(ready), repr(sum(refs) / len(refs)), flush=True)
    os._exit(0)


wsnsim.engine.run_round = first_round
wsnsim.cli.main(argv)
sys.exit("wsnsim finished without calling engine.run_round")

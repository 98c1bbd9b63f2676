"""Machine-speed probe, run as a helper process of ``run.py``.

The CPU speed of a shared virtual machine drifts by tens of percent from
one minute to the next, and CPU time rises with wall time: neighbours
contend for caches and memory.  ``run.py`` therefore interleaves its timed
calls with a fixed chunk of work done here and scales the CPU time of every
timing to the speed at which that chunk takes ``REFERENCE_S``.

The chunk has two halves, each a pure-Python loop: random reads over a
200,000-record list (about 50 MB), whose cost is set by cache and memory
latency, and integer arithmetic, whose cost is set by the core alone.
Neighbours slow the two by different amounts, and the CLI sits between
them.  Of the chunks tried (each half alone, a dict-and-float loop, float
maths with object building, a JSON round trip, and this sum), this one
followed the CLI's CPU time most closely on both CPU-bound workloads.  It
runs in its own process so that its memory stays out of the benchmark
process's peak RSS.

Protocol: each line read from stdin runs one chunk; its time in seconds is
written back as one line.  End of input ends the process.
"""

from __future__ import annotations

import random
import sys
import time

#: A machine of the reference speed runs one chunk in this long.
REFERENCE_S = 3e-3
RECORDS = 200_000
READS = 2_500
ADDS = 15_000


def main() -> None:
    rng = random.Random(0)
    records = [{"a": rng.random(), "b": i} for i in range(RECORDS)]
    order = list(range(RECORDS))
    rng.shuffle(order)

    def chunk(offset: int) -> float:
        total = 0.0
        for i in order[offset:offset + READS]:
            record = records[i]
            total += record["a"] * record["b"]
        count = 0
        for i in range(ADDS):
            count += i * i % 7
        return total + count

    # Successive chunks read disjoint records, so each finds its records
    # outside the core's own caches whatever ran before it.
    offsets = range(0, RECORDS - READS + 1, READS)
    for n, _ in enumerate(sys.stdin):
        start = time.perf_counter()
        chunk(offsets[n % len(offsets)])
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

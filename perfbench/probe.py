"""Host-speed probes: how fast each measured CPU runs right now.

The benchmark's timings are taken on shared virtual machines whose CPUs
run the same code at speeds that wander by up to a factor of two, from
one second to the next and over minutes, with no steal time to show
for it.  A probe is a small process pinned to one CPU.  Every
``PERIOD_S`` it wakes, times one fixed piece of pure-Python work
(:func:`kernel`, about 2 ms) and appends the time to a file.  Because
it shares the CPU with the measured child, it sees the same slowdowns
at the same moments.

:meth:`Probes.speed` turns the samples inside a time window into a
speed relative to ``REFERENCE_S``.  Multiplying a measured time by
:func:`time_factor` of that speed estimates the time the same work
would have taken on a CPU that runs the kernel in exactly
``REFERENCE_S``.  The harness reports timings so scaled (see NOTES.md).

Usage (the harness starts probes itself)::

    python3 perfbench/probe.py --cpu 0 --out samples.bin
"""

from __future__ import annotations

import argparse
import bisect
import os
import signal
import struct
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Seconds between the starts of two samples.
PERIOD_S = 0.05
#: Kernel loop iterations per sample.
ITERATIONS = 3000
#: Kernel time of speed 1.0: the median kernel time on the 2-core
#: Xeon (KVM, 2.1 GHz) host the benchmark was tuned on.
REFERENCE_S = 0.00225
#: How strongly the pipeline's time follows the probe's speed.  The
#: kernel is L1-resident and slows with the host one for one; the
#: pipeline touches more memory and slows less.  Least-squares slopes of
#: log pipeline time on log probe speed, over 14 and 6 cold table5
#: pipelines pinned next to a probe, were 0.61 and 0.59.
ELASTICITY = 0.6
#: One sample: monotonic time at the kernel's midpoint, kernel seconds.
RECORD = struct.Struct("dd")


def kernel() -> float:
    """Time one fixed piece of interpreter work: dict, list, int, str."""
    table: Dict[int, int] = {}
    values = list(range(4096))
    acc = 0x9E3779B9
    start = time.perf_counter()
    for i in range(ITERATIONS):
        table[(i * 7) & 4095] = acc
        acc = (acc * 31 + values[(acc >> 3) & 4095]) & 0xFFFFFFFF
        acc ^= len(str(acc))
    return time.perf_counter() - start


def time_factor(speed: float) -> float:
    """What to multiply a time taken at probe ``speed`` by."""
    return speed ** ELASTICITY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    parent = os.getppid()
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    kernel()   # warm the interpreter's caches; not recorded
    while os.getppid() == parent:   # outlive no harness
        before = time.monotonic()
        seconds = kernel()
        os.write(fd, RECORD.pack(before + seconds / 2, seconds))
        time.sleep(max(0.0, PERIOD_S - seconds))
    return 0


def read_samples(path: str) -> List[Tuple[float, float]]:
    """Every complete (time, kernel seconds) record in ``path``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:   # the probe has not started yet
        return []
    usable = len(data) - len(data) % RECORD.size
    return list(RECORD.iter_unpack(data[:usable]))


class Probes:
    """One probe process per CPU; stopped by :meth:`close`."""

    def __init__(self, cpus: Sequence[int], directory: str):
        self.paths = {cpu: os.path.join(directory, f"probe{cpu}.bin")
                      for cpu in cpus}
        self.procs: List[subprocess.Popen] = []
        try:
            for cpu, path in self.paths.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__),
                     "--cpu", str(cpu), "--out", path],
                    stdin=subprocess.DEVNULL))
        except BaseException:
            self.close()
            raise

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the probed CPUs over ``[start, end]``."""
        return self.speeds([(start, end)])[0]

    def speeds(self, windows: Sequence[Tuple[float, float]]
               ) -> List[float]:
        """:meth:`speed` of each window, from one read of the samples.

        A window shorter than a probe period may hold no sample; it is
        widened, a period at a time, until it holds one per CPU.
        """
        cpus = []   # per CPU: sample times, prefix sums of speeds
        for path in self.paths.values():
            samples = read_samples(path)
            prefix = [0.0]
            for _, seconds in samples:
                prefix.append(prefix[-1] + REFERENCE_S / seconds)
            cpus.append(([when for when, _ in samples], prefix))
        result = []
        for start, end in windows:
            pad = 0.0
            while True:
                count, total = 0, 0.0
                for times, prefix in cpus:
                    lo = bisect.bisect_left(times, start - pad)
                    hi = bisect.bisect_right(times, end + pad)
                    count += hi - lo
                    total += prefix[hi] - prefix[lo]
                if count >= len(cpus) or pad > 10 * PERIOD_S:
                    break
                pad += PERIOD_S
            if not count:
                raise RuntimeError(f"no probe sample near [{start:.3f}, "
                                   f"{end:.3f}]")
            result.append(total / count)
        return result

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        for proc in self.procs:
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

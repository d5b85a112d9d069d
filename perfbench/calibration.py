"""CPU-speed calibration for the untraced runs (stdlib only).

On a shared virtual machine the speed of a CPU drifts between states that
last seconds to minutes: on the 2-vCPU KVM guest the baseline was measured
on, one fixed pure-Python loop took anywhere from 21 ms to 46 ms, and the
same sweep from 39 ms to 79 ms.  Wall times of whole runs then spread by
20-35 %, wider than any useful regression bound.

So an untraced run pins itself and every process it starts to one CPU, and
times ``calibration_s`` between consecutive ops on that CPU.  Each op's
latency is reported scaled to a CPU on which the loop takes ``CAL_REF_S``:
``t * CAL_REF_S / c``, with ``c`` the mean of the calibrations just before
and just after it.  The program cannot change the loop, so a change that
makes an op slower still shows in full; the output also prints the raw wall
times.  ``setup_s`` stays raw wall time: process start-up did not follow the
loop.  Traced runs are neither pinned nor scaled.
"""

from __future__ import annotations

import math
import os
import time

CAL_LOOPS = 30_000
CAL_REF_S = 0.006  # about the loop's time on the baseline host when it runs fast


def calibration_s() -> float:
    """Wall time of a fixed loop of Python calls, float and math work."""
    sqrt, atan2 = math.sqrt, math.atan2

    def f(x: float) -> float:
        return sqrt(x * x + 1.0) + atan2(1.0, x + 1.0)

    start = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += f(i * 0.5)
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` as it would read on the reference CPU."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def pin_to_one_cpu() -> None:
    """Restrict this process, and all it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

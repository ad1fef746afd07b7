"""Reference kernel that tracks the speed of the machine during a run.

The benchmark is meant for small shared hosts, where the processor's speed
for one Python process drifts by a factor of up to 1.8 over tens of seconds
(measured on a 2-vCPU x86 guest by timing the same requests over and over).
Request times from two runs minutes apart then differ more by that drift than
by any change to the program.  The request loop therefore times this kernel
between requests and scales each request time by `NOMINAL_S / mean kernel
time` of the samples taken near it (`scaled`).  The kernel lives in the
benchmark, so a change to snicheck never changes its speed.

The kernel is a depth-first search over small register states: state
records copied with one register changed, tuple keys, a visited set and a
stack, which is the kind of work snicheck's searches do.  It runs once
untimed and then once timed, so that its time does not depend on how much
of the cache the request before it used: a kernel that read a table of a few
MiB cold tracked the drift as well, but its time would have moved with the
program's own memory footprint.  Timed between the same requests on the
tuning box, the log of the warm kernel's time followed the log of the
request time with a slope of 0.87-0.95 and a correlation of 0.92-0.95 on
all three workloads.
"""

from __future__ import annotations

import bisect
import itertools
import time

# Kernel time on the 2-vCPU x86 box the benchmark was tuned on, in its faster
# spells.  Scaled times read as seconds at that speed.  Changing this constant
# rescales every timing metric; never change it between two measurements that
# are compared.
NOMINAL_S = 0.0005

# The loop samples the kernel once for every SAMPLE_EVERY_S spent in requests,
# between requests, so the samples are spread evenly over the request time.
# A request is scaled by the samples taken within WINDOW_S of request time
# before or after it: the drift has spells of seconds, so one scale for a
# whole run would leave the requests of its slow spells slow and widen the
# spread of its percentiles.
SAMPLE_EVERY_S = 0.05
WINDOW_S = 1.0


class _State:
    __slots__ = ("regs", "mem", "pc")

    def __init__(self, regs: dict, mem: tuple, pc: int):
        self.regs, self.mem, self.pc = regs, mem, pc

    def with_reg(self, reg: str, value: int) -> "_State":
        regs = dict(self.regs)
        regs[reg] = value
        return _State(regs, self.mem, (self.pc + 1) % 10)

    def key(self) -> tuple:
        return tuple(sorted(self.regs.items())), self.mem, self.pc


def kernel() -> int:
    """Fixed work: a depth-first search over the states of two 2-bit
    registers (of four) and a program counter; returns the number of states
    visited."""
    seen: set = set()
    stack = [_State({f"r{i}": 0 for i in range(4)}, (0, 0, 0), 0)]
    step = 0
    while stack:
        state = stack.pop()
        key = state.key()
        if key in seen:
            continue
        seen.add(key)
        for reg in ("r0", "r1"):
            step += 1
            stack.append(state.with_reg(reg, (state.regs[reg] + step % 3) & 3))
    return len(seen)


def sample() -> float:
    """Seconds one warm kernel call takes now."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(times: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """Request times, of requests run back to back, at the reference speed.

    `samples` are (request time before the sample, kernel seconds), in the
    order taken; a sample precedes the first request.
    """
    at = [pos for pos, _ in samples]
    total = list(itertools.accumulate((s for _, s in samples), initial=0.0))
    out, clock = [], 0.0
    for t in times:
        lo = bisect.bisect_left(at, clock - WINDOW_S)
        hi = bisect.bisect_right(at, clock + t + WINDOW_S)
        out.append(t * NOMINAL_S * (hi - lo) / (total[hi] - total[lo]))
        clock += t
    return out

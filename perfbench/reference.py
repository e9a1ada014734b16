"""A fixed reference computation that measures the machine's speed now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, over seconds and over minutes, in CPU time as much as in
wall time, so a raw time says as much about the neighbours as about the
program.  The timed work is therefore cut into pieces with a short pass of
:func:`reference_s` between each two, and every piece's time is reported
at the reference speed: multiplied by ``REFERENCE_S`` over the mean of the
two passes around it (:class:`Pacer`).  A program change leaves this
computation alone (it uses nothing from ``src/``), so a faster program
still reads faster; a slow spell on the host slows both alike and cancels.

The mix follows the program's own profile: interpreter arithmetic,
attribute access and method calls on small objects, and a tuple heap (the
event scheduler's shape).  It allocates little, so it does not move the
peak RSS the benchmark reports.

Only the standard library is imported, so a child process can measure
the speed before the program's imports start its set-up clock.
"""

import gc
import heapq
import os
import subprocess
import sys
import time
from typing import Callable, List, NamedTuple, Optional

#: Seconds of one :func:`reference_s` pass at the reference speed: about
#: what a pass took on the 2-vCPU recording machine in a quiet spell.
#: Changing it rescales every reported time, so it stays fixed.
REFERENCE_S = 0.1


class Piece(NamedTuple):
    """One piece of timed work: raw wall seconds, and wall and CPU seconds
    at the reference speed."""

    raw: float
    wall: float
    cpu: float


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: float) -> float:
        return self.a * x + self.b


def _arith(n: int = 285_000) -> int:
    s = 0
    for i in range(n):
        s = ((i * 31) ^ (s >> 3)) & 0xFFFFFF
    return s


def _objects(n: int = 190_000) -> float:
    nodes = [_Node(i, i + 1) for i in range(256)]
    t = 0.0
    for i in range(n):
        t = nodes[i & 255].step(t) * 1e-9
    return t


def _heap(n: int = 38_000) -> int:
    heap: list = []
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    return total


def reference_s() -> float:
    """Wall seconds of one pass over the fixed reference mix.

    The garbage collector is off for the pass, so the size of the
    program's live heap does not change what the pass costs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arith()
        _objects()
        _heap()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(samples: list) -> float:
    """Factor that scales a time measured between ``samples`` to the
    reference speed: below 1 while the machine runs slow."""
    return REFERENCE_S / (sum(samples) / len(samples))


def serve(cpu: Optional[int]) -> None:
    """Helper loop: run a pass for each ``pass`` line on standard input and
    print its time, until any other line or end of input."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        print(reference_s(), flush=True)


class Pacer:
    """Cuts timed work into pieces with a reference pass between each two.

    ``split()`` closes the piece running since the last split, runs a
    reference pass and opens the next piece; ``take()`` returns the pieces
    closed since the last take.  The passes themselves are not counted.

    Work that keeps ``width`` worker processes busy runs on as many CPUs,
    and the host slows each CPU on its own, so with ``width`` above 1 a
    pass is ``width`` passes at once in helper processes (this file run as
    a script), one pinned to each CPU, and counts as their mean.
    ``close()`` stops the helpers and waits for them.
    """

    def __init__(self, cpu_s: Callable[[], float], width: int = 1) -> None:
        self._cpu_s = cpu_s
        self._helpers: List[subprocess.Popen] = []
        cpus = sorted(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else []
        try:
            for i in range(width if width > 1 else 0):
                pin = str(cpus[i]) if len(cpus) >= width else "-"
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__, pin], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
            self._last_ref = self._pass()
        except BaseException:
            self.close()
            raise
        self.passes = 1
        self._pieces: List[Piece] = []
        self._open()

    def _pass(self) -> float:
        if not self._helpers:
            return reference_s()
        for proc in self._helpers:
            proc.stdin.write("pass\n")
            proc.stdin.flush()
        times = [float(proc.stdout.readline()) for proc in self._helpers]
        return sum(times) / len(times)

    def _open(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = self._cpu_s()

    def split(self) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = self._cpu_s() - self._cpu0
        ref = self._pass()
        factor = speed([self._last_ref, ref])
        self._last_ref = ref
        self.passes += 1
        self._pieces.append(Piece(wall, wall * factor, cpu * factor))
        self._open()

    def take(self) -> List[Piece]:
        pieces, self._pieces = self._pieces, []
        return pieces

    def close(self) -> None:
        for proc in self._helpers:
            try:
                proc.stdin.write("stop\n")
                proc.stdin.close()
            except OSError:
                pass  # the helper is gone already
        for proc in self._helpers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._helpers = []


if __name__ == "__main__":
    serve(None if sys.argv[1] == "-" else int(sys.argv[1]))

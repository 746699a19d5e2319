"""A fixed reference workload that gauges the machine's current speed.

The 2-core VM this benchmark runs on changes speed by nearly 3x, in
phases that last minutes and with swings of +-30% from one second to
the next (see ``README.md``); the program's wall time follows.  The
kernel below does a fixed amount of work of the same kinds the flow
does -- a topological arrival-time sweep over an object graph, a BDD
built through a dict-backed unique table, and bit-parallel simulation
over Python integers.  It never calls the program, so a change to the
program cannot move it.

The kernel runs in a calibrator process of its own (``python3
calibrate.py --serve``), so its memory never shows in the program's
peak RSS, and it reports the CPU time of each slice, so the pool
processes the program leaves running while a slice is timed do not
inflate it.  :class:`PacedClock` interrupts the measured program every
SAMPLE_EVERY_S seconds, has the calibrator time one slice while the
program waits, and rescales each stretch of program time between two
slices to reference seconds: what it would have taken on a machine
where one slice takes :data:`REF_SLICE_S`.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

#: Nominal CPU time of one kernel slice, seconds: a round figure below
#: the 0.034-0.057 s a slice took on the 2-core Xeon VM the benchmark
#: was defined on, in a slow phase.  Reference seconds are measured
#: seconds scaled by REF_SLICE_S / measured slice time.
REF_SLICE_S = 0.025

#: Program time between two slices.  The machine's speed swings from
#: one second to the next, so slices are short and frequent; they add
#: about REF_SLICE_S / SAMPLE_EVERY_S to a pass.
SAMPLE_EVERY_S = 0.25

#: Wait before retrying a slice while a child process is running.
BUSY_RETRY_S = 0.05

#: Nodes of the arrival-time graph and the fanins of each.
GRAPH_NODES = 2_000
GRAPH_FANIN = 3

#: Variables and gates of the BDD and simulation circuit, and the
#: patterns and rounds of its simulation.
BDD_VARS = 14
CIRCUIT_GATES = 220
SIM_BITS = 16384
SIM_ROUNDS = 12


class _Node:
    __slots__ = ("fanins", "delay", "arrival")

    def __init__(self, fanins, delay):
        self.fanins = fanins
        self.delay = delay
        self.arrival = 0.0


def _arrival_sweep(rng: random.Random) -> float:
    """Longest-path arrival over a random DAG of linked objects."""
    nodes = {}
    for index in range(GRAPH_NODES):
        fanins = [
            nodes[f"n{rng.randrange(index)}"]
            for _ in range(GRAPH_FANIN if index else 0)
        ]
        node = _Node(fanins, 0.5 + rng.random())
        nodes[f"n{index}"] = node
    worst = 0.0
    for _ in range(2):
        for index in range(GRAPH_NODES):
            node = nodes[f"n{index}"]
            arrival = 0.0
            for fanin in node.fanins:
                if fanin.arrival > arrival:
                    arrival = fanin.arrival
            node.arrival = arrival + node.delay
            worst = max(worst, node.arrival)
    return worst


def _circuit(rng: random.Random) -> list[tuple[int, int, int]]:
    """Random (op, a, b) gates over BDD_VARS inputs; op 0/1/2 = and/or/xor."""
    gates = []
    for index in range(CIRCUIT_GATES):
        signals = BDD_VARS + index
        gates.append((rng.randrange(3), rng.randrange(signals),
                      rng.randrange(max(0, signals - 40), signals)))
    return gates


def _bdd_nodes(gates) -> int:
    """Build BDDs of every gate through a unique table; return its size."""
    unique: dict[tuple[int, int, int], int] = {}
    table = [(BDD_VARS, 0, 0), (BDD_VARS, 1, 1)]  # terminals 0 and 1
    computed: dict[tuple[int, int, int], int] = {}

    def make(var, low, high):
        if low == high:
            return low
        key = (var, low, high)
        node = unique.get(key)
        if node is None:
            node = len(table)
            table.append(key)
            unique[key] = node
        return node

    def ite(f, g, h):
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        result = computed.get(key)
        if result is not None:
            return result
        var = min(table[f][0], table[g][0], table[h][0])

        def cofactors(node):
            entry = table[node]
            if entry[0] == var:
                return entry[1], entry[2]
            return node, node

        f0, f1 = cofactors(f)
        g0, g1 = cofactors(g)
        h0, h1 = cofactors(h)
        result = make(var, ite(f0, g0, h0), ite(f1, g1, h1))
        computed[key] = result
        return result

    signals = [make(var, 0, 1) for var in range(BDD_VARS)]
    for op, a, b in gates:
        f, g = signals[a], signals[b]
        if op == 0:
            signals.append(ite(f, g, 0))
        elif op == 1:
            signals.append(ite(f, 1, g))
        else:
            signals.append(ite(f, ite(g, 0, 1), g))
    return len(table)


def _simulate(gates, rng: random.Random) -> int:
    """Bit-parallel simulation of the circuit on SIM_BITS patterns."""
    mask = (1 << SIM_BITS) - 1
    checksum = 0
    for _ in range(SIM_ROUNDS):
        values = [rng.getrandbits(SIM_BITS) for _ in range(BDD_VARS)]
        for op, a, b in gates:
            if op == 0:
                values.append(values[a] & values[b])
            elif op == 1:
                values.append(values[a] | values[b])
            else:
                values.append((values[a] ^ values[b]) & mask)
        checksum ^= values[-1]
    return checksum.bit_count()


def kernel() -> tuple:
    """One slice of fixed work; its result is the same on every call."""
    rng = random.Random(20240)
    gates = _circuit(rng)
    return _arrival_sweep(rng), _bdd_nodes(gates), _simulate(gates, rng)


def slice_s() -> float:
    """CPU time of one kernel slice, in seconds."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def serve() -> None:
    """Calibrator loop: one warm-up slice, then one timed slice per line."""
    kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(slice_s()), flush=True)


class Calibrator:
    """Client of a calibrator process; use as a context manager."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibrator did not start")

    def slice_s(self) -> float:
        """Time one slice in the calibrator while this process waits."""
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _children_running() -> bool:
    """Whether a child of this process (a pool worker) is on a CPU.

    A slice timed then would share the CPUs with the pool, and the
    pool would progress during a slice that is not program time; so
    the clock waits for the pool to go idle.  Linux only; elsewhere
    the answer is always no.
    """
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return False
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                children = handle.read().split()
        except OSError:
            continue
        for child in children:
            try:
                with open(f"/proc/{child}/stat") as handle:
                    state = handle.read().rpartition(")")[2].split()[0]
            except OSError:
                continue
            if state == "R":
                return True
    return False


class PacedClock:
    """Times the program between ``start`` and ``stop``.

    With a calibrator, a one-shot SIGALRM every SAMPLE_EVERY_S of
    program time ends a stretch and times a slice, as soon as no pool
    process is running; a stretch counts
    ``REF_SLICE_S`` / (mean of the slices before and after it) of its
    measured seconds in ``ref_s``.  Slices are not program time.
    Without one (traced runs) the clock only measures wall time.
    """

    def __init__(self, calibrator: Calibrator | None = None):
        self.calibrator = calibrator
        self.wall_s = 0.0
        self.ref_s = None if calibrator is None else 0.0
        self.slices: list[float] = []
        self._running = False

    def start(self) -> None:
        if self.calibrator is not None:
            self.slices.append(self.calibrator.slice_s())
            self._handler = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self._running = True
        self._begin = time.perf_counter()

    def _alarm(self, signum, frame) -> None:
        if not self._running:
            return
        if _children_running():
            signal.setitimer(signal.ITIMER_REAL, BUSY_RETRY_S)
            return
        self._stretch()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def _stretch(self) -> None:
        stretch = time.perf_counter() - self._begin
        self.wall_s += stretch
        if self.calibrator is not None:
            self.slices.append(self.calibrator.slice_s())
            around = (self.slices[-2] + self.slices[-1]) / 2.0
            self.ref_s += stretch * REF_SLICE_S / around
        self._begin = time.perf_counter()

    def stop(self) -> None:
        self._running = False
        if self.calibrator is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._stretch()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        for _ in range(10):
            print(f"{slice_s():.4f} s", flush=True)

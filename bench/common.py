"""Pieces shared by the activities: timed calls into the program, the
ledger of checked operations, and summary statistics."""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable

from oracles import Mismatch


class Ledger:
    """Operations attempted and failed, with failures charged to a layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict = {}
        self.first_failures: list = []

    def record(self, layer: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[layer] = self.errors.get(layer, 0) + 1
            if len(self.first_failures) < 10:
                self.first_failures.append(f"{layer}: {why}")

    def verify(self, layer: str, check, *args) -> bool:
        """Run one oracle check; any exception counts as a failure."""
        try:
            check(*args)
        except Mismatch as exc:
            self.record(layer, False, str(exc))
            return False
        except Exception as exc:  # a crash while checking is a failed operation
            self.record(layer, False, f"{type(exc).__name__}: {exc}")
            return False
        self.record(layer, True)
        return True


def cpu() -> float:
    """CPU seconds, user plus system, of this process.

    Every timing in the benchmark is CPU time, which leaves out the time
    the process waits for a core on a shared machine.  For this CPU-bound,
    single-threaded program the two agree on an idle core.  CPU time still
    moves with the host's speed; see HostSpeed.
    """
    return time.process_time()


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# CPU seconds of one reference loop at the nominal host speed: the median
# the loop took on the 2-vCPU host the benchmark was built on.
REFERENCE_S = 0.0008


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop that never calls the program.

    It does the kind of work the program spends its time on (tuple keys,
    dict updates, float arithmetic), so its time shows the host's speed
    next to an in-process call.  It is short, so that it can run next to
    every call.  The garbage collector is held off while it runs: right
    after a call that allocated much, a collection of the call's garbage
    would otherwise land in the loop and read as a slow host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu()
        table: dict = {}
        for i in range(2_000):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        return cpu() - start
    finally:
        if enabled:
            gc.enable()


# What the reference child process runs: interpreter start-up and the import
# of standard-library packages, the same kind of work that dominates a
# ``scmkit`` process, with no code of the program or of its dependencies.
REFERENCE_IMPORTS = ("import argparse, asyncio, decimal, email.parser, fractions, http.client, "
                     "json, logging, statistics, unittest, xml.dom.minidom")
# CPU seconds of one reference child at the nominal host speed (same host).
REFERENCE_CHILD_S = 0.14


def reference_child(cwd: str, env: dict) -> float:
    """CPU seconds of one fresh interpreter that imports REFERENCE_IMPORTS."""
    start = children_cpu()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], cwd=cwd, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return children_cpu() - start


class HostSpeed:
    """How fast the shared host runs at each measured step.

    The host's speed swings by up to a factor of two in phases of seconds
    to minutes, and the program's CPU time swings with it.  ``mark()``
    times a fixed reference task once, right before or right after a step,
    and returns the sample's index.  ``scale(marks)`` is the factor that
    states a CPU time measured in the step at the nominal host speed:
    nominal / the mean of the step's reference times.  A rate is divided
    by it.
    """

    def __init__(self, reference: Callable[[], float], nominal: float):
        self.reference = reference
        self.nominal = nominal
        self.samples: list = []

    def mark(self) -> int:
        self.samples.append(self.reference())
        return len(self.samples) - 1

    def scale(self, marks: tuple) -> float:
        return self.nominal / statistics.fmean(self.samples[m] for m in marks)


def in_process_host() -> HostSpeed:
    return HostSpeed(reference_loop, REFERENCE_S)


class Meter:
    """Program CPU time of a stretch of calls, at the nominal host speed.

    While a meter is active (``with meter:``), every program call made
    through ``call`` is bracketed by two marks of the meter's host, outside
    the call's span, and its CPU time is added to ``total`` scaled by
    them.  The host's speed can change within a long step of many calls,
    so each call gets its own scale.
    """

    active = None

    def __init__(self, host: HostSpeed):
        self.host = host
        self.total = 0.0

    def __enter__(self):
        Meter.active = self
        return self

    def __exit__(self, *exc):
        Meter.active = None
        return False


def call(tr, name: str, fn, *args, **kwargs):
    """fn(*args) inside a span named after the program function."""
    meter = Meter.active
    if meter is None:
        with tr.span(name):
            return fn(*args, **kwargs)
    before = meter.host.mark()
    start = cpu()
    with tr.span(name):
        out = fn(*args, **kwargs)
    dt = cpu() - start
    meter.total += dt * meter.host.scale((before, meter.host.mark()))
    return out


def timed(tr, name: str, fn, *args, **kwargs):
    """(result, CPU seconds) of one traced call."""
    start = cpu()
    with tr.span(name):
        out = fn(*args, **kwargs)
    return out, cpu() - start


def median(values) -> float:
    return float(statistics.median(values))


def central_mean(values, width: float = 0.2) -> float:
    """Mean of the values between the (1 - width)/2 and (1 + width)/2
    quantiles: a median estimate that does not jump from one cluster to the
    next when the values fall in well-separated clusters."""
    vals = sorted(values)
    lo = int(len(vals) * (1 - width) / 2)
    hi = max(lo + 1, len(vals) - lo)
    return float(statistics.fmean(vals[lo:hi]))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1])."""
    vals = sorted(values)
    if len(vals) == 1:
        return float(vals[0])
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return float(vals[lo] + (vals[hi] - vals[lo]) * (pos - lo))

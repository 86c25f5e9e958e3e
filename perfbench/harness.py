"""One workload in one process: set-up, timed passes, checks, metrics.

Run by run.py as a child process (`python3 perfbench/harness.py --workload
NAME --seed N --seconds S --trace 0|1` from the checkout root). The last line
of standard output is a JSON object with the pass results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MODULES = ("words", "segments", "automata", "envelope", "chainprod", "ferrers", "minmax", "export", "cli")
CLI_COMMANDS = ("envelope", "ferrers", "decompose", "mindfa", "minmax", "count", "verify")


class BudgetExceeded(BaseException):
    """A job ran past its budget. A BaseException, so that no handler in the
    package can swallow it."""


# The host's speed drifts by a quarter over tens of seconds, and all work
# drifts with it. The benchmark samples that speed with a probe that shares
# no code with the package: BURST samples in a row before and after a pass
# and, for an in-process probe, one from a timer signal every SAMPLE_EVERY_S
# during a job, with the sampling time taken out of the job's time. A pass's
# times are multiplied by the probe's reference time over its median sample
# in the pass, which cancels most of the drift. The reference times are the
# probes' median times on the machine the benchmark was written on, so scaled
# times read as seconds there.
SAMPLE_EVERY_S = 1.0
BURST = 5


def calibrate() -> float:
    """A fixed loop of tuple, dict, set and sort operations (about 19 ms)."""
    t0 = perf_counter()
    counts: dict = {}
    for i in range(16000):
        key = (i % 97, i % 89, (i * 7) % 101)
        counts[key] = counts.get(key, 0) + 1
    sorted({key[::-1] for key in counts})
    return perf_counter() - t0


PROBE_COMMAND = [sys.executable, "-c", "import argparse, json, dataclasses, collections, itertools"]


def calibrate_process() -> float:
    """Start a Python process that imports what the CLI needs from the
    standard library (about 75 ms). It tracks the speed of CLI processes,
    which the in-process loop does not."""
    t0 = perf_counter()
    subprocess.run(PROBE_COMMAND, check=True)
    return perf_counter() - t0


IN_PROCESS = (calibrate, 0.019)
CHILD_PROCESS = (calibrate_process, 0.075)


class Speed:
    """Speed samples around a pass and, for an in-process probe, from
    SIGALRM during a job. The same signal enforces the job's budget."""

    def __init__(self, probe=IN_PROCESS):
        self.probe, self.reference_s = probe
        self.samples: list = []
        self.paused = 0.0
        self.deadline = float("inf")

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(self.probe())
        self.paused += perf_counter() - t0

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def _tick(self, signum, frame):
        if perf_counter() > self.deadline:
            raise BudgetExceeded()
        if self.probe is calibrate:
            self.sample()

    def take(self) -> float:
        """The scale factor from the samples since the last take."""
        factor = self.reference_s / statistics.median(self.samples)
        self.samples = []
        return factor

    def run_job(self, job) -> tuple:
        """(seconds, result, error); seconds leave out the sampling."""
        signal.signal(signal.SIGALRM, self._tick)
        period = min(SAMPLE_EVERY_S, job.budget_s)
        paused = self.paused
        t0 = perf_counter()
        self.deadline = t0 + job.budget_s
        try:
            signal.setitimer(signal.ITIMER_REAL, period, period)
            result, error = job.run(), None
        except BudgetExceeded:
            result, error = None, f"over its {job.budget_s:g} s budget"
        except Exception as e:  # the job's failure is the measurement
            result, error = None, f"raised {type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.deadline = float("inf")
            elapsed = perf_counter() - t0 - (self.paused - paused)
        return elapsed, result, error


def fresh_import():
    """Import the package from the checkout as if for the first time."""
    for name in [n for n in sys.modules if n == "higman" or n.startswith("higman.") or n == "oracles"]:
        del sys.modules[name]
    pkg = importlib.import_module("higman")
    mods = {name: importlib.import_module(f"higman.{name}") for name in MODULES}
    return pkg, mods


class Caches:
    """Every module-level lru_cache of the package, found by its cache_clear
    method. Clearing keeps the hit and miss counts, which cache_clear resets."""

    def __init__(self, mods: dict):
        self.found = {}
        for mod in mods.values():
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    owner = value.__module__.rsplit(".", 1)[-1]
                    self.found[f"{owner}.{value.__qualname__}"] = value
        self.counts = {name: (0, 0) for name in self.found}

    def clear(self) -> None:
        for name, c in self.found.items():
            info = c.cache_info()
            hits, misses = self.counts[name]
            self.counts[name] = (hits + info.hits, misses + info.misses)
            c.cache_clear()

    def take(self) -> dict:
        """(hits, misses) per cache since the last take; clears the caches."""
        self.clear()
        counts = self.counts
        self.counts = {name: (0, 0) for name in self.found}
        return counts


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, job_name: str, reason) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job_name}: {reason}")


def check_job(job, result, error):
    if error:
        return error
    try:
        return job.check(result)
    except Exception as e:
        return f"check raised {type(e).__name__}: {e}"


def run_pass(jobs, caches: Caches, speed: Speed, tally: Tally) -> tuple:
    """One pass over the job list with cold caches.

    Returns the raw job times, the pass's scale factor and the cache
    statistics of the pass. Only the calls into the package are timed; the
    checks run outside the timing.
    """
    caches.take()
    speed.samples.clear()
    speed.burst()
    times = {}
    for job in jobs:
        elapsed, result, error = speed.run_job(job)
        times[job.name] = elapsed
        tally.record(job.name, check_job(job, result, error))
    speed.burst()
    return times, speed.take(), caches.take()


def setup(name: str, seed: int, workdir: Path):
    """Import, spec generation and the workload's pre-builds, timed as one."""
    t0 = perf_counter()
    pkg, mods = fresh_import()
    import_s = perf_counter() - t0
    import oracles

    caches = Caches(mods)
    ns = type("Modules", (), dict(mods, pkg=pkg))
    ref = workloads.Reference(ns, oracles)
    ctx = workloads.Context(ns, ref, ROOT, workdir, caches.clear)
    wl = workloads.BUILDERS[name](seed, ctx)
    return perf_counter() - t0, import_s, wl, mods, caches


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(args) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workdir = ROOT / ".perfbench_out" / f"work-{args.workload}-{args.seed}"
    setups, raw_setups, imports = [], [], []
    speed = Speed()
    wl = None
    try:
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.cleanup()
            speed.burst()
            setup_s, import_s, wl, mods, caches = setup(args.workload, args.seed, workdir)
            speed.burst()
            setups.append(setup_s * speed.take())
            raw_setups.append(setup_s)
            imports.append(import_s)
        samples = {"setup_s": setups, "raw_setup_s": raw_setups}
        return (measure_traced if args.trace else measure_plain)(
            args, wl, mods, caches, samples, imports
        )
    finally:
        if wl is not None:
            wl.cleanup()


def _loop(seconds: float, step, min_steps: int) -> None:
    """Call step() at least min_steps times, then while another step of
    median length still fits in the measured time."""
    start = perf_counter()
    lengths = []
    while len(lengths) < min_steps or perf_counter() - start + median(lengths) <= seconds:
        t0 = perf_counter()
        step()
        lengths.append(perf_counter() - t0)


def measure_plain(args, wl, mods, caches, samples, imports) -> dict:
    tally = Tally()
    speed = Speed(CHILD_PROCESS if wl.jobs_are_processes else IN_PROCESS)
    passes, raw_passes, factors, per_job = [], [], [], {}

    def step():
        times, factor, _ = run_pass(wl.jobs, caches, speed, tally)
        passes.append(sum(times.values()) * factor)
        raw_passes.append(sum(times.values()))
        factors.append(factor)
        for name, t in times.items():
            per_job.setdefault(name, []).append(t * factor)

    # two passes even when one pass is longer than the run, so that a
    # median exists
    _loop(args.seconds, step, 2)
    metrics = {
        "pass_s": (median(passes), "s"),
        "largest_job_s": (median(per_job[wl.largest]), "s"),
        "setup_s": (median(samples["setup_s"]), "s"),
    }
    samples.update(
        pass_s=passes, raw_pass_s=raw_passes, scale=factors,
        job_s={name: median(ts) for name, ts in per_job.items()},
    )
    return _result(args, wl, tally, metrics, len(passes), samples)


def measure_traced(args, wl, mods, caches, samples, imports) -> dict:
    """Alternate untraced and traced passes; report the traced layers.
    Layer times are raw seconds; the overhead compares scaled pass times."""
    tally = Tally()
    speed = Speed()
    tracer = tracing.Tracer()
    plain, traced, layer_rows, snaps = [], [], [], []

    def step():
        times, factor, _ = run_pass(wl.traced_jobs, caches, speed, tally)
        plain.append(sum(times.values()) * factor)
        tracer.reset()
        tracer.install(mods)
        try:
            times, factor, info = run_pass(wl.traced_jobs, caches, speed, tally)
        finally:
            tracer.uninstall()
        traced.append(sum(times.values()) * factor)
        snap = tracer.snapshot()
        snaps.append(snap)
        row = tracing.layer_metrics(snap, info)
        # cli-batch job names start with the subcommand
        for cmd in CLI_COMMANDS:
            spent = [t for name, t in times.items() if name.split()[0] == cmd]
            row[f"cli.{cmd}.wall_s"] = median(spent) if args.workload == "cli-batch" else 0.0
        layer_rows.append(row)

    _loop(args.seconds, step, 1)
    metrics = {k: (median([r[k] for r in layer_rows]), _unit(k)) for k in layer_rows[0]}
    metrics["cli.import_s"] = (median(imports), "s")
    metrics["trace.overhead"] = (median(traced) / median(plain), "ratio")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(snaps, indent=1), encoding="utf-8")
    samples.update(plain_pass_s=plain, traced_pass_s=traced,
                   trace_file=str(trace_file.relative_to(ROOT)))
    return _result(args, wl, tally, metrics, len(traced), samples)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_element"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _result(args, wl, tally, metrics, n_passes, samples) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "passes": n_passes,
            "jobs_per_pass": len(wl.jobs),
            "largest_job": wl.largest,
            "failures": tally.failures,
            "samples": samples,
        },
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    print(json.dumps(measure(parse_args())))

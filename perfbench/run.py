#!/usr/bin/env python3
"""orelab benchmark: one closed-loop client runs a workload's campaign.

    python3 perfbench/run.py --workload witness_sweep --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ./src. One
process, one thread, no worker pool.

A campaign is a fixed list of rounds, each round a fixed mix of items that
are all checked exactly. With ``--trace 0`` the run sets up several times
(imports, inputs, bound recursion, algebras, one warm-up round) and reports
the median as ``setup_s``; it then repeats the campaign for ``--seconds``
and reports the campaign time ``wall_s`` (each round's median over the
passes, summed), the p50/p90 latency over every round run and the peak
RSS. Every one of these times is taken at the host's reference speed (see
``refclock.py``): a shared host can run all code twice as slow for seconds
at a time, and raw times would measure that rather than orelab. With
``--trace 1`` it wraps the library's functions, traces the set-up and one
campaign pass, spends the rest of the time on untraced passes to price the
tracing, and reports per-layer metrics.

The report goes to stdout, one ``name = value unit`` line per metric plus
the run's environment and output digest; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results are
appended to ``.bench_out/results.jsonl``; a result whose kernel backend
differs from the previous result of the same workload is flagged, because
the backend alone moves the word numbers by several times.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from refclock import RefClock
from spans import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 7
MIN_PASSES = 4  # with the workloads' campaign sizes, at least 100 rounds
OUT = Path(".bench_out")
MODULES = ("_kernels", "words", "wordgen", "rings", "linalg", "algebra",
           "catalog", "orepoly", "radical", "cli")


class Library:
    """A fresh import of orelab from ./src, by module short name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "orelab" or m.startswith("orelab.")]:
            del sys.modules[name]
        self.package = importlib.import_module("orelab")
        self.modules = {m: importlib.import_module(f"orelab.{m}") for m in MODULES}
        for m, mod in self.modules.items():
            setattr(self, m.lstrip("_"), mod)


def load_library() -> Library:
    src = ROOT / "src"
    if not (src / "orelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no orelab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = Library()
    if Path(lib.package.__file__).resolve().parent != (src / "orelab").resolve():
        raise SystemExit(f"error: imported orelab from {lib.package.__file__}, not {src}")
    return lib


def environment(lib, seed: int) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "kernel_backend": lib.package.kernel_backend,
        "ORELAB_PURE_KERNELS": os.environ.get("ORELAB_PURE_KERNELS", ""),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Outcome:
    """Items attempted and failed, and the digest of each complete pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []

    def run_pass(self, wl, deadline=None, latencies=None, clock=None, raw=None, tracer=None):
        """One pass over the campaign; returns its duration, or None when
        the deadline cut it short. Round latencies go to ``latencies``, at
        the reference speed when a clock is given; the raw ones also go to
        ``raw`` when it is given. With a tracer, each round is a root span;
        the clock's loop runs outside it."""
        h = hashlib.sha256()
        t_pass = perf_counter()
        for r in range(wl.rounds):
            if tracer is not None:
                tracer.round_id = r
                span = tracer.open("bench.round")
            t0 = perf_counter()
            outputs, attempted, failed = wl.run_round(r)
            t1 = perf_counter()
            if tracer is not None:
                tracer.close(span)
            if latencies is not None:
                latencies.append(clock.scale(t1 - t0) if clock else t1 - t0)
            if raw is not None:
                raw.append(t1 - t0)
            self.attempted += attempted
            self.failed += failed
            h.update(repr(outputs).encode())
            if deadline is not None and t1 >= deadline and r + 1 < wl.rounds:
                return None
        duration = perf_counter() - t_pass
        self.digests.append(h.hexdigest())
        return duration

    @property
    def consistent(self) -> bool:
        return len(set(self.digests)) == 1


def measure(workload: str, seed: int, seconds: float, rounds):
    clock = RefClock()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        clock.reopen()
        t0 = perf_counter()
        lib = load_library()
        wl = WORKLOADS[workload](lib, seed, rounds)
        wl.run_round(0)  # warm-up: fills lazy caches such as _base_word's
        raw = perf_counter() - t0
        raw_setups.append(raw)
        setups.append(clock.scale(raw))

    outcome = Outcome()
    latencies: list[float] = []
    raw_latencies: list[float] = []
    passes = 0
    start = perf_counter()
    clock.reopen()
    while True:
        deadline = start + seconds if passes >= MIN_PASSES else None
        done = outcome.run_pass(wl, deadline, latencies, clock=clock, raw=raw_latencies) is None
        passes += not done
        if done or (passes >= MIN_PASSES and perf_counter() - start >= seconds):
            break
    by_round = [latencies[r::wl.rounds] for r in range(wl.rounds)]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "wall_s": (sum(statistics.median(v) for v in by_round), "s"),
        "round_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "round_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"rounds": wl.rounds, "rounds_measured": len(latencies), "passes": passes,
            "host_speed": round(clock.host_speed, 4),
            "raw_wall_s": round(sum(statistics.median(raw_latencies[r::wl.rounds])
                                    for r in range(wl.rounds)), 4),
            "raw_setups_s": [round(s, 4) for s in raw_setups]}
    return lib, wl, outcome, metrics, info


def measure_traced(workload: str, seed: int, seconds: float, rounds):
    lib = load_library()
    tracer = Tracer()
    tracer.install(lib)
    span = tracer.open("bench.setup")
    wl = WORKLOADS[workload](lib, seed, rounds)
    wl.run_round(0)
    tracer.close(span)

    outcome = Outcome()
    start = perf_counter()
    # round latencies at the reference speed, traced and untraced, for the
    # tracing overhead
    clock = RefClock()
    traced: list[float] = []
    outcome.run_pass(wl, latencies=traced, clock=clock, tracer=tracer)
    tracer.round_id = -1
    tracer.uninstall()

    untraced: list[float] = []
    passes = 0
    while not passes or perf_counter() - start < seconds:
        clock.reopen()
        if outcome.run_pass(wl, start + seconds if passes else None, untraced, clock) is None:
            break
        passes += 1
    untraced_s = sum(statistics.median(untraced[r::wl.rounds]) for r in range(wl.rounds))

    summary = tracer.analyse()
    metrics = layer_metrics(summary, tracer)
    metrics["trace.wall_s"] = (summary["root_s"], "s")
    metrics["trace.overhead_frac"] = (sum(traced) / untraced_s - 1, "ratio")
    # every span belongs to one layer, and self times partition the roots
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    closes = abs(layer_sum - summary["root_s"]) <= 1e-6 * max(1.0, summary["root_s"])
    info = {"untraced_passes": passes, "traced_pass_s": round(sum(traced), 4),
            "untraced_pass_s": round(untraced_s, 4),
            "layer_sum_s": round(layer_sum, 6), "layer_sum_matches_wall": closes,
            "unwrapped": tracer.missing}
    return lib, wl, outcome, metrics, info, closes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per campaign pass (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.rounds is not None and args.rounds < 1):
        parser.error("--seconds and --rounds must be positive")

    if args.trace:
        lib, wl, outcome, metrics, info, sums_ok, tracer = measure_traced(
            args.workload, args.seed, args.seconds, args.rounds)
    else:
        lib, wl, outcome, metrics, info = measure(args.workload, args.seed, args.seconds, args.rounds)
        sums_ok = True

    env = environment(lib, args.seed)
    if args.trace:
        tracer.write(OUT / f"trace_{args.workload}",
                     {"workload": args.workload, "env": env, "round -1": "set-up and warm-up round"})
    failed_frac = outcome.failed / outcome.attempted
    correct = outcome.failed == 0 and outcome.consistent and sums_ok
    if args.trace:
        correct = correct and wl.trace_ok(metrics)

    lines = [f"workload = {args.workload}"]
    lines += [f"env.{k} = {v}" for k, v in env.items()]
    lines += [f"run.{k} = {v}" for k, v in info.items()]
    lines += [f"digest = {outcome.digests[0]}",
              f"digest.consistent = {outcome.consistent}",
              f"attempted = {outcome.attempted} count",
              f"failed = {outcome.failed} count",
              f"failed_frac = {failed_frac} ratio"]
    lines += [f"error = {e}" for e in wl.errors]
    lines += [f"{name} = {value} {unit}" for name, (value, unit) in metrics.items()]
    flag = _record(args.workload, args.trace, env, outcome, metrics)
    if flag:
        lines.append(f"warning = {flag}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _record(workload, trace, env, outcome, metrics):
    """Append this result to the results log; say so when the previous
    result of this workload ran on another kernel backend."""
    OUT.mkdir(exist_ok=True)
    log = OUT / "results.jsonl"
    previous = None
    if log.is_file():
        for line in log.read_text().splitlines():
            rec = json.loads(line)
            if rec.get("workload") == workload:
                previous = rec
    rec = {"workload": workload, "trace": trace, "env": env, "digest": outcome.digests[0],
           "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(log, "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    if previous and previous["env"].get("kernel_backend") != env["kernel_backend"]:
        return (f"kernel backend {env['kernel_backend']} differs from the previous "
                f"{workload} result ({previous['env'].get('kernel_backend')}); "
                "word-layer numbers are not comparable across backends")
    return None


if __name__ == "__main__":
    sys.exit(main())

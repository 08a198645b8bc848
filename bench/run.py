"""ultracon benchmark: one seeded workload, timed end to end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload thm2-corpus --seed 1 --seconds 20 --trace 0

Workloads: thm2-corpus, thm1-corpus, big-product, con-lattice (see
workloads.py).  The package is imported from ./src, never from an
installed copy.  The loop runs ops until --seconds have passed and at
least the workload's minimum op count is done.  Every op's output is
checked; a sha256 digest over the reports of the first minimum-count ops
is printed and repeats for equal seeds.

--trace 0 prints the end-to-end metrics: setup_s (median of five fresh
set-up processes, each timed from spawn until it is ready for its first
op), ops_per_s (ops over their summed op time, so the harness's checks
between ops do not count), latency_p50_ms, latency_tail_ms and peak_rss_mb
(ru_maxrss of this process).  failed_frac is printed as a line; the JSON
carries it as attempted/failed.

--trace 1 prints the per-layer metrics instead: calls, total and self time
of every traced function (spans.py), computed byte counts, lru_cache hit
ratios and the tracing overhead.  Every op runs traced.  A second process
builds the same workload from the same seed without the tracer and runs
each op untraced in lockstep, just after (even op ids) or just before (odd
op ids) the traced one, so both copies see the same inputs and cache
state and nearly the same host.  The overhead is the median over ops of
the traced/untraced latency ratio, minus 1.  The spans are written to
bench/out/.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The exit code is 1 when any output check failed.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 170

# Package lru_caches by their metric name: (module under ultracon, attribute).
CACHES = {
    "direct_product": ("algebra", "_direct_product_cached"),
    "ultraproduct": ("constructions", "_ultraproduct_cached"),
    "quotient": ("algebra", "_quotient_cached"),
    "con_lattice": ("congruence", "_con_lattice_cached"),
}


class CacheCounts:
    """Hits and misses of the package caches since construction.

    Survives cache_clear(), which resets cache_info().
    """

    def __init__(self):
        self.funcs = {name: getattr(sys.modules["ultracon." + mod], attr)
                      for name, (mod, attr) in CACHES.items()}
        self.done = {name: (0, 0) for name in self.funcs}
        self.base = self._read()

    def _read(self) -> dict:
        return {name: tuple(f.cache_info()[:2]) for name, f in self.funcs.items()}

    def totals(self) -> dict:
        now = self._read()
        return {name: (self.done[name][0] + now[name][0] - self.base[name][0],
                       self.done[name][1] + now[name][1] - self.base[name][1])
                for name in self.funcs}

    def clear(self) -> None:
        self.done = self.totals()
        for f in self.funcs.values():
            f.cache_clear()
        self.base = self._read()


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def step(workload, op_id, op, caches, tracer=None):
    """Run one op, then check it outside its timer: (seconds, passed, report text).

    With a tracer, spans are recorded during the op only.
    """
    if workload.clear_every and op_id % workload.clear_every == 0:
        caches.clear()
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # an op that raises is counted, not propagated
        out = exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    if isinstance(out, Exception):
        ok, text = False, f"error: {out!r}"
    else:
        ok, text = workload.check(op, out)
    out = None  # release the op's output before the next op starts
    return elapsed, ok, text


class Twin:
    """An untraced copy of the workload in a second process, run in lockstep.

    It builds the same workload from the same seed and never installs the
    tracer, so its op k meets the same inputs and the same cache state as
    the traced op k, and its timings include no wrapper at all.
    """

    def __init__(self, args):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--twin",
               "--workload", args.workload, "--seed", str(args.seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._expect("ready")

    def _expect(self, what: str) -> str:
        reply = self.proc.stdout.readline()
        if not reply:
            self.close()
            raise RuntimeError(f"untraced twin exited (code {self.proc.returncode}) before {what}")
        return reply

    def step(self) -> tuple:
        """(seconds, passed) of the twin's next op."""
        self.proc.stdin.write("op\n")
        self.proc.stdin.flush()
        elapsed, ok = self._expect("an op's result").split()
        return float(elapsed), ok == "1"

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=PROBE_TIMEOUT_S)


def serve_twin(workload) -> int:
    """The twin's side: one op per 'op' line on stdin, until stdin closes."""
    caches = CacheCounts()
    ops = enumerate(workload.ops)
    print("ready", flush=True)
    for request in sys.stdin:
        if request.strip() != "op":
            return 2
        elapsed, ok, _ = step(workload, *next(ops), caches)
        print(f"{elapsed!r} {int(ok)}", flush=True)
    return 0


def measure(workload, seconds: float, tracer=None, twin=None) -> dict:
    """Closed loop over the workload's ops; returns raw results.

    With a tracer every op is traced, and the twin runs each op untraced
    right after it (even op ids) or right before it (odd op ids).
    """
    caches = CacheCounts()
    digest = hashlib.sha256()
    latencies = []
    untraced = []
    failures = []
    start = time.perf_counter()
    for op_id, op in enumerate(workload.ops):
        if op_id >= workload.min_ops and time.perf_counter() - start >= seconds:
            break
        if twin is not None and op_id % 2:
            untraced.append(twin.step())
        elapsed, ok, text = step(workload, op_id, op, caches, tracer)
        if twin is not None and not op_id % 2:
            untraced.append(twin.step())
        latencies.append(elapsed)
        if untraced and not untraced[-1][1]:
            ok, text = False, "untraced twin's check failed; traced: " + text
        if not ok:
            failures.append((op_id, text[:2000]))
        if op_id < workload.min_ops:
            digest.update(text.encode())
            digest.update(b"\n")
    wall = time.perf_counter() - start
    return {"latencies": latencies, "untraced": [t for t, _ in untraced], "wall": wall,
            "failures": failures, "digest": digest.hexdigest(), "caches": caches.totals()}


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process until it is ready for its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}"
    print(f"{text}  ({note})" if note else text)


def end_to_end(lat, wall: float, tail_pct: float, setups) -> tuple:
    """({name: (value, unit)}, {name: note}) from sorted op latencies in s.

    ops_per_s divides by the summed op time, not by the loop's wall time,
    which also holds the harness's own work between ops.
    """
    n = len(lat)
    busy = sum(lat)
    tail = percentile(lat, tail_pct)
    beyond = sum(1 for v in lat if v > tail)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / busy, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": (f"{n} ops in {busy:.3f} s of op time, closed loop, one client; the loop took "
                      f"{wall:.3f} s, {1 - busy / wall:.1%} of it the harness's input generation, "
                      "output checks, digests and cache clears"),
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{tail_pct:g}, n={n}, {beyond} ops beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(tracer, caches: dict, traced_lat, untraced_lat) -> tuple:
    """({name: (value, unit)}, {name: note}) from the spans and counters.

    traced_lat and untraced_lat are the two processes' latencies of the
    same ops, in op order.
    """
    metrics = {}
    for label, (calls, total_s, self_s) in tracer.layer_metrics().items():
        metrics[f"{label}.calls"] = (calls, "count")
        metrics[f"{label}.total_s"] = (total_s, "s")
        metrics[f"{label}.self_s"] = (self_s, "s")
    for name, unit in COUNTERS:
        metrics[name] = (tracer.counters[name], unit)
    notes = {"constructions.relation_bytes":
             "computed as sum of 8*|P|^2 over dstar and product_congruence calls, not measured"}
    ratios = [t / u for t, u in zip(traced_lat, untraced_lat)]
    metrics["trace.latency_p50_ms_untraced"] = (statistics.median(untraced_lat) * 1e3, "ms")
    metrics["trace.latency_p50_ms_traced"] = (statistics.median(traced_lat) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    notes["trace.overhead_frac"] = (f"median over {len(ratios)} ops of traced/untraced latency of the same op, "
                                    "minus 1; the untraced copy runs in a second process without wrappers, "
                                    f"in lockstep; {len(tracer.spans)} spans")
    for name, (ratio, lookups, note) in caches.items():
        metrics[f"cache.{name}.hit_ratio"] = (ratio, "ratio")
        metrics[f"cache.{name}.lookups"] = (lookups, "count")
        notes[f"cache.{name}.hit_ratio"] = note
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["thm2-corpus", "thm1-corpus", "big-product", "con-lattice"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--twin", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ultracon" / "__init__.py").is_file():
        print(f"error: the ultracon sources are missing: {SRC / 'ultracon'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe or args.twin:
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.twin:
            return serve_twin(workload)
        print("ready", flush=True)
        return 0

    if not args.trace:
        setups = [probe_setup(args) for _ in range(SETUP_PROBES)]

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = twin = None
    if args.trace:
        twin = Twin(args)
        tracer = Tracer()
        tracer.install()
    try:
        res = measure(workload, args.seconds, tracer, twin)
    finally:
        if twin is not None:
            twin.close()

    lat = sorted(res["latencies"])
    n = len(lat)
    failed = len(res["failures"])
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    line("failed_frac", failed / n, "ratio", f"{failed} of {n} ops failed")
    line("digest", res["digest"], "sha256", f"reports of the first {workload.min_ops} ops")
    for op_id, text in res["failures"][:3]:
        print(f"FAILED op {op_id}: {text}", file=sys.stderr)

    caches = {}
    for name, (hits, misses) in res["caches"].items():
        lookups = hits + misses
        caches[name] = (hits / lookups if lookups else 0.0, lookups,
                        f"{hits} hits of {lookups} lookups during the op loop")
    if args.trace:
        metrics, notes = per_layer(tracer, caches, res["latencies"], res["untraced"])
    else:
        for name, (ratio, _, note) in caches.items():
            line(f"cache.{name}.hit_ratio", ratio, "ratio", note)
        metrics, notes = end_to_end(lat, res["wall"], workload.tail_pct, setups)
    for name, (value, unit) in metrics.items():
        line(name, value, unit, notes.get(name, ""))

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {path.relative_to(HERE.parent)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

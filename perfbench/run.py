"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig1-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  The exit code is 1 when any
output is wrong (bytes differ from the golden sha256, a certificate check
failed, a ratio breaks its guarantee, a response is not 200) and 2 when
the checkout holds no program to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import serving  # noqa: E402
import spans as span_metrics  # noqa: E402
from workloads import (  # noqa: E402
    LIBRARY, SERVE, WORKLOADS, request_key, serve_schedule, warmup_requests,
)

#: Fresh processes started to measure ``setup_s``; the median is reported.
SETUP_SPAWNS = 3
#: Output directory inside the checkout (spans, logs, per-run details).
OUT_DIR = ".perfbench-out"
#: Probe time (seconds) that library latencies are scaled to: about what
#: ``worker.Probe`` takes on a 2-vCPU x86 VM when no neighbour slows it.
REFERENCE_PROBE_S = 0.0025
#: Passes of the traced replay in a ``--trace 1`` library run.
TRACED_PASSES = 2
#: Coverage check: layer self times must add up to the solve wall time.
COVERAGE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "goodput_rps": "1/s",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in span_metrics.SELF_LAYERS},
    "unattributed.self_ms": "ms",
    "generators.rss_growth_mb": "MB",
    "baselines.lp.rss_growth_mb": "MB",
    "core.calls": "count",
    "kernels.calls": "count",
    "trace_overhead_frac": "ratio",
    "mapreduce.rounds": "count",
    "mapreduce.max_space_words": "words",
    "core.sampling_iterations": "count",
    "service.parse_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_tail_ms": "ms",
    "service.execute_ms": "ms",
    "service.render_ms": "ms",
    "service.http_ms": "ms",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.rejected": "count",
    "service.timeouts": "count",
    "service.errors": "count",
    "service.repeat_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.client_wait_ms": "ms",
}
SERVE_ONLY = tuple(name for name in PER_LAYER_UNITS if name.split(".")[0] in ("service", "loadgen"))


class Run:
    """Shared state of one invocation: paths, environment, child processes."""

    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.log = open(self.out / f"{self.tag}.log", "wb")
        self.children: list = []

    def close(self) -> None:
        for child in self.children:
            if isinstance(child, serving.Server):
                child.stop()
            elif child.poll() is None:
                child.kill()
                child.wait()
        self.log.close()

    def count(self, problems_per_request: list[list[str]]) -> None:
        for problems in problems_per_request:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


# ---------------------------------------------------------------------- #
# Library workloads
# ---------------------------------------------------------------------- #
def _worker(run: Run, config: dict) -> tuple[subprocess.Popen, float]:
    """Start a solver process; returns it once warm, with its set-up time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=run.root, env=run.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=run.log, text=True,
    )
    run.children.append(proc)
    proc.stdin.write(json.dumps(config) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "READY":
        raise RuntimeError(f"solver process failed to start (see {run.log.name})")
    return proc, setup


def _setup_only(run: Run, config: dict) -> float:
    proc, setup = _worker(run, {**config, "setup_only": True})
    proc.wait(timeout=60)
    return setup


def _solve_loop(run: Run, config: dict) -> tuple[dict, list[float]]:
    """Run the closed loop in a fresh solver process.

    With ``measure_setup`` it also times ``SETUP_SPAWNS`` set-ups: one in a
    process started before the run, the run's own, and the rest in
    processes started after it, so that they do not all fall into one slow
    spell of a shared host.
    """
    measure = config.pop("measure_setup", False)
    setups = [_setup_only(run, config)] if measure else []
    proc, setup = _worker(run, {**config, "setup_only": False})
    setups.append(setup)
    proc.stdin.write("GO\n")
    proc.stdin.flush()
    result = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    proc.wait(timeout=60)
    if result is None or proc.returncode != 0:
        raise RuntimeError(f"solver process failed (see {run.log.name})")
    if measure:
        setups += [_setup_only(run, config) for _ in range(SETUP_SPAWNS - 2)]
    return result, setups


def _library_config(run: Run, **extra) -> dict:
    return {"workload": run.args.workload, "seed": run.args.seed, **extra}


def _corrected(requests: list) -> dict[int, float]:
    """Each request's host-corrected latency (seconds), median over the passes.

    A solve's latency is scaled by ``REFERENCE_PROBE_S`` over the mean of
    the probes timed just before and just after it (``worker.Probe``).
    """
    ratios: dict[int, list[float]] = {}
    for position, _, latency, *_, probe in requests:
        ratios.setdefault(position, []).append(latency * REFERENCE_PROBE_S / probe)
    return {position: checks.median(values) for position, values in ratios.items()}


def library_end_to_end(run: Run) -> dict[str, float]:
    workload = LIBRARY[run.args.workload]
    result, setups = _solve_loop(
        run, _library_config(run, seconds=run.args.seconds, measure_setup=True)
    )
    requests = result["requests"]
    run.count([r[4] for r in requests])
    corrected = _corrected(requests)
    latencies = list(corrected.values())
    keys = {r[0]: r[1] for r in requests}
    by_row: dict[str, list[float]] = {}
    for position, latency in corrected.items():
        by_row.setdefault(keys[position].rsplit("|", 1)[0], []).append(latency)
    busy = sum(latencies)
    wrong = {r[0] for r in requests if r[4]}
    good = sum(
        1 for position, latency in corrected.items()
        if position not in wrong and latency * 1000.0 <= workload.latency_limit_ms
    )
    value, pct, n = checks.tail(latencies)
    run.notes.append(
        f"{n} requests x {len(requests) // n} passes in {result['elapsed']:.2f} s "
        f"(wall: {len(requests) / sum(r[2] for r in requests):.4g} solves/s); host-corrected "
        f"total {busy:.2f} s per pass; tail = p{pct:.1f} of the {n} request latencies; "
        f"set-up runs {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"latency limit {workload.latency_limit_ms:g} ms"
    )
    return {
        "setup_s": checks.median(setups),
        "solves_per_s": n / busy,
        "latency_p50_ms": 1000.0 * checks.median([checks.median(v) for v in by_row.values()]),
        "latency_tail_ms": 1000.0 * value,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "goodput_rps": good / busy,
    }


def _count_means(counts: list[dict[str, float]]) -> dict[str, float]:
    """Per-solve means of the exact record counts (``mapreduce.*``, ``core.*``)."""
    per = max(1, len(counts))
    return {name: sum(c[name] for c in counts) / per for name in checks.COUNT_METRICS}


def _check_coverage(run: Run, covered_s: float, wall_s: float, what: str) -> None:
    share = abs(covered_s - wall_s) / wall_s if wall_s > 0 else math.inf
    run.notes.append(
        f"coverage: layer self times {1000 * covered_s:.1f} ms vs {what} "
        f"{1000 * wall_s:.1f} ms ({100 * share:.2f}% apart)"
    )
    if share > COVERAGE_TOLERANCE:
        run.fail(f"layer self times cover {what} only to {100 * share:.1f}%")


def _check_digests(run: Run, plain: list[str], traced: list[str]) -> None:
    if plain != traced:
        run.fail("traced and untraced runs returned different bytes")


def library_per_layer(run: Run) -> dict[str, float]:
    plain, _ = _solve_loop(run, _library_config(run, seconds=run.args.seconds / 2.0))
    spans_path = str(run.out / f"{run.tag}.spans.json")
    traced, _ = _solve_loop(
        run, _library_config(run, passes=TRACED_PASSES, trace=spans_path)
    )
    run.count([r[4] for r in plain["requests"]] + [r[4] for r in traced["requests"]])
    digests = {r[0]: r[3] for r in plain["requests"]}
    _check_digests(run, [digests[r[0]] for r in traced["requests"]],
                   [r[3] for r in traced["requests"]])
    spans = span_metrics.load(spans_path)
    solves = len(traced["requests"])
    metrics, covered = span_metrics.layer_metrics(spans, solves)
    _check_coverage(run, covered, sum(r[2] for r in traced["requests"]), "solve wall time")
    metrics["trace_overhead_frac"] = (
        sum(_corrected(traced["requests"]).values())
        / sum(_corrected(plain["requests"]).values()) - 1.0
    )
    metrics.update(_count_means([r[5] for r in plain["requests"]]))
    metrics.update({name: 0.0 for name in SERVE_ONLY})
    return metrics


# ---------------------------------------------------------------------- #
# Served workload
# ---------------------------------------------------------------------- #
def _serve_argv(run: Run, spans_path: str | None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0"]
    return [sys.executable, str(HERE / "serve_traced.py"), spans_path, "--port", "0"]


def _start_server(run: Run, spans_path: str | None = None) -> serving.Server:
    workload = SERVE[run.args.workload]
    server = serving.Server(
        _serve_argv(run, spans_path), env=run.env, cwd=run.root, log=run.log,
        warmup=warmup_requests(workload.heavy + workload.light),
        connections=workload.connections,
    )
    run.children.append(server)
    return server


def _stop(run: Run, server: serving.Server) -> None:
    server.stop()
    run.children.remove(server)


def _judge(schedule: list[dict], results: list, goldens: dict[str, str]) -> list[tuple]:
    """``(problems, counts)`` of each response."""
    judged = []
    for item, (*_, status, body) in zip(schedule, results):
        if status != 200:
            judged.append(([f"/solve answered {status}: {body[:200]!r}"], None))
        else:
            key = request_key(item["algorithm"], item["params"], item["seed"])
            judged.append(checks.check_body(body, goldens.get(key)))
    return judged


def _serve_phase(run: Run, server: serving.Server, schedule: list[dict]) -> dict:
    workload = SERVE[run.args.workload]
    before = serving.metrics(server.port)
    start, results = serving.open_loop(server.port, schedule, workload.connections)
    after = serving.metrics(server.port)
    judged = _judge(schedule, results, _goldens(run.args.workload))
    problems = [p for p, _ in judged]
    run.count(problems)
    end = max(r[3] for r in results)
    return {
        "start": start,
        "span_s": end - start,
        "results": results,
        "problems": problems,
        "counts": [c for p, c in judged if not p],
        "latencies": [r[3] - r[0] for r in results],
        "metrics": (before, after),
        "peak_rss_mb": server.peak_rss_mb(),
    }


def serve_end_to_end(run: Run) -> dict[str, float]:
    workload = SERVE[run.args.workload]
    schedule = serve_schedule(workload, run.args.seed, run.args.seconds)
    setups = []
    for index in range(SETUP_SPAWNS):
        server = _start_server(run)
        setups.append(server.setup_s)
        if index < SETUP_SPAWNS - 1:
            _stop(run, server)
    phase = _serve_phase(run, server, schedule)
    _stop(run, server)
    ok = [lat for lat, p in zip(phase["latencies"], phase["problems"]) if not p]
    good = sum(1 for lat in ok if lat * 1000.0 <= workload.latency_limit_ms)
    value, pct, n = checks.tail(phase["latencies"])
    run.notes.append(
        f"{len(schedule)} requests at {workload.rate_per_s:g}/s over {phase['span_s']:.2f} s; "
        f"tail = p{pct:.1f} of {n} with {checks.TAIL_BEYOND} beyond; "
        f"set-up runs {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"latency limit {workload.latency_limit_ms:g} ms"
    )
    return {
        "setup_s": checks.median(setups),
        "solves_per_s": len(ok) / phase["span_s"],
        "latency_p50_ms": 1000.0 * checks.median(phase["latencies"]),
        "latency_tail_ms": 1000.0 * value,
        "peak_rss_mb": phase["peak_rss_mb"],
        "goodput_rps": good / phase["span_s"],
    }


def _mean_ms(values) -> float:
    values = list(values)
    return 1000.0 * sum(values) / len(values) if values else 0.0


def serve_per_layer(run: Run) -> dict[str, float]:
    workload = SERVE[run.args.workload]
    schedule = serve_schedule(workload, run.args.seed, run.args.seconds / 2.0)
    server = _start_server(run)
    plain = _serve_phase(run, server, schedule)
    _stop(run, server)
    spans_path = str(run.out / f"{run.tag}.spans.json")
    server = _start_server(run, spans_path)
    traced = _serve_phase(run, server, schedule)
    _stop(run, server)
    _check_digests(
        run,
        [checks.sha256(r[5]) for r in plain["results"]],
        [checks.sha256(r[5]) for r in traced["results"]],
    )
    rids = {str(i) for i in range(len(schedule))}
    spans = span_metrics.select(span_metrics.load(spans_path), rids)
    solves = sum(1 for p in traced["problems"] if not p)
    metrics, covered = span_metrics.layer_metrics(spans, solves)
    roots = [s for s in span_metrics.tree(spans) if not s[span_metrics.PARENT]]
    _check_coverage(
        run, covered, sum(s[span_metrics.END] - s[span_metrics.START] for s in roots),
        "server call-tree wall time",
    )
    metrics["trace_overhead_frac"] = (
        checks.median(traced["latencies"]) / checks.median(plain["latencies"]) - 1.0
    )
    metrics.update(_count_means(plain["counts"]))

    waits = list(span_metrics.queue_waits(spans).values())
    handle = span_metrics.by_request(spans, "service", "handle")
    http = [
        (recv - send) - handle[str(i)]
        for i, (_, _, send, recv, _, _) in enumerate(traced["results"])
        if str(i) in handle
    ]
    before, after = plain["metrics"]
    delta = {key: after[key] - before[key] for key in (
        "batches_total", "batched_points_total", "rejected_total",
        "deadline_timeouts_total", "errors_total",
    )}
    seen, repeats = set(), 0
    for item in schedule:
        key = (item["algorithm"], json.dumps(item["params"], sort_keys=True), item["seed"])
        repeats += key in seen
        seen.add(key)
    results = plain["results"]
    lags = [send - max(due, claim) for due, claim, send, *_ in results]
    client_waits = [max(0.0, claim - due) for due, claim, *_ in results]
    batches = delta["batches_total"]

    def span_ms(layer: str, name: str) -> float:
        return _mean_ms(span_metrics.by_request(spans, layer, name).values())

    metrics.update({
        "service.parse_ms": span_ms("service", "parse_solve_request"),
        "service.queue_wait_p50_ms": 1000.0 * checks.median(waits) if waits else 0.0,
        "service.queue_wait_tail_ms": 1000.0 * checks.tail(waits)[0] if waits else 0.0,
        "service.execute_ms": span_ms("backends", "execute_point"),
        "service.render_ms": span_ms("render", "render_response"),
        "service.http_ms": _mean_ms(http),
        "service.batches": float(batches),
        "service.batch_size_mean": delta["batched_points_total"] / batches if batches else 0.0,
        "service.rejected": float(delta["rejected_total"]),
        "service.timeouts": float(delta["deadline_timeouts_total"]),
        "service.errors": float(delta["errors_total"]),
        "service.repeat_share": repeats / len(schedule),
        "loadgen.lag_p99_ms": 1000.0 * checks.percentile(lags, 99.0),
        "loadgen.client_wait_ms": _mean_ms(client_waits),
    })
    return metrics


# ---------------------------------------------------------------------- #
def _goldens(workload: str) -> dict[str, str]:
    with open(HERE / "goldens.json") as fh:
        return json.load(fh)[workload]


def _report(run: Run, metrics: dict[str, float], units: dict[str, str]) -> dict:
    correct = not run.problems
    print(f"perfbench {run.args.workload} seed={run.args.seed} trace={run.args.trace}")
    for note in run.notes:
        print(f"  {note}")
    print(f"  failed_frac = {run.failed / max(1, run.attempted):.6f} ratio "
          f"({run.failed} of {run.attempted})")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for problem in sorted(set(run.problems))[:20]:
        print(f"  FAIL {problem}")
    return {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({root / 'src/repro'} is missing); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        if args.workload in LIBRARY:
            metrics = library_per_layer(run) if args.trace else library_end_to_end(run)
        else:
            metrics = serve_per_layer(run) if args.trace else serve_end_to_end(run)
    finally:
        run.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = _report(run, metrics, units)
    with open(run.out / f"{run.tag}.result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

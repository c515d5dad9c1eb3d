"""The library solver process: ``import repro``, warm up, then solve in a closed loop.

``run.py`` starts one per measurement with ``PYTHONPATH`` pointing at the
checkout's ``src``.  Protocol over the pipes, one line each:

1. stdin: a JSON config — ``workload``, ``seed``, either ``seconds`` or
   ``passes``, ``setup_only``, and ``trace`` (a spans path, or absent);
2. stdout: ``READY`` once ``import repro`` and the warm-up solves are done
   (the parent's ``setup_s`` clock stops here);
3. stdin: ``GO``;
4. stdout: ``RESULT <json>`` with one entry per solve and ``ru_maxrss``.

The worker solves the run's request set (``workloads.library_requests``)
in passes, each in its own seeded order.  With ``passes`` it runs exactly
that many; with ``seconds`` it runs at least ``MIN_PASSES`` and starts
another only while a pass of the mean length still fits in ``seconds``.
A solve's latency is the ``repro.solve()`` call plus ``canonical_json()``;
a :class:`Probe` runs after each solve (and once before the first), and
each solve's entry ends with the mean of the two probes around it.  The
checks on a solve's bytes run after the clock stops.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path

from checks import check_body, sha256
from workloads import LIBRARY, library_requests, pass_order, request_key, warmup_requests

#: Passes a timed run makes even when they overrun its ``seconds``.
MIN_PASSES = 3


class Probe:
    """A fixed stretch of interpreter and numpy work, timed between solves.

    It calls no code of the program and allocates no containers, so its
    time moves only with the speed the host gives the process; ``run.py``
    divides each solve's latency by the probes on either side of it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a = np.linspace(1.0, 2.0, 100_000)
        self.b = np.empty_like(self.a)

    def __call__(self) -> float:
        np, a, b = self.np, self.a, self.b
        start = time.perf_counter()
        x = 0
        for j in range(30_000):
            x += j * j
        for _ in range(4):
            np.multiply(a, a, out=b)
            np.sqrt(b, out=b)
            np.add(b, 1.0, out=b)
        return time.perf_counter() - start


def main() -> int:
    config = json.loads(sys.stdin.readline())
    workload = LIBRARY[config["workload"]]
    import repro

    tracer = None
    if config.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
    for item in warmup_requests(workload.rows):
        repro.solve(item["algorithm"], params=item["params"], seed=item["seed"]).canonical_json()
    if tracer is not None:
        # After the warm-up, so that its solves leave no spans.
        tracing.install(tracer)
    print("READY", flush=True)
    if config.get("setup_only"):
        return 0
    if sys.stdin.readline().strip() != "GO":
        return 1

    with open(Path(__file__).with_name("goldens.json")) as fh:
        goldens = json.load(fh)[workload.name]
    requests = library_requests(workload)
    seconds, passes = config.get("seconds"), config.get("passes")
    results = []
    probe = Probe()
    probes = [probe()]
    began = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - began
        if passes is not None and index >= passes:
            break
        if seconds is not None and index >= MIN_PASSES and elapsed * (index + 1) / index > seconds:
            break
        for position in pass_order(workload, config["seed"], index):
            item = requests[position]
            rid = f"{index}:{position}"
            start = time.perf_counter()
            if tracer is None:
                body = repro.solve(
                    item["algorithm"], params=item["params"], seed=item["seed"]
                ).canonical_json()
            else:
                with tracer.root(rid):
                    body = repro.solve(
                        item["algorithm"], params=item["params"], seed=item["seed"]
                    ).canonical_json()
            latency = time.perf_counter() - start
            probes.append(probe())
            key = request_key(item["algorithm"], item["params"], item["seed"])
            problems, counts = check_body(body, goldens.get(key))
            results.append([position, key, latency, sha256(body), problems, counts])
    elapsed = time.perf_counter() - began
    for i, entry in enumerate(results):
        entry.append((probes[i] + probes[i + 1]) / 2.0)
    if tracer is not None:
        tracer.dump(config["trace"])
    out = {
        "requests": results,
        "elapsed": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

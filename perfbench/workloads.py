"""The benchmark's workloads: which requests each one sends, and in what order.

A request is ``(algorithm, params, seed)`` — exactly the arguments of
``repro.solve()`` and the body of a ``/solve`` call.  Every request seed is
drawn from a fixed per-row *pool*, so the golden sha256 of every response the
benchmark can send is stored in ``goldens.json`` (see ``make_goldens.py``).
The workload seed passed on the command line picks the order of each
library pass, and the arrival times and bodies of the served schedule,
through :class:`random.Random` seeded with a string (stable across Python
versions and processes).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

#: The ten registered Figure-1 algorithms, in registry order.
FIG1_ALGORITHMS = (
    "vertex-cover",
    "set-cover",
    "set-cover-greedy",
    "mis",
    "maximal-clique",
    "matching",
    "matching-mu0",
    "b-matching",
    "vertex-colouring",
    "edge-colouring",
)

#: Parameters that only size an instance.  Warm-up drops them, so it runs
#: every code path of a row (LP, exact, Misra-Gries) at the default size.
SIZE_PARAMS = ("n", "num_sets", "num_elements")

#: Request seeds of the warm-up solves (outside every golden pool).
WARMUP_SEED = 1_000_000


@dataclass(frozen=True)
class Row:
    algorithm: str
    params: dict = field(default_factory=dict)

    def warmup_params(self) -> dict:
        return {k: v for k, v in self.params.items() if k not in SIZE_PARAMS}


@dataclass(frozen=True)
class LibraryWorkload:
    """Closed loop, one client: a fixed request set, solved in repeated passes.

    The set holds every row at each of the request seeds ``0 .. pool-1``;
    the workload seed sets the order of each pass.  Every run solves the
    same instances because a run holds only 10 to 50 requests: drawn
    afresh per seed, the median and tail followed which instances a seed
    drew (``mis`` n=4000 instances differ by up to 50%) more than the
    program.
    """

    name: str
    rows: tuple[Row, ...]
    pool: int
    latency_limit_ms: float


@dataclass(frozen=True)
class ServeWorkload:
    """Open loop with seeded Poisson arrivals against ``repro serve``."""

    name: str
    light: tuple[Row, ...]
    heavy: tuple[Row, ...]
    light_pool: int
    heavy_pool: int
    heavy_share: float
    repeat_share: float
    rate_per_s: float
    latency_limit_ms: float
    connections: int


LIBRARY = {
    w.name: w
    for w in (
        LibraryWorkload(
            name="fig1-default",
            rows=tuple(Row(a) for a in FIG1_ALGORITHMS),
            pool=5,
            latency_limit_ms=2000.0,
        ),
        LibraryWorkload(
            name="large-baselines",
            rows=(
                Row("vertex-cover", {"n": 1000}),
                Row("matching", {"n": 700, "include_exact": False}),
                Row("edge-colouring", {"n": 500}),
                Row("set-cover", {"num_sets": 1200, "num_elements": 12000}),
                Row("matching-mu0", {"n": 200}),
            ),
            pool=2,
            latency_limit_ms=5000.0,
        ),
        LibraryWorkload(
            name="large-core",
            rows=(
                Row("mis", {"n": 4000}),
                Row("maximal-clique", {"n": 2000}),
                Row("b-matching", {"n": 1500}),
                Row("vertex-colouring", {"n": 2000}),
                Row(
                    "set-cover-greedy",
                    {"num_sets": 1500, "num_elements": 400, "include_lp": False},
                ),
                Row("vertex-cover", {"n": 2500, "include_lp": False}),
                Row(
                    "set-cover",
                    {"num_sets": 1500, "num_elements": 15000, "include_lp": False},
                ),
            ),
            pool=2,
            latency_limit_ms=5000.0,
        ),
    )
}

SERVE = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve-mixed",
            # vertex-cover first: its cold solve (scipy's lazy import) is
            # warmed up together with the heavy row's (networkx's).
            light=tuple(
                Row(a)
                for a in (
                    "vertex-cover",
                    "mis",
                    "maximal-clique",
                    "b-matching",
                    "vertex-colouring",
                    "set-cover",
                    "set-cover-greedy",
                )
            ),
            heavy=(Row("matching"),),
            light_pool=60,
            heavy_pool=24,
            heavy_share=0.05,
            repeat_share=0.15,
            rate_per_s=10.0,
            latency_limit_ms=500.0,
            connections=2,
        ),
    )
}

WORKLOADS = {**LIBRARY, **SERVE}


def request_key(algorithm: str, params: dict, seed: int) -> str:
    """The golden-table key of one request."""
    return f"{algorithm}|{json.dumps(params, sort_keys=True, separators=(',', ':'))}|{seed}"


def request(row: Row, seed: int) -> dict:
    return {"algorithm": row.algorithm, "params": dict(row.params), "seed": seed}


def warmup_requests(rows) -> list[dict]:
    """One default-size solve per distinct (algorithm, non-size params) row."""
    seen, out = set(), []
    for row in rows:
        item = {"algorithm": row.algorithm, "params": row.warmup_params(), "seed": WARMUP_SEED}
        key = request_key(item["algorithm"], item["params"], WARMUP_SEED)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def library_requests(workload: LibraryWorkload) -> list[dict]:
    """The request set of every run: each row at each pool seed."""
    return [request(row, s) for row in workload.rows for s in range(workload.pool)]


def pass_order(workload: LibraryWorkload, seed: int, index: int) -> list[int]:
    """The seeded order in which pass ``index`` solves the request set."""
    rng = random.Random(f"{workload.name}/{seed}/pass{index}")
    count = len(workload.rows) * workload.pool
    return rng.sample(range(count), count)


def serve_schedule(workload: ServeWorkload, seed: int, seconds: float) -> list[dict]:
    """Seeded Poisson arrivals over ``seconds``, each with its request body.

    The arrival count is fixed at ``rate × seconds`` and the arrival times
    are sorted uniform draws — a Poisson process conditioned on its count —
    so every seed offers the same load.  Exactly ``heavy_share`` of the
    requests are heavy, one at a random place in the first half of each of
    that many equal blocks; ``repeat_share`` of them, at random light places
    after the first, repeat an earlier (algorithm, seed) key; the rest are
    light keys not sent before (or repeats, once a row's pool is used up).
    """
    rng = random.Random(f"{workload.name}/{seed}")
    count = max(1, round(workload.rate_per_s * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    heavies = round(workload.heavy_share * count)
    kinds = ["light"] * count
    for block in range(heavies):
        # One heavy request in the first half of each of ``heavies`` equal
        # blocks: the share is exact, and heavy requests are at least half
        # a block apart, so they do not pile up on each other by chance.
        lo, hi = block * count // heavies, (block + 1) * count // heavies
        kinds[rng.randrange(lo, max(lo + 1, (lo + hi) // 2))] = "heavy"
    slots = [i for i, kind in enumerate(kinds) if kind == "light"]
    for i in rng.sample(slots[1:], round(workload.repeat_share * count)):
        kinds[i] = "repeat"
    # Fresh light requests walk the rows in shuffled rounds (each row once
    # per round), so the mix of algorithms is the same for every seed.
    light = len(workload.light)
    rows = (i for _ in itertools.count() for i in rng.sample(range(light), light))
    orders = [iter(rng.sample(range(workload.light_pool), workload.light_pool))
              for _ in range(light)]
    sent: list[dict] = []
    schedule = []
    for at, kind in zip(times, kinds):
        if kind == "heavy":
            body = request(rng.choice(workload.heavy), rng.randrange(workload.heavy_pool))
        else:
            row = next(rows) if kind == "light" else None
            fresh = next(orders[row], None) if row is not None else None
            if fresh is None:  # a repeat, or the row's pool is used up
                body = rng.choice(sent)
            else:
                body = request(workload.light[row], fresh)
                sent.append(body)
        schedule.append({"at": at, **body})
    return schedule


def golden_requests(name: str) -> list[dict]:
    """Every request a workload can send (the keys of its golden table)."""
    workload = WORKLOADS[name]
    if isinstance(workload, LibraryWorkload):
        rows, pools = workload.rows, [workload.pool] * len(workload.rows)
    else:
        rows = workload.light + workload.heavy
        pools = [workload.light_pool] * len(workload.light) + [
            workload.heavy_pool
        ] * len(workload.heavy)
    return [request(row, s) for row, pool in zip(rows, pools) for s in range(pool)]

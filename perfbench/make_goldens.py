"""Regenerate ``goldens.json``: the sha256 of every response a workload can send.

Usage, from the root of a checkout (``PYTHONPATH=src``)::

    python3 perfbench/make_goldens.py [WORKLOAD ...]

Run it only when a workload's requests change, on the commit whose bytes
are the reference; a change that claims to keep bytes identical must pass
against the table as it stands.  Library requests are rendered by
``repro.solve(...).canonical_json()``; the served workload's by
``repro.service.api.solve_direct``, the path ``repro serve`` must match.
Every response is checked (certificate, guarantee) before it is stored.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from checks import check_body, sha256
from workloads import LIBRARY, WORKLOADS, golden_requests, request_key

PATH = Path(__file__).with_name("goldens.json")


def render(name: str, item: dict) -> bytes:
    import repro
    from repro.service.api import parse_solve_request, solve_direct

    if name in LIBRARY:
        return repro.solve(
            item["algorithm"], params=item["params"], seed=item["seed"]
        ).canonical_json()
    return solve_direct(parse_solve_request(item))


def main(names: list[str]) -> int:
    table = json.loads(PATH.read_text()) if PATH.exists() else {}
    bad = 0
    for name in names or list(WORKLOADS):
        began = time.perf_counter()
        entries = {}
        for item in golden_requests(name):
            body = render(name, item)
            problems, _ = check_body(body, sha256(body))
            for problem in problems:
                print(f"{name} {item}: {problem}", file=sys.stderr)
            bad += bool(problems)
            entries[request_key(item["algorithm"], item["params"], item["seed"])] = sha256(body)
        table[name] = entries
        print(f"{name}: {len(entries)} responses in {time.perf_counter() - began:.1f} s")
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

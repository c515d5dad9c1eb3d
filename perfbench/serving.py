"""``repro serve`` in a subprocess, and the open-loop client that drives it.

The client times every request from its *due* time, not from when it was
sent, so a stall that delays later requests counts against them.  (``repro
loadtest`` times from the send, in ``loadgen/runner.py``
``_Worker._record``, which hides client-side queueing; fixing it is left
to a later change.)  It holds at most ``connections`` keep-alive
connections; a request that falls due while all of them are busy waits for
one, and that wait is reported as ``client_wait``.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import threading
import time

from tracer import REQUEST_HEADER

_STARTUP_TIMEOUT_S = 60.0


class Server:
    """A ``repro serve --port 0`` process; ``setup_s`` spans spawn to warm."""

    def __init__(self, argv, *, env, cwd, log, warmup, connections) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=log,
        )
        watchdog = threading.Timer(_STARTUP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            while get(self.port, "/healthz")[0] != 200:
                time.sleep(0.005)
            # All warm-up solves at once, as concurrent first users would
            # send them.  The first two are the cold ones (lazy networkx and
            # scipy imports); sent together, one always waits for the other
            # past the adaptive batcher's latency target, so every run
            # starts from the same batcher state.  One at a time, whether
            # the cold scipy solve alone crossed the target (it takes
            # 0.4-0.6 s against a 0.5 s target) was left to chance.
            _, results = open_loop(self.port, [{**item, "at": 0.0} for item in warmup],
                                   connections, rid_prefix="warmup-")
            for *_, status, body in results:
                if status != 200:
                    raise RuntimeError(f"warm-up solve failed ({status}): {body[:200]!r}")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            watchdog.cancel()

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``, read from outside the process."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _connection(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def get(port: int, path: str) -> tuple[int | None, bytes]:
    conn = _connection(port)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError:
        return None, b""
    finally:
        conn.close()


def _body(item: dict) -> bytes:
    return json.dumps(
        {"algorithm": item["algorithm"], "params": item["params"], "seed": item["seed"]}
    ).encode()


def post(port: int, item: dict, conn=None, rid: str | None = None):
    own = conn is None
    conn = conn or _connection(port)
    headers = {"Content-Type": "application/json"}
    if rid is not None:
        headers[REQUEST_HEADER] = rid
    try:
        conn.request("POST", "/solve", _body(item), headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        if own:
            conn.close()


def metrics(port: int) -> dict:
    status, body = get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


def open_loop(
    port: int, schedule: list[dict], connections: int, rid_prefix: str = ""
) -> tuple[float, list]:
    """Send ``schedule`` on time over ``connections`` connections.

    Returns the start instant and, per request, ``(due, claim, send, recv,
    status, body)``: ``claim`` is when a free connection took the request
    (after ``due`` only when every connection was busy).  Request ``i``
    carries the id ``rid_prefix + str(i)`` for the server-side trace.
    """
    results: list = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter() + 0.05

    def run() -> None:
        conn = _connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                item = schedule[index]
                due = start + item["at"]
                claim = time.perf_counter()
                if claim < due:
                    time.sleep(due - claim)
                send = time.perf_counter()
                try:
                    status, body = post(port, item, conn, rid=f"{rid_prefix}{index}")
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, f"{type(exc).__name__}: {exc}".encode()
                    conn.close()
                    conn = _connection(port)
                results[index] = (due, claim, send, time.perf_counter(), status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=run) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, results

"""Load generator: open- and closed-loop drivers over :class:`ServeClient`.

At most two client threads (the host's core count), each holding at most
one connection at a time:

- open loop: the calling thread sends every request at its due time, no
  matter how many are outstanding, and one poller thread fetches results;
  latency runs from the *due* time, so a stalled generator or server
  charges the wait to every request behind it;
- closed loop: each client thread sends its next request only once the
  previous result is fetched; latency runs from the send.

Results come from ``GET /v1/jobs/{id}/result`` (202 while a job runs),
polled every ``POLL_S``; the poll period bounds latency resolution.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import TERMINAL_STATES

from perfbench.workloads import Request, Workload

POLL_S = 0.02
#: how long after the last send a run waits for stragglers
TAIL_TIMEOUT_S = 30.0


@dataclass
class JobRecord:
    request: Request
    due_at: Optional[float] = None  # absolute perf_counter due time
    sent_at: float = 0.0
    submitted_at: float = 0.0
    done_at: Optional[float] = None
    last_poll_at: float = 0.0
    job_id: Optional[str] = None
    result: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def finished(self) -> bool:
        return self.done_at is not None

    def latency(self) -> float:
        start = self.due_at if self.due_at is not None else self.sent_at
        return self.done_at - start


@dataclass
class LoadResult:
    records: List[JobRecord]
    started_at: float
    schedule_s: float
    ended_at: float = 0.0
    lags: List[float] = field(default_factory=list)


def _submit(client: ServeClient, record: JobRecord) -> None:
    record.sent_at = time.perf_counter()
    try:
        record.job_id = client.submit(**record.request.body)
    except ServeClientError as exc:
        record.error = f"submit [{exc.code}] {exc}"
        record.done_at = time.perf_counter()
    record.submitted_at = time.perf_counter()


def _poll_once(client: ServeClient, record: JobRecord) -> bool:
    """One result poll; True once the record is finished."""
    record.last_poll_at = time.perf_counter()
    try:
        record.result = client.result(record.job_id)
    except ServeClientError as exc:
        if exc.status == 202:
            return False
        record.error = f"result [{exc.code}] {exc}"
    record.done_at = time.perf_counter()
    return True


def _terminal_count(client: ServeClient) -> int:
    counts = client.health()["jobs"]
    return sum(counts.get(state, 0) for state in TERMINAL_STATES)


def run_open(workload: Workload, url: str, seconds: float) -> LoadResult:
    """Send on schedule from this thread; one poller thread collects.

    The poller watches the job table's terminal count on ``/healthz`` and
    fetches results only when it rises, so the server answers a few dozen
    polls a second however many requests are outstanding.
    """
    sender = ServeClient(url, timeout=30.0)
    poller = ServeClient(url, timeout=30.0)
    records = [JobRecord(request=r) for r in workload.requests]
    outstanding: List[JobRecord] = []
    lock = threading.Lock()
    sending_done = threading.Event()
    started = time.perf_counter()
    for record in records:
        record.due_at = started + record.request.due
    hard_stop = started + seconds + TAIL_TIMEOUT_S

    def poll_loop() -> None:
        seen = _terminal_count(poller)
        while time.perf_counter() <= hard_stop:
            time.sleep(POLL_S)
            with lock:
                batch = list(outstanding)
            if not batch:
                if sending_done.is_set():
                    return
                continue
            terminal = _terminal_count(poller)
            if terminal == seen:
                continue
            seen = terminal
            for record in batch:
                if _poll_once(poller, record):
                    with lock:
                        outstanding.remove(record)

    thread = threading.Thread(target=poll_loop, name="perfbench-poller")
    thread.start()
    lags = []
    try:
        for record in records:
            delay = record.due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _submit(sender, record)
            lags.append(record.sent_at - record.due_at)
            if record.job_id is not None:
                with lock:
                    outstanding.append(record)
    finally:
        sending_done.set()
        thread.join()
    _expire_unfinished(records, hard_stop)
    return LoadResult(
        records=records,
        started_at=started,
        schedule_s=seconds,
        ended_at=_last_done(records, started),
        lags=lags,
    )


def run_closed(workload: Workload, url: str, seconds: float) -> LoadResult:
    """``workload.clients`` threads, each send -> fetch -> send again."""
    records: List[JobRecord] = []
    lock = threading.Lock()
    started = time.perf_counter()
    stop_sending = started + seconds
    hard_stop = stop_sending + TAIL_TIMEOUT_S
    queue = list(workload.requests)

    def client_loop(index: int) -> None:
        client = ServeClient(url, timeout=30.0)
        mine = queue[index :: workload.clients]
        for request in mine:
            if time.perf_counter() >= stop_sending:
                return
            record = JobRecord(request=request)
            with lock:
                records.append(record)
            _submit(client, record)
            while not record.finished:
                if time.perf_counter() > hard_stop:
                    return
                time.sleep(POLL_S)
                _poll_once(client, record)

    _run_threads(client_loop, workload.clients)
    _expire_unfinished(records, hard_stop)
    return LoadResult(
        records=records,
        started_at=started,
        schedule_s=seconds,
        ended_at=_last_done(records, started),
    )


def _run_threads(target: Callable[[int], None], count: int) -> None:
    threads = [
        threading.Thread(target=target, args=(i,), name=f"perfbench-client-{i}")
        for i in range(count)
    ]
    for thread in threads[1:]:
        thread.start()
    try:
        target(0)
    finally:
        for thread in threads[1:]:
            thread.join()


def _expire_unfinished(records: List[JobRecord], hard_stop: float) -> None:
    for record in records:
        if record.done_at is None:
            record.error = record.error or "no result before the tail timeout"
            record.done_at = hard_stop


def _last_done(records: List[JobRecord], started: float) -> float:
    return max((r.done_at for r in records if r.done_at), default=started)


def mean_backlog(result: LoadResult, start: float, end: float) -> float:
    """Time-averaged :func:`backlog` over ``[start, end)``, in 0.1 s steps."""
    steps = max(1, round((end - start) / 0.1))
    return sum(
        backlog(result, start + (end - start) * i / steps) for i in range(steps)
    ) / steps


def backlog(result: LoadResult, at: float) -> int:
    """Requests due by ``at`` (offset from start) and not finished by then."""
    moment = result.started_at + at
    return sum(
        1
        for r in result.records
        if r.due_at is not None
        and r.due_at <= moment
        and (r.done_at is None or r.done_at > moment)
    )


def run(workload: Workload, url: str, seconds: float) -> LoadResult:
    if workload.loop == "open":
        return run_open(workload, url, seconds)
    return run_closed(workload, url, seconds)

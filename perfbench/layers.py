"""Per-layer metrics of a traced run.

Inputs: the server's spans and job transitions (``tracing.py``), each
job's own ``GET /v1/jobs/{id}`` view (transitions and ``engine_events``),
the ``/metrics`` exposition before and after the run, and the load
generator's records (client-side ``submit`` and ``result`` calls).

Closure: a job's wall runs from the client's send to its result being
fetched.  The blocking path is covered by the client's submit call, the
request-pool wait (QUEUED -> RUNNING), every top-level span on the
request thread while the job ran, the poll gap after the job finished,
and the final result fetch.  ``trace.unattributed_share`` is the part of
the summed walls that none of these intervals covers.

Every metric is reported on every workload; a layer that does no work
on a workload reports an explicit 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from perfbench.loadgen import LoadResult

#: per_layer metric name -> unit (the order BENCHMARK.json lists them in)
UNITS = {
    "http.submit_rtt_p50_s": "s",
    "jobs.pool_wait_p90_s": "s",
    "agent.plan_s_p50": "s",
    "agent.tool_calls_per_pattern": "count",
    "agent.llm_calls_per_request": "count",
    "agent.repairs_per_pattern": "count",
    "pipeline.sample_s_p50": "s",
    "pipeline.extend_s_p50": "s",
    "engine.queue_wait_p50_s": "s",
    "engine.queue_wait_p90_s": "s",
    "engine.batch_samples_mean": "count",
    "engine.trajectories_per_pattern": "count",
    "engine.execute_s_per_sample": "s",
    "engine.busy_share": "ratio",
    "diffusion.step_s_per_sample": "s",
    "diffusion.step_b1_s_p50": "s",
    "diffusion.predict_x0_share": "ratio",
    "diffusion.polish_s_p50": "s",
    "diffusion.offengine_step_share": "ratio",
    "ops.repaint_windows_per_pattern": "count",
    "ops.samplings_per_extension": "count",
    "legalize.s_per_pattern": "s",
    "legalize.fail_share": "ratio",
    "store.persist_s_p50": "s",
    "store.dedup_share": "ratio",
    "registry.resolve_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "loadgen.lag_p90_s": "s",
    "obs.records_per_job": "count",
}


def pct(values: Iterable[float], q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


class Spans:
    """Index over the server's span dump."""

    def __init__(self, dump: Dict):
        self.rows = dump["spans"]
        self.by_id = {row[0]: row for row in self.rows}
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        for row in self.rows:
            self.by_name[row[2]].append(row)
        self.transitions = dump["transitions"]
        self.top_level: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for row in self.rows:
            if row[1] == -1:
                self.top_level[row[3]].append((row[4], row[5]))

    def named(self, *names: str) -> List[list]:
        return [row for name in names for row in self.by_name.get(name, ())]

    def durations(self, *names: str) -> List[float]:
        return [row[5] - row[4] for row in self.named(*names)]

    def outermost(self, *names: str) -> List[list]:
        """Spans of ``names`` with no ancestor among ``names``."""
        wanted = set(names)
        out = []
        for row in self.named(*names):
            parent = self.by_id.get(row[1])
            while parent is not None and parent[2] not in wanted:
                parent = self.by_id.get(parent[1])
            if parent is None:
                out.append(row)
        return out

    def top_level_on(self, thread: int, start: float, end: float):
        """Top-level spans of ``thread`` inside ``[start, end]``."""
        return [
            (t0, t1) for t0, t1 in self.top_level.get(thread, ())
            if t0 >= start and t1 <= end
        ]


def _union(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    covered, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _histogram_delta(before: Dict, after: Dict, name: str) -> Tuple[float, float]:
    """(sum, count) added to histogram ``name`` over the run."""

    def totals(families: Dict) -> Tuple[float, float]:
        family = families.get(name, {"samples": []})
        total = count = 0.0
        for sample, _labels, value in family["samples"]:
            if sample == f"{name}_sum":
                total += value
            elif sample == f"{name}_count":
                count += value
        return total, count

    (s0, c0), (s1, c1) = totals(before), totals(after)
    return s1 - s0, c1 - c0


def _counter_delta(before: Dict, after: Dict, name: str) -> float:
    def total(families: Dict) -> float:
        family = families.get(name, {"samples": []})
        return sum(value for _s, _l, value in family["samples"])

    return total(after) - total(before)


def _histogram_observations(before: Dict, after: Dict) -> float:
    return sum(
        _histogram_delta(before, after, name)[1]
        for name, family in after.items()
        if family.get("type") == "histogram"
    )


def closure(load: LoadResult, spans: Spans) -> Tuple[float, int]:
    """(unattributed share of the summed job walls, jobs measured)."""
    by_job = defaultdict(list)
    for job_id, state, stage, thread, t in spans.transitions:
        by_job[job_id].append((state, stage, thread, t))
    wall = attributed = 0.0
    jobs = 0
    for record in load.records:
        if not record.ok or record.job_id not in by_job:
            continue
        events = by_job[record.job_id]
        queued = next((t for s, _g, _th, t in events if s == "QUEUED"), None)
        running = next(
            ((th, t) for s, _g, th, t in events if s == "RUNNING"), None
        )
        terminal = next(
            (t for s, _g, _th, t in events if s == "SUCCEEDED"), None
        )
        if queued is None or running is None or terminal is None:
            continue
        thread, started = running
        lo, hi = record.sent_at, record.done_at
        intervals = [
            (record.sent_at, record.submitted_at),  # serve.http submit
            (queued, started),  # serve.jobs request-pool wait
            (terminal, record.last_poll_at),  # loadgen poll gap
            (record.last_poll_at, record.done_at),  # serve.http result
        ]
        intervals += spans.top_level_on(thread, started, terminal)
        wall += hi - lo
        attributed += _union(intervals, lo, hi)
        jobs += 1
    return ratio(wall - attributed, wall), jobs


def layer_metrics(
    load: LoadResult,
    reference: LoadResult,
    reference_s: float,
    spans: Spans,
    statuses: Dict[str, Dict],
    metrics_before: Dict,
    metrics_after: Dict,
) -> Dict[str, Tuple[float, int]]:
    """Per-layer metrics: name -> (value, sample count).

    ``reference`` is an untraced run of the first ``reference_s`` seconds
    of the same schedule; ``trace.overhead_share`` compares it with the
    jobs this run sent in that stretch.
    """
    m: Dict[str, Tuple[float, int]] = {}
    ok = [r for r in load.records if r.ok]
    delivered = sum(int(r.result.get("produced", 0)) for r in ok)
    jobs = len(load.records)

    def put(name: str, value: float, count: int) -> None:
        m[name] = (float(value), int(count))

    rtts = [r.submitted_at - r.sent_at for r in load.records if r.job_id]
    put("http.submit_rtt_p50_s", pct(rtts, 50), len(rtts))

    pool_waits, queue_waits, log_records = [], [], 0
    for status in statuses.values():
        states = {}
        for item in status["transitions"]:
            states.setdefault(item["state"], item["t"])
        if "QUEUED" in states and "RUNNING" in states:
            pool_waits.append(states["RUNNING"] - states["QUEUED"])
        queue_waits += [
            e["seconds"] for e in status["engine_events"]
            if e["kind"] == "queue_wait"
        ]
        log_records += (
            len(status["transitions"]) + len(status["stage_events"])
            + len(status["engine_events"])
        )
    put("jobs.pool_wait_p90_s", pct(pool_waits, 90), len(pool_waits))

    plans = spans.durations("agent.plan")
    put("agent.plan_s_p50", pct(plans, 50), len(plans))
    tools = spans.named("agent.tool")
    put("agent.tool_calls_per_pattern", ratio(len(tools), delivered), delivered)
    llm = spans.named("agent.llm")
    put("agent.llm_calls_per_request", ratio(len(llm), jobs), jobs)
    repairs = sum(
        1 for row in tools if (row[6] or {}).get("tool") == "Topology_Modification"
    ) + sum(1 for row in llm if (row[6] or {}).get("action") == "Regenerate")
    put("agent.repairs_per_pattern", ratio(repairs, delivered), delivered)

    samples = [
        row[5] - row[4]
        for row in spans.outermost("pipeline.sample", "pipeline.sample_topologies")
    ]
    put("pipeline.sample_s_p50", pct(samples, 50), len(samples))
    extends = spans.named("pipeline.extend_one")
    put(
        "pipeline.extend_s_p50",
        pct((row[5] - row[4] for row in extends), 50),
        len(extends),
    )

    put("engine.queue_wait_p50_s", pct(queue_waits, 50), len(queue_waits))
    put("engine.queue_wait_p90_s", pct(queue_waits, 90), len(queue_waits))
    size_sum, batches = _histogram_delta(
        metrics_before, metrics_after, "repro_batch_size_samples"
    )
    put("engine.batch_samples_mean", ratio(size_sum, batches), int(batches))
    chains = spans.named("diffusion.polish")  # B=1 repaint chains, off-engine
    trajectories = len(spans.named("diffusion.sample_batch")) + len(chains)
    put(
        "engine.trajectories_per_pattern",
        ratio(trajectories, delivered), delivered,
    )
    exec_sum, _ = _histogram_delta(
        metrics_before, metrics_after, "repro_batch_latency_seconds"
    )
    put("engine.execute_s_per_sample", ratio(exec_sum, size_sum), int(size_sum))
    busy = _counter_delta(
        metrics_before, metrics_after, "repro_worker_busy_seconds_total"
    )
    run_wall = load.ended_at - load.started_at
    put("engine.busy_share", ratio(busy, run_wall), int(batches))

    step_batch = spans.named("diffusion.step_batch")
    step_batch_s = sum(row[5] - row[4] for row in step_batch)
    step_samples = sum(row[6]["b"] for row in step_batch if row[6])
    put(
        "diffusion.step_s_per_sample",
        ratio(step_batch_s, step_samples), len(step_batch),
    )
    step_b1 = spans.durations("diffusion.step")
    put("diffusion.step_b1_s_p50", pct(step_b1, 50), len(step_b1))
    predict_s = sum(
        row[5] - row[4]
        for row in spans.outermost(
            "diffusion.predict_x0_many", "diffusion.predict_x0"
        )
    )
    denoise_s = step_batch_s + sum(step_b1) + sum(
        spans.durations("diffusion.polish_batch", "diffusion.polish")
    )
    put("diffusion.predict_x0_share", ratio(predict_s, denoise_s),
        len(step_batch) + len(step_b1))
    polish = spans.durations("diffusion.polish_batch", "diffusion.polish")
    put("diffusion.polish_s_p50", pct(polish, 50), len(polish))
    put(
        "diffusion.offengine_step_share",
        ratio(sum(step_b1), sum(step_b1) + step_batch_s),
        len(step_b1) + len(step_batch),
    )

    put("ops.repaint_windows_per_pattern", ratio(len(chains), delivered),
        delivered)
    samplings = [(row[6] or {}).get("samplings", 0) for row in extends]
    put("ops.samplings_per_extension", ratio(sum(samplings), len(samplings)),
        len(samplings))

    legalize = spans.named("legalize.one", "legalize.many")
    attempts = sum(row[6]["n"] for row in legalize if row[6])
    legal = sum(row[6]["legal"] for row in legalize if row[6])
    legalize_s = sum(row[5] - row[4] for row in legalize)
    put("legalize.s_per_pattern", ratio(legalize_s, attempts), attempts)
    put("legalize.fail_share", ratio(attempts - legal, attempts), attempts)

    stores = spans.named("store.persist")
    put("store.persist_s_p50", pct((r[5] - r[4] for r in stores), 50),
        len(stores))
    stored = sum(row[6]["n"] for row in stores if row[6])
    dedup = sum(row[6]["dedup"] for row in stores if row[6])
    put("store.dedup_share", ratio(dedup, stored), stored)

    resolves = spans.durations("registry.resolve")
    put("registry.resolve_s", sum(resolves), len(resolves))

    unattributed, measured = closure(load, spans)
    put("trace.unattributed_share", unattributed, measured)
    traced_wall, traced_jobs = _mean_wall(load, reference_s)
    untraced_wall, _ = _mean_wall(reference, reference_s)
    put(
        "trace.overhead_share",
        ratio(traced_wall - untraced_wall, untraced_wall),
        traced_jobs,
    )
    put("loadgen.lag_p90_s", pct(load.lags, 90) if load.lags else 0.0,
        len(load.lags))
    observations = _histogram_observations(metrics_before, metrics_after)
    put(
        "obs.records_per_job",
        ratio(log_records + observations, len(statuses)),
        len(statuses),
    )
    return m


def _mean_wall(load: LoadResult, within_s: float) -> Tuple[float, int]:
    """Mean send-to-fetch wall of the jobs sent in the first ``within_s``."""
    cutoff = load.started_at + within_s
    walls = [
        r.done_at - r.sent_at for r in load.records
        if r.ok and r.sent_at < cutoff
    ]
    return (float(np.mean(walls)) if walls else 0.0), len(walls)

"""ChatPattern serving benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chat_fixed --seed 1 --seconds 30 --trace 0

Boots the real HTTP server (``repro serve --http``) as its own process
with a fresh store and a cold model cache, drives it from this process
with at most two client threads, checks every delivered pattern, and
prints one metric per line followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` first repeats the untraced run (the reference wall for
``trace.overhead_share``), then runs the same schedule against a traced
server (``perfbench/tracing.py``) and reports the per-layer metrics.
The full result, with provenance and per-metric sample counts, is also
written to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from perfbench.check import CheckReport
    from perfbench.loadgen import LoadResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: extra boots (beyond the measured server) whose set-up times join the
#: median reported as ``setup_s``
EXTRA_BOOTS = 2
#: an open-loop run counts as overloaded when the second half of its
#: schedule averages more than GROWTH x the first half's backlog + SLACK
BACKLOG_GROWTH = 2.0
BACKLOG_SLACK = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "latency_mean_s": "s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "latency_p90_s": "s",
    "slo_attainment": "ratio",
    "goodput_patterns_s": "patterns/s",
    "legality": "ratio",
    "diversity": "bits",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
#: printed by name but left out of the result line.  A run holds 39 to 59
#: requests: the median of a mix of request sizes falls where the size
#: classes meet, and p90 has 4 to 6 samples beyond it, so both swing more
#: between runs than the line's mean and p75.  ``error_rate`` is 0 on a
#: healthy run; the line's ``failed`` / ``attempted`` carry it.
NOT_IN_RESULT_LINE = ("latency_p50_s", "latency_p90_s", "error_rate")


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


@dataclass
class Measurement:
    load: "LoadResult"
    setup_s: float
    peak_rss_mb: float
    check: "CheckReport"
    statuses: Dict[str, Dict] = field(default_factory=dict)
    metrics_before: Dict = field(default_factory=dict)
    metrics_after: Dict = field(default_factory=dict)
    spans: Optional[Dict] = None


def _require_source() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no repro sources at {SRC}; run from a checkout of the repository"
        )
    sys.path[:0] = [str(ROOT), str(SRC)]


def _measure(workload, seconds: float, run_dir: Path, traced: bool) -> Measurement:
    from repro.obs.export import parse_exposition
    from repro.serve.client import ServeClient

    from perfbench import check, loadgen
    from perfbench.server import Server

    spans_path = run_dir / "spans.json" if traced else None
    server = Server(ROOT, run_dir, workload.sampler_steps, spans_out=spans_path)
    with server:
        setup_s = server.boot()
        client = ServeClient(server.url, timeout=30.0)
        before = parse_exposition(client.metrics()) if traced else {}
        load = loadgen.run(workload, server.url, seconds)
        after = parse_exposition(client.metrics()) if traced else {}
        statuses = (
            {r.job_id: client.status(r.job_id) for r in load.records if r.job_id}
            if traced else {}
        )
        topologies = {
            r.job_id: [
                p["topology"]
                for p in client.result(r.job_id, include_topologies=True)[
                    "library"
                ]
            ]
            for r in load.records
            if r.ok
        }
        rss = server.peak_rss_mb()
        code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with {code}; see {run_dir}/server.log")
    report = check.check_run(load.records, topologies, server.store_dir)
    spans = None
    if traced:
        with open(spans_path) as handle:
            spans = json.load(handle)
    return Measurement(
        load=load, setup_s=setup_s, peak_rss_mb=rss, check=report,
        statuses=statuses, metrics_before=before, metrics_after=after,
        spans=spans,
    )


def _extra_setups(workload, run_dir: Path) -> List[float]:
    from perfbench.server import Server

    times = []
    for index in range(EXTRA_BOOTS):
        with Server(ROOT, run_dir / f"boot-{index}", workload.sampler_steps) as server:
            times.append(server.boot())
    return times


def _quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A beta-weighted average of every order statistic: with a few dozen
    latencies from a mix of request sizes it moves far less between runs
    than the one or two order statistics a plain percentile picks.
    """
    import numpy as np
    from scipy.stats import beta

    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1))
    return float(np.diff(edges) @ ordered)


def _end_to_end(workload, m: Measurement, setups: List[float]) -> Dict:
    load = m.load
    records = load.records
    attempted = len(records)
    ok = [r for r in records if r.ok]
    failed = attempted - len(ok)
    latencies = [r.latency() for r in ok]
    delivered = sum(int(r.result.get("produced", 0)) for r in ok)
    requested = sum(r.request.count for r in records)
    wall = load.ended_at - load.started_at
    within = sum(1 for lat in latencies if lat <= workload.latency_limit_s)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "latency_mean_s": (statistics.fmean(latencies) if latencies else 0.0,
                           len(latencies)),
        "latency_p50_s": (_quantile(latencies, 0.5), len(latencies)),
        "latency_p75_s": (_quantile(latencies, 0.75), len(latencies)),
        "latency_p90_s": (_quantile(latencies, 0.9), len(latencies)),
        "slo_attainment": (within / attempted, attempted),
        "goodput_patterns_s": (delivered / wall, delivered),
        "legality": (delivered / requested, requested),
        "diversity": (m.check.diversity, m.check.diversity_patterns),
        "error_rate": (failed / attempted, attempted),
        "peak_rss_mb": (m.peak_rss_mb, 1),
    }
    return metrics


def _validity(workload, load) -> Dict[str, float]:
    """Open-loop backlog at the schedule's midpoint and end, and averaged
    over each half.

    Both points sit at the same phase of the arrival pattern (just before
    a period starts).  The half averages decide whether the backlog grows:
    a single instant of a Poisson schedule can catch a cluster in flight.
    """
    from perfbench.loadgen import backlog, mean_backlog

    if workload.loop != "open":
        return {}
    period = workload.period_s
    if period:
        cycles = math.ceil(load.schedule_s / period)
        mid, end = (cycles // 2) * period, cycles * period
    else:
        mid, end = load.schedule_s / 2, load.schedule_s
    eps = 1e-3
    return {
        "backlog_mid": backlog(load, mid - eps),
        "backlog_end": backlog(load, end - eps),
        "backlog_mean_first_half": mean_backlog(load, 0.0, mid),
        "backlog_mean_second_half": mean_backlog(load, mid, end),
    }


def _provenance(seed: int) -> Dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _run_untraced(workload, seconds: float, run_dir: Path):
    measured = _measure(workload, seconds, run_dir / "untraced", traced=False)
    setups = [measured.setup_s] + _extra_setups(workload, run_dir)
    return [measured], _end_to_end(workload, measured, setups), E2E_UNITS


def _run_traced(workload, seconds: float, run_dir: Path):
    from perfbench import layers

    # Reference wall for trace.overhead_share: the first half of the same
    # schedule against an untraced server.
    half = seconds / 2
    prefix = dataclasses.replace(
        workload,
        requests=[r for r in workload.requests if r.due is None or r.due < half],
    )
    reference = _measure(prefix, half, run_dir / "reference", traced=False)
    measured = _measure(workload, seconds, run_dir / "traced", traced=True)
    reported = layers.layer_metrics(
        measured.load, reference.load, half, layers.Spans(measured.spans),
        measured.statuses, measured.metrics_before, measured.metrics_after,
    )
    return [reference, measured], reported, layers.UNITS


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict:
    _require_source()
    from perfbench import workloads

    workload = workloads.build(workload_name, seed, seconds)
    work_root = ROOT / ".perfbench"
    run_dir = work_root / "runs" / f"{workload_name}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        measurements, reported, units = (
            _run_traced if trace else _run_untraced
        )(workload, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    load = measurements[-1].load
    validity = _validity(workload, load)
    if validity and validity["backlog_mean_second_half"] > (
        BACKLOG_GROWTH * validity["backlog_mean_first_half"] + BACKLOG_SLACK
    ):
        raise BenchError(
            "open-loop backlog grew from "
            f"{validity['backlog_mean_first_half']:.2f} to "
            f"{validity['backlog_mean_second_half']:.2f} requests on average: "
            "the server does not keep up with the arrival rate, so "
            "latencies would be meaningless"
        )
    problems = [p for m in measurements for p in m.check.problems]
    result = {
        "workload": workload_name,
        "why": workload.why,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": _provenance(seed),
        "validity": validity,
        "problems": problems,
        "requests": [
            {
                "count": r.request.count,
                "due": r.request.due,
                "latency_s": r.latency() if r.ok else None,
                "error": r.error,
            }
            for r in load.records
        ],
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": count}
            for name, (value, count) in reported.items()
        },
    }
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for name, item in result["metrics"].items():
        print(f"{workload_name} {name} = {item['value']:.6g} {item['unit']} "
              f"(n={item['samples']})")
    for key, value in {**result["provenance"], **validity}.items():
        print(f"{workload_name} {key}: {value}")
    for problem in problems:
        print(f"{workload_name} CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": len(load.records),
        "failed": sum(1 for r in load.records if not r.ok),
        "metrics": {
            name: {"value": item["value"], "unit": item["unit"]}
            for name, item in result["metrics"].items()
            if name not in NOT_IN_RESULT_LINE
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the servers this run started
    # are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

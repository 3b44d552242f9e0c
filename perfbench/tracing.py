"""Traced server launcher: ``repro.cli`` with spans around each layer.

Usage (what ``perfbench/server.py`` runs for a traced boot)::

    python perfbench/tracing.py --spans-out SPANS.json -- <repro cli args>

Before handing over to :func:`repro.cli.main`, the launcher wraps the
public functions of each layer (the ``WRAPPED`` table) with spans.  A span
is ``[id, parent, name, thread, start, end, detail]``: ``parent`` is the
innermost open span of the same thread, times are ``time.perf_counter()``
(the system-wide monotonic clock on Linux, so they line up with the load
generator's), and ``detail`` carries the counts a layer metric needs.
Job state transitions are logged as ``[job_id, state, stage, thread,
time]``.  Everything stays in memory and is written out once, when the
server has drained and ``repro.cli.main`` returns.  No source under
``src/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


def _tool_detail(args, kwargs, result) -> Dict:
    detail = {"tool": args[1] if len(args) > 1 else kwargs.get("name")}
    detail["ok"] = bool(getattr(result, "ok", False))
    data = getattr(result, "data", None) or {}
    if "samplings" in data:
        detail["samplings"] = int(data["samplings"])
    return detail


_ACTION_RE = re.compile(r"Action:\s*([\w_]+)")


def _llm_detail(args, kwargs, result) -> Dict:
    match = _ACTION_RE.search(result or "")
    return {"action": match.group(1) if match else None}


def _batch_detail(args, kwargs, result) -> Dict:
    return {"b": int(len(args[1]))}


def _extend_detail(args, kwargs, result) -> Dict:
    return {"samplings": int(result.samplings)}


def _legalize_one_detail(args, kwargs, result) -> Dict:
    return {"n": 1, "legal": int(bool(result.ok))}


def _legalize_many_detail(args, kwargs, result) -> Dict:
    return {"n": int(result.total), "legal": len(result.legal)}


def _store_detail(args, kwargs, result) -> Dict:
    return {
        "n": int(result.added + result.deduplicated),
        "dedup": int(result.deduplicated),
    }


#: (module, class, method, span name, detail extractor)
WRAPPED = (
    ("repro.agent.planner", "TaskPlanner", "auto_format", "agent.plan", None),
    ("repro.agent.executor", "TaskExecutor", "execute", "agent.execute", None),
    ("repro.agent.tools", "AgentTools", "call", "agent.tool", _tool_detail),
    ("repro.agent.backend", "LLMBackend", "complete", "agent.llm", _llm_detail),
    ("repro.api.pipeline", "PatternPipeline", "sample", "pipeline.sample", None),
    ("repro.api.pipeline", "PatternPipeline", "sample_topologies",
     "pipeline.sample_topologies", None),
    ("repro.api.pipeline", "PatternPipeline", "extend_one",
     "pipeline.extend_one", _extend_detail),
    ("repro.api.pipeline", "PatternPipeline", "legalize_one",
     "legalize.one", _legalize_one_detail),
    ("repro.api.pipeline", "PatternPipeline", "legalize_topologies",
     "legalize.many", _legalize_many_detail),
    ("repro.api.pipeline", "PatternPipeline", "score", "pipeline.score", None),
    ("repro.api.pipeline", "PatternPipeline", "persist", "pipeline.persist", None),
    ("repro.serve.batching", "BatchedSamplingModel", "sample",
     "engine.wait", None),
    ("repro.diffusion.model", "ConditionalDiffusionModel", "sample_batch",
     "diffusion.sample_batch", _batch_detail),
    ("repro.diffusion.model", "ConditionalDiffusionModel", "denoise_step_batch",
     "diffusion.step_batch", _batch_detail),
    ("repro.diffusion.model", "ConditionalDiffusionModel", "denoise_step",
     "diffusion.step", None),
    ("repro.diffusion.model", "ConditionalDiffusionModel", "polish_batch",
     "diffusion.polish_batch", None),
    ("repro.diffusion.model", "ConditionalDiffusionModel", "polish",
     "diffusion.polish", None),
    ("repro.diffusion.denoisers.neighborhood", "NeighborhoodDenoiser",
     "predict_x0_many", "diffusion.predict_x0_many", None),
    ("repro.diffusion.denoisers.neighborhood", "NeighborhoodDenoiser",
     "predict_x0", "diffusion.predict_x0", None),
    ("repro.serve.store", "LibraryStore", "add_library", "store.persist",
     _store_detail),
    ("repro.serve.registry", "ModelRegistry", "resolve", "registry.resolve",
     None),
)


class SpanLog:
    """In-memory span and job-transition sink shared by every wrapper."""

    def __init__(self):
        self.spans: List[list] = []
        self.transitions: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, method: str, name: str, detail: Optional[Callable]):
        original = getattr(owner, method)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [next(ids), stack[-1] if stack else -1, name,
                    threading.get_ident(), time.perf_counter(), 0.0, None]
            stack.append(span[0])
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if detail is not None and result is not None:
                    span[6] = detail(args, kwargs, result)
                spans.append(span)

        setattr(owner, method, traced)

    def wrap_transitions(self, job_cls) -> None:
        original = job_cls.transition
        log = self.transitions

        @functools.wraps(original)
        def transition(job, state, stage=None, **detail):
            changed = original(job, state, stage=stage, **detail)
            if changed:
                log.append([job.job_id, state, stage, threading.get_ident(),
                            time.perf_counter()])
            return changed

        job_cls.transition = transition

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "transitions": self.transitions}, handle
            )


def install(log: SpanLog) -> None:
    import importlib

    for module_name, cls_name, method, name, detail in WRAPPED:
        owner = getattr(importlib.import_module(module_name), cls_name)
        log.wrap(owner, method, name, detail)
    from repro.serve.jobs import Job

    log.wrap_transitions(Job)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args and repro_args[0] == "--":
        repro_args = repro_args[1:]
    log = SpanLog()
    install(log)
    from repro.cli import main as cli_main

    try:
        return cli_main(repro_args)
    finally:
        log.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())

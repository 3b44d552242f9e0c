"""Output correctness: every delivered pattern is persisted, legal and of
the shape and style its request asked for.

Runs after the server has exited, on the store it leaves behind:

- the store is reopened with :class:`LibraryStore`;
- every persisted pattern is re-checked with
  :func:`repro.drc.checker.check_pattern` against
  :func:`repro.drc.rules.rules_for_style` of its style;
- every SUCCEEDED job produced at most the patterns it requested, each of
  the requested topology shape, and each found in the store under the
  requested style (content hash of style + topology);
- the store holds nothing that no job delivered.

Diversity (Table-1 "H") is taken over the first ``DIVERSITY_PATTERNS``
patterns in delivery order, so a closed-loop run that delivers more
patterns in its window does not score a higher entropy for that alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.drc.checker import check_pattern
from repro.drc.rules import rules_for_style
from repro.metrics.diversity import diversity
from repro.serve.store import LibraryStore, pattern_content_hash
from repro.squish.pattern import SquishPattern

from perfbench.loadgen import JobRecord

#: library size the diversity metric is measured on
DIVERSITY_PATTERNS = 30


@dataclass
class CheckReport:
    problems: List[str] = field(default_factory=list)
    diversity: float = 0.0
    diversity_patterns: int = 0


def _hash(topology: np.ndarray, style: str) -> str:
    rows, cols = topology.shape
    pattern = SquishPattern(
        topology, np.ones(cols, dtype=np.int64), np.ones(rows, dtype=np.int64),
        style=style,
    )
    return pattern_content_hash(pattern)


def check_run(
    records: List[JobRecord], topologies: Dict[str, List], store_dir: Path
) -> CheckReport:
    """``topologies`` maps job id -> the topologies its result returned."""
    report = CheckReport()
    store = LibraryStore(store_dir)
    try:
        stored = {r.content_hash: r for r in store.records()}
        for content_hash, record in stored.items():
            pattern = store.get(content_hash)
            drc = check_pattern(pattern, rules_for_style(record.style))
            if not drc.is_clean:
                report.problems.append(
                    f"stored pattern {content_hash[:12]} ({record.style}) "
                    f"fails DRC: {len(drc.violations)} violation(s)"
                )
    finally:
        store.close()

    delivered = set()
    in_order = []
    for record in sorted(records, key=lambda r: r.done_at or 0.0):
        if not record.ok:
            continue
        request = record.request
        result = record.result
        produced = int(result.get("produced", 0))
        entries = result.get("library", [])
        tag = f"job {record.job_id}"
        if produced > request.count:
            report.problems.append(
                f"{tag} produced {produced} > requested {request.count}"
            )
        if len(entries) != produced:
            report.problems.append(
                f"{tag} returned {len(entries)} pattern(s) but claims "
                f"{produced}"
            )
        for entry in entries:
            if tuple(entry["shape"]) != tuple(request.shape):
                report.problems.append(
                    f"{tag} pattern shape {entry['shape']} != requested "
                    f"{list(request.shape)}"
                )
        for topology in topologies.get(record.job_id, []):
            topo = np.asarray(topology, dtype=np.uint8)
            content_hash = _hash(topo, request.style)
            if content_hash not in stored:
                report.problems.append(
                    f"{tag} delivered a {request.style} pattern the store "
                    "does not hold under that style"
                )
            delivered.add(content_hash)
            in_order.append(topo)
    sample = in_order[:DIVERSITY_PATTERNS]
    report.diversity = diversity(sample) if sample else 0.0
    report.diversity_patterns = len(sample)
    stray = set(stored) - delivered
    if stray:
        report.problems.append(
            f"store holds {len(stray)} pattern(s) no job delivered"
        )
    return report

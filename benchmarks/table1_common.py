"""Shared evaluation helpers for the Table-1 benchmarks.

Implements the paper's protocol: no topology selection, no modification
retries; every generated topology is legalized exactly once and failures
count against the method (fixed-size / extension methods), while the
concatenation baseline is DRC-checked after stitching individually
legalized patches (it has no joint solver).  Diversity (Eq. 8) is computed
on legal patterns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.data import TILE_NM, reference_library
from repro.drc import check_pattern, rules_for_style
from repro.metrics import diversity, legalize_sequential
from repro.ops import concat_legalized_patterns, extend
from repro.squish.pattern import PatternLibrary


@dataclass
class Cell:
    """One (method, style) cell of Table 1."""

    legality: Optional[float]
    diversity: float
    count: int
    #: extension rows: paper window count and batched trajectories, summed
    samplings: int = 0
    trajectories: int = 0

    def fmt_legality(self) -> str:
        return "/" if self.legality is None else f"{self.legality:.2%}"

    def fmt_diversity(self) -> str:
        return f"{self.diversity:.3f}"


def real_patterns_cell(style: str, size: int, count: int, seed: int = 77) -> Cell:
    """'Real Patterns' reference row (legality not applicable)."""
    library = reference_library(style, count, size, seed=seed)
    return Cell(legality=None, diversity=diversity(library), count=count)


def generator_cell(
    topologies: List[np.ndarray], style: str
) -> Cell:
    """Legalize generated topologies and evaluate (fixed-size protocol)."""
    result = legalize_sequential(topologies, style)
    return Cell(
        legality=result.legality,
        diversity=diversity(result.legal),
        count=len(topologies),
    )


def extension_cell(
    model, style: str, condition: int, size: int, count: int,
    method: str, rng: np.random.Generator,
) -> Cell:
    """ChatPattern free-size row: extend then legalize jointly."""
    results = [
        extend(model, (size, size), condition, rng, method=method)
        for _ in range(count)
    ]
    cell = generator_cell([r.topology for r in results], style)
    cell.samplings = sum(r.samplings for r in results)
    cell.trajectories = sum(r.trajectories for r in results)
    return cell


def concat_cell(
    model, style: str, condition: int, size: int, count: int,
    rng: np.random.Generator,
) -> Cell:
    """DiffPattern-w/-concatenation row: stitch legal patches, DRC check."""
    rules = rules_for_style(style)
    legal = PatternLibrary(name=f"concat-{style}")
    for _ in range(count):
        result = concat_legalized_patterns(
            model, (size, size), condition, rng, rules, TILE_NM, style
        )
        if result.pattern is None:
            continue
        if check_pattern(result.pattern, rules).is_clean:
            legal.add(result.pattern)
    return Cell(
        legality=len(legal) / count if count else 0.0,
        diversity=diversity(legal),
        count=count,
    )


def total_cell(cells: Dict[str, Cell], libraries: List[PatternLibrary]) -> Cell:
    """The 'Total' column: joint evaluation over both styles' samples."""
    merged = PatternLibrary(name="total")
    total = 0
    legal = 0
    for cell in cells.values():
        if cell.legality is not None:
            total += cell.count
            legal += int(round(cell.legality * cell.count))
    for library in libraries:
        merged.extend(list(library))
    return Cell(
        legality=(legal / total) if total else None,
        diversity=diversity(merged),
        count=total,
    )

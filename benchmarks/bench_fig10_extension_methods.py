"""E7 — Figure 10: In-Painting vs Out-Painting, legality and diversity.

Regenerates the experience-document statistics the agent learns from: for
each style, extend to 256^2 with both algorithms and compare Legality /
Diversity.  The paper's documented insight: out-painting typically yields
better legality, while in-painting excels in diversity under certain
conditions.  The measured records are appended to an ExperienceDocuments
instance, exactly the artefact the agent consumes.
"""

import numpy as np

from benchmarks.conftest import print_table, scale
from benchmarks.table1_common import extension_cell
from repro.agent import ExperienceDocuments, ExtensionRecord
from repro.data import STYLES

SIZE = 256
COUNT = 5 * scale()


def _evaluate(chatpattern_model):
    rng = np.random.default_rng(10)
    documents = ExperienceDocuments()
    rows = []
    cells = {}
    for idx, style in enumerate(STYLES):
        for method in ("out", "in"):
            cell = extension_cell(
                chatpattern_model, style, idx, SIZE, COUNT, method, rng
            )
            cells[(style, method)] = cell
            documents.record_extension(
                ExtensionRecord(
                    style=style,
                    method=method.capitalize(),
                    size=SIZE,
                    legality=cell.legality,
                    diversity=cell.diversity,
                )
            )
            rows.append(
                [
                    style,
                    f"{method}-painting",
                    cell.fmt_legality(),
                    cell.fmt_diversity(),
                    f"{cell.samplings / COUNT:.1f}",
                    f"{cell.trajectories / COUNT:.1f}",
                ]
            )
    print_table(
        f"Figure 10 (extension methods at {SIZE}x{SIZE}, {COUNT}/cell)",
        ["Style", "Method", "Legality", "Diversity", "Samplings/ext",
         "Trajectories/ext"],
        rows,
    )
    print("\nExperience document the agent would consume:")
    print(documents.summary_text())
    for style in STYLES:
        rec = documents.recommend_extension(style, size=SIZE, objective="legality")
        print(f"recommended for {style} (legality objective): {rec}-painting"
              if rec in ("In", "Out") else rec)
    return cells, documents


def test_fig10_extension_methods(benchmark, chatpattern_model):
    cells, documents = benchmark.pedantic(
        _evaluate, args=(chatpattern_model,), rounds=1, iterations=1
    )
    for key, cell in cells.items():
        assert cell.legality is not None and 0.0 <= cell.legality <= 1.0
    # The documents must now produce data-driven recommendations.
    assert documents.records
    assert documents.recommend_extension(STYLES[0], size=SIZE) in ("In", "Out")

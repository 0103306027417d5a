"""Feature-importance rankings: effort-based, impurity-based, and random."""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .forest import FeatureMeta
from .solver import Solution


@dataclass
class Ranking:
    method: str
    eta: int
    entries: list[tuple[int, str, float]]   # (feature index, name, score), descending
    cohort_size: int = 0
    excluded: int = 0                        # infeasible / timed-out solutions left out

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        scores = [s for _, _, s in self.entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")

    def top(self, count: int | None = None) -> list[int]:
        count = self.eta if count is None else count
        if count < 0:
            raise ValueError(f"cannot take the top {count} features")
        return [j for j, _, _ in self.entries[:count]]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "score", "rank"])
            for rank, (j, name, score) in enumerate(self.entries, start=1):
                writer.writerow([name, f"{score:.6g}", rank])

    def to_svg(self, path, width: int = 640, bar_height: int = 22) -> None:
        """Minimal horizontal bar chart of the scores."""
        top = max((s for _, _, s in self.entries), default=1.0) or 1.0
        rows = []
        for i, (j, name, score) in enumerate(self.entries):
            y = 10 + i * (bar_height + 6)
            w = (width - 220) * score / top
            rows.append(
                f'<text x="4" y="{y + bar_height - 6}" font-size="12">{name}</text>'
                f'<rect x="160" y="{y}" width="{w:.1f}" height="{bar_height}" fill="#4878a8"/>'
                f'<text x="{164 + w:.1f}" y="{y + bar_height - 6}" font-size="12">{score:.3g}</text>'
            )
        height = 10 + len(self.entries) * (bar_height + 6) + 10
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            + "".join(rows)
            + "</svg>"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")


def _mutable(metas: list[FeatureMeta], eta: int) -> list[FeatureMeta]:
    mutable = [m for m in metas if m.mutable]
    if not 0 <= eta <= len(mutable):
        raise ValueError(f"eta must be in 0..{len(mutable)}, the mutable features, got {eta}")
    return mutable


def effort_ranking(solutions: list[Solution], metas: list[FeatureMeta], eta: int,
                   weighted: bool = False) -> Ranking:
    """Rank mutable features by how often solutions put effort on them.

    Scores count solutions with any effort on the feature; ``weighted`` sums
    the effort units instead. Infeasible and timed-out solutions are excluded
    (and counted in ``excluded``).
    """
    mutable = _mutable(metas, eta)
    usable = [s for s in solutions if s.status == "optimal" and s.effort is not None]
    excluded = len(solutions) - len(usable)
    if not usable:
        raise ValueError("no feasible solutions to rank")
    scores = {m.index: 0.0 for m in mutable}
    for sol in usable:
        for j, e in enumerate(sol.effort):
            if e >= 1 and j in scores:
                scores[j] += e if weighted else 1.0
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = [(j, metas[j].name, s) for j, s in ordered]
    return Ranking("effort", eta, entries, cohort_size=len(usable), excluded=excluded)


def rfr_ranking(importances, metas: list[FeatureMeta], eta: int) -> Ranking:
    """Impurity importances restricted to mutable features, top-eta published."""
    mutable = _mutable(metas, eta)
    ordered = sorted(((float(importances[m.index]), m) for m in mutable),
                     key=lambda kv: (-kv[0], kv[1].index))
    entries = [(m.index, m.name, score) for score, m in ordered]
    return Ranking("rfr", eta, entries)


def rsr_ranking(metas: list[FeatureMeta], eta: int, seed: int) -> Ranking:
    """Uniform random eta-subset of the mutable features."""
    mutable = _mutable(metas, eta)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x757]))
    picked = rng.choice([m.index for m in mutable], size=eta, replace=False)
    entries = [(int(j), metas[int(j)].name, 1.0) for j in sorted(picked)]
    return Ranking("rsr", eta, entries)


def load_ranking_csv(path, metas: list[FeatureMeta], eta: int, method: str = "csv") -> Ranking:
    by_name = {m.name: m for m in metas}
    entries = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            meta = by_name.get(row["feature"])
            if meta is None:
                raise ValueError(f"unknown feature {row['feature']!r} in ranking file")
            entries.append((meta.index, meta.name, float(row["score"])))
    entries.sort(key=lambda e: (-e[2], e[0]))
    return Ranking(method, eta, entries)

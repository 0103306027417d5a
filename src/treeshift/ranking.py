"""Feature-importance rankings: effort-based, impurity-based, and random."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import cell_errors
from .documents import read_csv, write_csv
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
        if self.eta > len(self.entries):   # top() would name fewer than eta features
            raise ValueError(f"eta {self.eta} exceeds the {len(self.entries)} ranked features")
        scores = [s for _, _, s in self.entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")

    def top(self, count: int | None = None) -> list[int]:
        count = self.eta if count is None else count
        if count < 0:
            raise ValueError(f"cannot take the top {count} features")
        return [j for j, _, _ in self.entries[:count]]

    def to_csv(self, path) -> None:
        write_csv(path, ["feature", "score", "rank"],
                  [[name, f"{score:.6g}", rank]
                   for rank, (_, name, score) in enumerate(self.entries, start=1)])

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


def _scores(columns, column) -> dict[str, float]:
    """{feature: its number in ``column``} of a CSV's columns; a feature named twice and a
    missing, non-numeric or non-finite number are rejected."""
    names = columns["feature"]
    for name in names:
        if names.count(name) > 1:   # one of its numbers would be dropped
            raise ValueError(f"feature {name!r} is named twice")
    for _, message in cell_errors(columns[column], column):
        raise ValueError(message)
    return dict(zip(names, map(float, columns[column])))


def load_importances_csv(path, metas: list[FeatureMeta]) -> list[float]:
    """Per feature, its importance in the CSV ``train`` writes; 0 for a feature it omits."""
    by_name = read_csv(path, ("feature", "importance"), lambda columns: _scores(columns, "importance"))
    return [by_name.get(m.name, 0.0) for m in metas]


def load_ranking_csv(path, metas: list[FeatureMeta], eta: int, method: str = "csv") -> Ranking:
    by_name = {m.name: m for m in metas}

    def parse(columns):
        entries = []
        for name, score in _scores(columns, "score").items():
            meta = by_name.get(name)
            if meta is None:
                raise ValueError(f"unknown feature {name!r} in ranking file")
            entries.append((meta.index, meta.name, score))
        return Ranking(method, eta, sorted(entries, key=lambda e: (-e[2], e[0])))

    return read_csv(path, ("feature", "score"), parse)

import numpy as np
import pytest

from treeshift import (FeatureMeta, Ranking, Solution, effort_ranking,
                       load_ranking_csv, rfr_ranking, rsr_ranking, solve_max_path)
from treeshift.fixtures import firefighter_forest, firefighter_table

METAS = [
    FeatureMeta(0, "age", mutable=False, beneficial="none"),
    FeatureMeta(1, "fcvc", mutable=True, beneficial="increase"),
    FeatureMeta(2, "ch2o", mutable=True, beneficial="increase"),
    FeatureMeta(3, "favc", kind="binary", mutable=True, beneficial="to_zero"),
]


def _sol(effort, status="optimal"):
    return Solution(status=status, effort=effort)


def test_effort_ranking_counts():
    sols = [_sol((0, 1, 0, 0)), _sol((0, 1, 0, 0)), _sol((0, 0, 1, 0))]
    ranking = effort_ranking(sols, METAS, eta=1)
    assert ranking.entries[0][:2] == (1, "fcvc")
    assert ranking.entries[0][2] == 2.0
    assert ranking.entries[1][2] == 1.0
    assert sum(s for _, _, s in ranking.entries) <= 1 * len(sols)


def test_effort_ranking_identical_solutions():
    sols = [_sol((0, 0, 1, 1))] * 4
    ranking = effort_ranking(sols, METAS, eta=2)
    assert ranking.top(2) == [2, 3]
    assert [s for _, _, s in ranking.entries] == [4.0, 4.0, 0.0]


def test_effort_ranking_excludes_infeasible():
    sols = [_sol((0, 1, 0, 0)), _sol(None, status="infeasible"), _sol(None, status="timeout")]
    ranking = effort_ranking(sols, METAS, eta=1)
    assert ranking.cohort_size == 1 and ranking.excluded == 2


def test_effort_ranking_empty_cohort_errors():
    with pytest.raises(ValueError):
        effort_ranking([_sol(None, status="infeasible")], METAS, eta=1)


def test_effort_ranking_on_firefighter_cohort():
    forest, table = firefighter_forest(), firefighter_table()
    from treeshift import ProblemInstance
    sols = [
        solve_max_path(forest, ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1), table)
        for _ in range(3)
    ]
    ranking = effort_ranking(sols, forest.feature_metas, eta=1)
    assert ranking.entries[0][1] == "A" and ranking.entries[0][2] == 3.0
    assert ranking.entries[1][1] == "S" and ranking.entries[1][2] == 0.0


def test_effort_ranking_weighted_flag():
    sols = [_sol((0, 2, 0, 0)), _sol((0, 1, 1, 0))]
    plain = effort_ranking(sols, METAS, eta=1)
    weighted = effort_ranking(sols, METAS, eta=1, weighted=True)
    assert plain.entries[0][2] == 2.0      # two solutions touch fcvc
    assert weighted.entries[0][2] == 3.0   # three units on fcvc


def test_rfr_ranking_skips_immutables():
    importances = np.array([0.9, 0.05, 0.03, 0.02])   # age dominates but is immutable
    ranking = rfr_ranking(importances, METAS, eta=2)
    assert all(name != "age" for _, name, _ in ranking.entries)
    assert ranking.top(2) == [1, 2]


def test_rfr_ranking_eta_one():
    importances = np.array([0.0, 0.1, 0.05, 0.0])
    assert rfr_ranking(importances, METAS, eta=1).top(1) == [1]


def test_rfr_ranking_needs_enough_mutables():
    with pytest.raises(ValueError):
        rfr_ranking(np.ones(4) / 4, METAS, eta=4)


def test_rsr_ranking_deterministic():
    a = rsr_ranking(METAS, eta=2, seed=42)
    b = rsr_ranking(METAS, eta=2, seed=42)
    assert a.entries == b.entries


def test_rsr_ranking_all_mutables():
    ranking = rsr_ranking(METAS, eta=3, seed=0)
    assert sorted(ranking.top(3)) == [1, 2, 3]


def test_rsr_ranking_uniform_frequency():
    counts = {1: 0, 2: 0, 3: 0}
    n = 10_000
    for seed in range(n):
        for j in rsr_ranking(METAS, eta=1, seed=seed).top(1):
            counts[j] += 1
    p = 1 / 3
    bound = 3 * np.sqrt(p * (1 - p) / n)
    for j in counts:
        assert counts[j] / n == pytest.approx(p, abs=bound)


def test_rankings_never_contain_immutables():
    for seed in range(5):
        assert 0 not in rsr_ranking(METAS, eta=2, seed=seed).top(2)


def test_ranking_rejects_increasing_scores():
    with pytest.raises(ValueError):
        Ranking("m", 1, [(1, "a", 0.1), (2, "b", 0.5)])


def test_negative_eta_rejected():
    # eta = -1 used to publish every feature but the last
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        Ranking("m", -1, [(1, "a", 0.5), (2, "b", 0.1)])
    with pytest.raises(ValueError, match="eta must be in 0..3"):
        rfr_ranking(np.ones(4) / 4, METAS, eta=-1)
    with pytest.raises(ValueError, match="eta must be in 0..3"):
        rsr_ranking(METAS, eta=-1, seed=0)
    with pytest.raises(ValueError, match="eta must be in 0..3"):
        effort_ranking([_sol((0, 1, 0, 0))], METAS, eta=-1)


def test_effort_ranking_rejects_more_features_than_are_mutable():
    # eta = 4 used to give a ranking whose top() has 3 features
    sols = [_sol((0, 1, 0, 0))]
    assert effort_ranking(sols, METAS, eta=3).top() == [1, 2, 3]
    with pytest.raises(ValueError, match="eta must be in 0..3, the mutable features, got 4"):
        effort_ranking(sols, METAS, eta=4)


def test_top_rejects_a_negative_count():
    ranking = Ranking("m", 1, [(1, "a", 0.5), (2, "b", 0.1)])
    assert ranking.top(0) == []
    with pytest.raises(ValueError, match="cannot take the top -1 features"):
        ranking.top(-1)


def test_ranking_csv_round_trip(tmp_path):
    sols = [_sol((0, 1, 0, 1)), _sol((0, 1, 0, 0))]
    ranking = effort_ranking(sols, METAS, eta=2)
    path = tmp_path / "r.csv"
    ranking.to_csv(path)
    again = load_ranking_csv(path, METAS, eta=2)
    assert [e[:2] for e in again.entries] == [e[:2] for e in ranking.entries]


def test_ranking_svg_smoke(tmp_path):
    ranking = rsr_ranking(METAS, eta=2, seed=1)
    path = tmp_path / "r.svg"
    ranking.to_svg(path)
    text = path.read_text()
    assert text.startswith("<svg") and "rect" in text

"""Proper scoring rules: values, divergences, propriety, and symmetry."""

import math

import numpy as np
import pytest

from peerspot import (
    LOGARITHMIC,
    QUADRATIC,
    LogOfZero,
    ScoringRule,
    check_symmetry,
    divergence,
    rule_from_name,
    score,
)
from peerspot.signals import Distribution, LabelSpace

SPACE = LabelSpace.of((0, 1))


def dist(*probs):
    return Distribution.from_array(LabelSpace.of(tuple(range(len(probs)))), probs)


class TestScores:
    def test_quadratic_point_mass(self):
        assert score(QUADRATIC, dist(1.0, 0.0), 0) == pytest.approx(1.0)

    def test_quadratic_formula(self):
        assert score(QUADRATIC, dist(0.7, 0.3), 0) == pytest.approx(0.82, abs=1e-12)

    def test_log_point_mass(self):
        assert score(LOGARITHMIC, dist(0.0, 1.0), 1) == pytest.approx(0.0)

    def test_log_of_zero_raises(self):
        with pytest.raises(LogOfZero):
            score(LOGARITHMIC, dist(1.0, 0.0), 1)

    def test_rule_lookup(self):
        assert rule_from_name("quadratic") is QUADRATIC
        assert rule_from_name("log") is LOGARITHMIC


class TestDivergence:
    def test_identical_arguments(self):
        for rule in (QUADRATIC, LOGARITHMIC):
            assert divergence(rule, dist(0.4, 0.6), dist(0.4, 0.6)) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_opposite_point_masses(self):
        assert divergence(QUADRATIC, dist(1.0, 0.0), dist(0.0, 1.0)) == pytest.approx(2.0)

    def test_quadratic_equals_squared_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            assert divergence(QUADRATIC, a, b) == pytest.approx(np.sum((a - b) ** 2), abs=1e-12)

    def test_log_divergence_onto_zero_mass_is_infinite(self):
        assert divergence(LOGARITHMIC, dist(0.5, 0.5), dist(1.0, 0.0)) == math.inf
        assert divergence(LOGARITHMIC, dist(1.0, 0.0), dist(1.0, 0.0)) == 0.0

    def test_log_divergence_is_kl(self):
        got = divergence(LOGARITHMIC, dist(0.5, 0.5), dist(0.25, 0.75))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.dirichlet(np.ones(4)) + 1e-6
            b = rng.dirichlet(np.ones(4)) + 1e-6
            a, b = a / a.sum(), b / b.sum()
            for rule in (QUADRATIC, LOGARITHMIC):
                assert divergence(rule, a, b) >= -1e-12


class _OffsetByLabel(ScoringRule):
    """Deliberately asymmetric: adds the outcome index to the quadratic score."""

    name = "offset"

    def score_table(self, beliefs):
        table = QUADRATIC.score_table(beliefs)
        return table + np.arange(table.shape[1])


class TestSymmetry:
    def test_builtin_rules_are_symmetric(self):
        for rule in (QUADRATIC, LOGARITHMIC):
            for k in (2, 3, 4):
                assert check_symmetry(rule, k)

    def test_constructed_asymmetric_rule(self):
        assert not check_symmetry(_OffsetByLabel(), 3)


class TestPropriety:
    @pytest.mark.parametrize("labels", [2, 3])
    def test_grid_propriety(self, labels):
        step = 0.1
        ticks = int(1 / step)
        import itertools

        grid = []
        for combo in itertools.combinations_with_replacement(range(labels), ticks):
            counts = np.bincount(combo, minlength=labels)
            grid.append(counts / ticks)
        grid = np.array(grid)
        for rule in (QUADRATIC, LOGARITHMIC):
            use = grid[np.all(grid > 0, axis=1)] if rule is LOGARITHMIC else grid
            tables = rule.score_table(use)
            matrix = use @ tables.T
            diag = np.diag(matrix)
            slack = diag[:, None] - matrix
            assert slack.min() >= -1e-9
            distinct = ~np.isclose(use[:, None, :], use[None, :, :]).all(axis=2)
            assert np.all(slack[distinct] > 1e-9)

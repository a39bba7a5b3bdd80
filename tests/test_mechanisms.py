"""Mechanism rewards: the realized-reward reference, exact expectations, Monte Carlo."""

import re
from dataclasses import replace

import numpy as np
import pytest

from peerspot import (
    ConfigError,
    EnumerationBudgetExceeded,
    LabelSpace,
    MechanismKind,
    MechanismSpec,
    NonBinaryLabelSpace,
    NotEnoughObjects,
    QUADRATIC,
    ShapeMismatch,
    StrategyProfile,
    TooFewAgents,
    analytic_unchecked_value,
    low_identity_strategy,
    simulate_utilities,
    truthful_strategy,
)
from peerspot.harness import parse_config
from peerspot.mechanisms import KINDS
from peerspot.scoring import LOGARITHMIC, NEGATIVE_SENTINEL

from conftest import random_environment
from realized_rewards import (
    NoDisjointTaskSets,
    NoPeer,
    RealizedInstance,
    reward_correlated_agreement,
    reward_divergence_bts,
    reward_double_mixed_agreement,
    reward_minimum_truth_serum,
    reward_multi_valued_robust_bts,
    reward_output_agreement,
    reward_peer_insensitive,
    reward_peer_truth_serum,
    reward_robust_bts,
    reward_sqrt_scaled_agreement,
)

BINARY = LabelSpace.of((0, 1))


def instance(labels, n, m, reports, beliefs=None):
    """Build a partial-assignment instance from an {(agent, obj): report} map."""
    signal = np.full((n, m), -1, dtype=int)
    evaluated = np.zeros((n, m), dtype=bool)
    for (a, j), r in reports.items():
        signal[a, j] = r
        evaluated[a, j] = True
    k = len(labels)
    belief_arr = np.zeros((n, m, k))
    rows, cols = np.indices((n, m))
    belief_arr[rows, cols, np.maximum(signal, 0)] = 1.0
    if beliefs:
        for (a, j), vec in beliefs.items():
            belief_arr[a, j] = vec
    return RealizedInstance(labels, signal, belief_arr, evaluated)


def rng():
    return np.random.default_rng(0)


class FirstPeer:
    """Generator stand-in that always picks the first candidate peer."""

    def integers(self, n):
        return 0


class TestOutputAgreement:
    def test_match(self):
        inst = instance(BINARY, 2, 1, {(0, 0): 1, (1, 0): 1})
        assert reward_output_agreement(inst, 0, 0, rng()) == 1.0

    def test_mismatch(self):
        inst = instance(BINARY, 2, 1, {(0, 0): 0, (1, 0): 1})
        assert reward_output_agreement(inst, 0, 0, rng()) == 0.0

    def test_no_peer(self):
        inst = instance(BINARY, 2, 1, {(0, 0): 1})
        with pytest.raises(NoPeer):
            reward_output_agreement(inst, 0, 0, rng())


class TestPeerTruthSerum:
    def test_object_frequency_match(self):
        # Four reports on object 0, two of them label 1: F(1) = 0.5, so 0.1 + 1/0.5.
        # Label 1 never recurs on object 1; only the scored object's reports count.
        reports = {(0, 0): 1, (1, 0): 1, (2, 0): 0, (3, 0): 0, (0, 1): 0, (1, 1): 0}
        inst = instance(BINARY, 4, 2, reports)
        assert reward_peer_truth_serum(inst, 0, 0, 0.1, 1.0, FirstPeer()) == pytest.approx(2.1)

    def test_no_match_pays_alpha(self):
        inst = instance(BINARY, 2, 2, {(0, 0): 0, (1, 0): 1, (0, 1): 0, (1, 1): 0})
        got = reward_peer_truth_serum(inst, 0, 0, 0.1, 1.0, rng())
        assert got == pytest.approx(0.1)


class TestCorrelatedAgreement:
    def _pair_instance(self, own_reports, peer_reports, scored=(1, 1)):
        reports = {(0, 0): scored[0], (1, 0): scored[1]}
        for i, r in enumerate(own_reports):
            reports[(0, 1 + i)] = r
        for i, r in enumerate(peer_reports):
            reports[(1, 1 + len(own_reports) + i)] = r
        m = 1 + len(own_reports) + len(peer_reports)
        return instance(BINARY, 2, m, reports)

    def test_match_minus_inner_product(self):
        inst = self._pair_instance([0, 1], [0, 1])
        assert reward_correlated_agreement(inst, 0, 0, rng()) == pytest.approx(0.5)

    def test_no_disjoint_sets(self):
        inst = instance(BINARY, 2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 0, (1, 1): 0})
        with pytest.raises(NoDisjointTaskSets):
            reward_correlated_agreement(inst, 0, 0, rng())


class TestSqrtScaledAgreement:
    def _four_agent_instance(self, scorer_hits):
        # Object 0 is evaluated only by the scored pair (agents 0 and 1), so
        # the peer and the two scoring agents are forced deterministically.
        reports = {(0, 0): 1, (1, 0): 1}
        for j, hit in enumerate(scorer_hits, start=1):
            reports[(2, j)] = 1 if hit else 0
            reports[(3, j)] = 1
        return instance(BINARY, 4, 1 + len(scorer_hits), reports)

    def test_match_with_half_frequency(self):
        inst = self._four_agent_instance([True, False, False, False])
        assert reward_sqrt_scaled_agreement(inst, 0, 0, 1.0, rng()) == pytest.approx(2.0)

    def test_degenerate_frequency_pays_zero(self):
        inst = self._four_agent_instance([True, True, True, True])
        assert reward_sqrt_scaled_agreement(inst, 0, 0, 1.0, rng()) == 0.0

    def test_too_few_agents(self):
        inst = instance(BINARY, 3, 2, {(a, j): 1 for a in range(3) for j in range(2)})
        with pytest.raises(TooFewAgents):
            reward_sqrt_scaled_agreement(inst, 0, 0, 1.0, rng())


class TestDoubleMixedAgreement:
    def _holdout_instance(self, sample_labels, scored_peer=1, focal=1):
        # Agent 0 evaluates only object 0; agents 1 and 2 evaluate everything
        # and agree everywhere, so sampled and reference reports are forced.
        m = 1 + len(sample_labels)
        reports = {(0, 0): focal, (1, 0): scored_peer, (2, 0): scored_peer}
        for i, lab in enumerate(sample_labels):
            reports[(1, 1 + i)] = lab
            reports[(2, 1 + i)] = lab
        return instance(BINARY, 3, m, reports)

    def test_all_selected_reports_equal(self):
        inst = self._holdout_instance([1, 1, 1, 0, 0], scored_peer=1, focal=1)
        assert reward_double_mixed_agreement(inst, 0, 0, rng()) == pytest.approx(1.0)

    def test_sample_not_double_mixed(self):
        inst = self._holdout_instance([1, 1, 1, 1, 1])
        assert reward_double_mixed_agreement(inst, 0, 0, rng()) == 0.0

    def test_references_disagreeing_with_peer_cap_reward(self):
        # Focal reports 1 but the scored peer reports 0: the matched references
        # equal the focal report, so the agreement term never fires.
        inst = self._holdout_instance([1, 1, 0, 0], scored_peer=0, focal=1)
        assert reward_double_mixed_agreement(inst, 0, 0, rng()) == pytest.approx(0.0)

    def test_not_enough_objects(self):
        inst = instance(BINARY, 3, 2, {(a, j): 1 for a in range(3) for j in range(2)})
        with pytest.raises(NotEnoughObjects):
            reward_double_mixed_agreement(inst, 0, 0, rng())


class TestRobustBts:
    def test_shadowed_score_example(self):
        beliefs = {
            (0, 0): (0.3, 0.7),
            (1, 0): (0.4, 0.6),
            (2, 0): (0.4, 0.6),
        }
        inst = instance(BINARY, 3, 1, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, beliefs=beliefs)
        # Shadowing pushes the peer belief 0.6 to a point mass on 1, scoring 1;
        # the own belief (0.3, 0.7) scores 0.82 against outcome 1.
        assert reward_robust_bts(inst, 0, 0, QUADRATIC, rng()) == pytest.approx(1.82)

    def test_binary_only(self):
        space = LabelSpace.of((0, 1, 2))
        inst = instance(space, 3, 1, {(a, 0): 0 for a in range(3)})
        with pytest.raises(NonBinaryLabelSpace):
            reward_robust_bts(inst, 0, 0, QUADRATIC, rng())


class TestMultiValuedRobustBts:
    def test_match_example(self):
        beliefs = {(1, 0): (0.5, 0.5)}
        inst = instance(BINARY, 2, 1, {(0, 0): 1, (1, 0): 1}, beliefs=beliefs)
        # 1/b_j(r_i) = 2 plus a correct point-mass score of 1.
        assert reward_multi_valued_robust_bts(inst, 0, 0, QUADRATIC, rng()) == pytest.approx(3.0)

    def test_no_match(self):
        beliefs = {(0, 0): (0.5, 0.5)}
        inst = instance(BINARY, 2, 1, {(0, 0): 0, (1, 0): 1}, beliefs=beliefs)
        assert reward_multi_valued_robust_bts(inst, 0, 0, QUADRATIC, rng()) == pytest.approx(0.5)

    def test_zero_belief_match_sentinel(self):
        beliefs = {(1, 0): (1.0, 0.0)}
        inst = instance(BINARY, 2, 1, {(0, 0): 1, (1, 0): 1}, beliefs=beliefs)
        got = reward_multi_valued_robust_bts(inst, 0, 0, QUADRATIC, rng())
        assert got <= NEGATIVE_SENTINEL + 2.0


class TestDivergenceBts:
    def test_identical_beliefs_no_penalty(self):
        beliefs = {(0, 0): (0.3, 0.7), (1, 0): (0.3, 0.7)}
        inst = instance(BINARY, 2, 1, {(0, 0): 1, (1, 0): 1}, beliefs=beliefs)
        assert reward_divergence_bts(inst, 0, 0, QUADRATIC, 0.1, rng()) == pytest.approx(0.82)

    def test_divergent_match_penalized(self):
        beliefs = {(0, 0): (1.0, 0.0), (1, 0): (0.0, 1.0)}
        inst = instance(BINARY, 2, 1, {(0, 0): 1, (1, 0): 1}, beliefs=beliefs)
        # Divergence between opposite point masses is 2 > theta; score of (1,0) at 1 is -1.
        assert reward_divergence_bts(inst, 0, 0, QUADRATIC, 0.1, rng()) == pytest.approx(-2.0)

    def test_no_match_no_penalty(self):
        beliefs = {(0, 0): (1.0, 0.0), (1, 0): (0.0, 1.0)}
        inst = instance(BINARY, 2, 1, {(0, 0): 0, (1, 0): 1}, beliefs=beliefs)
        assert reward_divergence_bts(inst, 0, 0, QUADRATIC, 0.1, rng()) == pytest.approx(-1.0)


class TestMinimumTruthSerum:
    def test_unreported_label_skips_proxy(self):
        inst = instance(BINARY, 3, 1, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
        # Peers unanimously report 1; the focal belief is the point mass on 1.
        assert reward_minimum_truth_serum(inst, 0, 0, QUADRATIC) == pytest.approx(1.0)

    def test_proxy_caps_the_score(self):
        beliefs = {
            (0, 0): (0.5, 0.5),
            (1, 0): (0.1, 0.9),
            (2, 0): (0.9, 0.1),
        }
        inst = instance(BINARY, 3, 1, {(0, 0): 1, (1, 0): 1, (2, 0): 0}, beliefs=beliefs)
        # Every label is reported, so the same-report proxy (0.1, 0.9) applies:
        # mean proxy score 0.18 undercuts the own-belief mean 0.5.
        assert reward_minimum_truth_serum(inst, 0, 0, QUADRATIC) == pytest.approx(0.18)


class TestPeerInsensitive:
    def test_constant(self):
        assert reward_peer_insensitive(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0)) == 1.0
        assert reward_peer_insensitive(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=0.25)) == 0.25

    def test_ignores_instance_entirely(self, env):
        spec = MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=0.7)
        a = simulate_utilities(spec, env, StrategyProfile.symmetric(truthful_strategy(2)), trials=10, seed=1)
        b = simulate_utilities(spec, env, StrategyProfile.symmetric(low_identity_strategy(2)), trials=10, seed=99)
        assert a.value == b.value == 0.7
        assert a.stderr == 0.0


def brute_output_agreement(env, base, deviant):
    """Oracle: enumerate (quality, low draw, two observations) directly."""
    k = len(env.q_space)
    prior = env.prior.as_array()
    high = env.high_channel.matrix()
    low = env.low_channel.matrix()
    total = 0.0
    for q in range(k):
        for sl in range(k):
            for oi in range(k):
                for op in range(k):
                    p = prior[q] * low[q, sl]
                    p *= high[q, oi] if deviant.is_full_effort else float(oi == sl)
                    p *= high[q, op] if base.is_full_effort else float(op == sl)
                    total += p * float(deviant.report_map[oi] == base.report_map[op])
    return total


class TestAnalyticValues:
    def test_output_agreement_reference(self, env):
        spec = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
        t = truthful_strategy(2)
        g = low_identity_strategy(2)
        assert analytic_unchecked_value(spec, env, t, t) == pytest.approx(0.82, abs=1e-12)
        assert analytic_unchecked_value(spec, env, g, g) == pytest.approx(1.0, abs=1e-12)

    def test_output_agreement_matches_brute_force(self):
        rng_local = np.random.default_rng(5)
        spec = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
        for labels in (2, 3):
            e = random_environment(rng_local, labels, correlated_low=True)
            from peerspot import enumerate_pure_strategies

            strategies = enumerate_pure_strategies(labels)
            picks = [strategies[i] for i in (0, 2, -1, len(strategies) // 2)]
            for base in picks:
                for dev in picks:
                    got = analytic_unchecked_value(spec, e, base, dev)
                    assert got == pytest.approx(brute_output_agreement(e, base, dev), abs=1e-12)

    def test_correlated_agreement_reference(self, env):
        spec = MechanismSpec(MechanismKind.CORRELATED_AGREEMENT)
        t, g = truthful_strategy(2), low_identity_strategy(2)
        assert analytic_unchecked_value(spec, env, t, t) == pytest.approx(0.32, abs=1e-12)
        assert analytic_unchecked_value(spec, env, g, g) == pytest.approx(0.5, abs=1e-12)

    def test_sqrt_scaled_reference(self, env):
        spec = MechanismSpec(MechanismKind.SQRT_SCALED_AGREEMENT)
        t, g = truthful_strategy(2), low_identity_strategy(2)
        assert analytic_unchecked_value(spec, env, g, g) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert analytic_unchecked_value(spec, env, t, t) == pytest.approx(2 * np.sqrt(0.41), abs=1e-12)

    def test_peer_truth_serum_is_alpha_plus_beta_at_both_profiles(self, env, ternary_env):
        spec = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.1, beta=1.0)
        for e in (env, ternary_env):
            k = len(e.q_space)
            for s in (truthful_strategy(k), low_identity_strategy(k)):
                assert analytic_unchecked_value(spec, e, s, s) == pytest.approx(1.1, abs=1e-12)

    def test_double_mixed_zero_without_full_support(self, env):
        from peerspot import Effort, Strategy

        spec = MechanismSpec(MechanismKind.DOUBLE_MIXED_AGREEMENT)
        const = Strategy(Effort.NONE, (1, 1))
        assert analytic_unchecked_value(spec, env, const, const) == 0.0

    def test_belief_mechanism_coordination_values(self, env):
        g = low_identity_strategy(2)
        expectations = {
            MechanismKind.ROBUST_BTS: 2.0,
            MechanismKind.MULTI_VALUED_ROBUST_BTS: 2.0,
            MechanismKind.DIVERGENCE_BTS: 1.0,
            MechanismKind.MINIMUM_TRUTH_SERUM: 1.0,
        }
        for kind, value in expectations.items():
            assert analytic_unchecked_value(MechanismSpec(kind), env, g, g) == pytest.approx(value, abs=1e-12)

    def test_robust_bts_rejects_ternary(self, ternary_env):
        spec = MechanismSpec(MechanismKind.ROBUST_BTS)
        t = truthful_strategy(3)
        with pytest.raises(NonBinaryLabelSpace):
            analytic_unchecked_value(spec, ternary_env, t, t)


class TestMonteCarloAgreement:
    """Each sampler reproduces the exact (or limiting) expectation within noise."""

    CASES = (
        (MechanismKind.OUTPUT_AGREEMENT, dict(n_agents=10, n_objects=60), 20_000),
        (MechanismKind.PEER_TRUTH_SERUM, dict(n_agents=400, n_objects=2), 3_000),
        (MechanismKind.CORRELATED_AGREEMENT, dict(n_agents=10, n_objects=200), 10_000),
        (MechanismKind.SQRT_SCALED_AGREEMENT, dict(n_agents=4, n_objects=400), 5_000),
        (MechanismKind.DOUBLE_MIXED_AGREEMENT, dict(n_agents=3, n_objects=60), 5_000),
        (MechanismKind.ROBUST_BTS, dict(n_agents=3, n_objects=2), 20_000),
        (MechanismKind.MULTI_VALUED_ROBUST_BTS, dict(n_agents=3, n_objects=2), 20_000),
        (MechanismKind.DIVERGENCE_BTS, dict(n_agents=3, n_objects=2), 20_000),
        (MechanismKind.MINIMUM_TRUTH_SERUM, dict(n_agents=3, n_objects=2), 20_000),
    )

    @pytest.mark.parametrize("kind,sizes,trials", CASES, ids=[c[0].value for c in CASES])
    def test_sampler_matches_analytic(self, env, kind, sizes, trials):
        spec = MechanismSpec(kind)
        e = replace(env, **sizes)
        for strategy in (truthful_strategy(2), low_identity_strategy(2)):
            expected = analytic_unchecked_value(spec, e, strategy, strategy)
            est = simulate_utilities(
                spec, e, StrategyProfile.symmetric(strategy), trials=trials, seed=42
            )
            slack = 4.0 * est.stderr + 5e-3
            assert abs(est.value - expected) <= slack, (kind, strategy.describe(), est, expected)

    def test_deviant_profile_agreement(self, env):
        spec = MechanismSpec(MechanismKind.MULTI_VALUED_ROBUST_BTS)
        base = low_identity_strategy(2)
        deviant = truthful_strategy(2)
        profile = StrategyProfile.with_deviant(base, deviant)
        expected = analytic_unchecked_value(spec, env, base, deviant)
        est = simulate_utilities(spec, env, profile, trials=20_000, seed=9)
        assert abs(est.value - expected) <= 4.0 * est.stderr + 5e-3


class TestSimulationContract:
    def test_bitwise_deterministic(self, env):
        spec = MechanismSpec(MechanismKind.OUTPUT_AGREEMENT)
        profile = StrategyProfile.symmetric(truthful_strategy(2))
        a = simulate_utilities(spec, env, profile, trials=5_000, seed=77)
        b = simulate_utilities(spec, env, profile, trials=5_000, seed=77)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_minimum_truth_serum_enumeration_budget(self):
        # Peer-observation multisets grow as C(n + k - 1, k - 1): a four-label
        # space with hundreds of agents blows the exact-enumeration budget.
        rng_local = np.random.default_rng(8)
        crowded = replace(random_environment(rng_local, 4), n_agents=250)
        spec = MechanismSpec(MechanismKind.MINIMUM_TRUTH_SERUM)
        truthful = truthful_strategy(4)
        with pytest.raises(EnumerationBudgetExceeded):
            analytic_unchecked_value(spec, crowded, truthful, truthful)


class TestMechanismSpec:
    def test_parameter_validation(self):
        with pytest.raises(ShapeMismatch):
            MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.0)
        with pytest.raises(ShapeMismatch):
            MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=-1.0)

    def test_json_round_trip(self):
        spec = MechanismSpec(MechanismKind.DIVERGENCE_BTS, theta=0.2)
        doc = spec.to_json_dict()
        assert doc["theta"] == 0.2 and doc["rule"] == "quadratic"
        assert MechanismSpec.from_json_dict(doc) == spec

    NON_DEFAULT = {
        MechanismKind.PEER_TRUTH_SERUM: dict(alpha=0.5, beta=2.0),
        MechanismKind.SQRT_SCALED_AGREEMENT: dict(scale=3.0),
        MechanismKind.ROBUST_BTS: dict(rule=LOGARITHMIC),
        MechanismKind.MULTI_VALUED_ROBUST_BTS: dict(rule=LOGARITHMIC),
        MechanismKind.DIVERGENCE_BTS: dict(theta=0.5, rule=LOGARITHMIC),
        MechanismKind.MINIMUM_TRUTH_SERUM: dict(mts_aggregation="sum", rule=LOGARITHMIC),
        MechanismKind.PEER_INSENSITIVE: dict(constant_reward=2.5),
    }
    # One non-default value for every parameter field.
    FOREIGN = dict(
        alpha=0.5, beta=2.0, scale=3.0, theta=0.5, constant_reward=2.5, mts_aggregation="sum", rule=LOGARITHMIC
    )

    @pytest.mark.parametrize("kind", list(MechanismKind), ids=[k.value for k in MechanismKind])
    def test_json_round_trip_keeps_non_default_parameters(self, kind):
        # Every parameter the kind reads is set away from its default.
        assert set(self.NON_DEFAULT.get(kind, {})) == {attr for _, attr in KINDS[kind].json_fields}
        spec = MechanismSpec(kind, **self.NON_DEFAULT.get(kind, {}))
        assert MechanismSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("kind", list(MechanismKind), ids=[k.value for k in MechanismKind])
    def test_describe_names_non_default_parameters(self, kind):
        assert MechanismSpec(kind).describe() == kind.value
        spec = MechanismSpec(kind, **self.NON_DEFAULT.get(kind, {}))
        label = spec.describe()
        assert (label == kind.value) == (kind not in self.NON_DEFAULT)
        assert MechanismSpec.from_json_dict(spec.to_json_dict()).describe() == label

    def test_labels_are_unique(self):
        specs = {MechanismSpec(kind) for kind in MechanismKind}
        specs |= {MechanismSpec(kind, **params) for kind, params in self.NON_DEFAULT.items()}
        assert len({spec.describe() for spec in specs}) == len(specs) == len(MechanismKind) + len(self.NON_DEFAULT)

    @pytest.mark.parametrize("kind", list(MechanismKind), ids=[k.value for k in MechanismKind])
    def test_foreign_non_default_parameter_raises(self, kind):
        taken = {attr for _, attr in KINDS[kind].json_fields}
        for attr, value in self.FOREIGN.items():
            if attr not in taken:
                with pytest.raises(ShapeMismatch, match=f"^{kind.value} does not take "):
                    MechanismSpec(kind, **{attr: value})

    def test_int_past_float_range_is_refused(self):
        with pytest.raises(ShapeMismatch, match=r"^peer_truth_serum requires alpha to be a finite number > 0, got 10{400}$"):
            MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=10**400)

    @pytest.mark.parametrize("kind", ["output_agreement", "nonsense", None])
    def test_kind_must_be_a_mechanism_kind(self, kind):
        # A kind's name is not its kind: the spec would build tables but fail to describe itself.
        with pytest.raises(ShapeMismatch, match=f"^kind must be a MechanismKind, got {re.escape(repr(kind))}$"):
            MechanismSpec(kind)

    def test_output_agreement_rejects_theta(self):
        with pytest.raises(ShapeMismatch, match=r"^output_agreement does not take theta=0\.5$"):
            MechanismSpec(MechanismKind.OUTPUT_AGREEMENT, theta=0.5)

    @pytest.mark.parametrize(
        "entry, error",
        [
            ({"kind": "output_agreement", "theta": 0.5}, "does not take theta=0.5"),
            ({"kind": "output_agreement", "rule": "log"}, "does not take rule=log"),
            ({"kind": "peer_truth_serum", "alpah": 2}, "unknown key 'alpah'"),
            ({"kind": "peer_truth_serum", "alpha": None}, "requires alpha to be a finite number > 0, got None"),
            ({"kind": "peer_truth_serum", "alpha": "inf"}, "requires alpha to be a finite number > 0, got 'inf'"),
            ({"kind": "peer_truth_serum", "beta": "1e400"}, "requires beta to be a finite number > 0, got '1e400'"),
            ({"kind": "peer_truth_serum", "alpha": "2"}, "requires alpha to be a finite number > 0, got '2'"),
            ({"kind": "peer_insensitive", "W": "Infinity"}, "requires W to be a finite number > 0, got 'Infinity'"),
            ({"kind": "peer_insensitive", "W": float("inf")}, "requires W to be a finite number > 0, got inf"),
            ({"kind": "divergence_bts", "theta": True}, "requires theta to be a finite number > 0, got True"),
            ({"kind": "sqrt_scaled_agreement", "K": float("nan")}, "requires K to be a finite number > 0, got nan"),
            ({"kind": "robust_bts", "rule": 1}, "unknown scoring rule 1"),
            ({"kind": "output_agreement", "rule": "quadratic"}, None),
            ({"kind": "output_agreement", "theta": 0.05, "W": 1}, None),
            (3, "must be an object, got 3"),
            ("output_agreement", "must be an object, got 'output_agreement'"),
            ({"kind": "bribery"}, "kind: 'bribery' is not a valid MechanismKind"),
            ({"rule": "log"}, "mechanism document missing field 'kind'"),
        ],
        ids=[
            "foreign-theta", "foreign-rule", "unknown-key", "null-value", "string-inf", "string-overflow",
            "numeric-string", "string-infinity", "infinite", "bool", "nan", "non-string-rule", "default-rule",
            "default-foreign-numbers", "number-entry", "string-entry", "unknown-kind", "missing-kind",
        ],
    )
    def test_config_mechanism_keys(self, entry, error):
        config = {
            "environments": [{"labels": [0, 1], "prior": [0.5, 0.5], "high": [[0.9, 0.1], [0.1, 0.9]]}],
            "mechanisms": [{"kind": "peer_insensitive"}, entry],
        }
        if error is None:
            assert parse_config(config).mechanisms[1] == MechanismSpec(MechanismKind(entry["kind"]))
        else:
            with pytest.raises(ConfigError, match=r"^mechanisms\[1\]: .*" + re.escape(error)):
                parse_config(config)

    def test_describe_orders_fields_by_key(self):
        spec = MechanismSpec(MechanismKind.DIVERGENCE_BTS, theta=0.5, rule=LOGARITHMIC)
        assert spec.describe() == "divergence_bts[rule=log,theta=0.5]"
        pts = MechanismSpec(MechanismKind.PEER_TRUTH_SERUM, alpha=0.5)
        assert pts.describe() == "peer_truth_serum[alpha=0.5]"

    def test_only_per_object_pts_frequency_is_accepted(self):
        doc = {"kind": "peer_truth_serum", "pts_frequency": "object"}
        assert MechanismSpec.from_json_dict(doc) == MechanismSpec(MechanismKind.PEER_TRUTH_SERUM)
        config = {
            "environments": [{"labels": [0, 1], "prior": [0.5, 0.5], "high": [[0.9, 0.1], [0.1, 0.9]]}],
            "mechanisms": [{"kind": "peer_truth_serum", "pts_frequency": "batch"}],
        }
        with pytest.raises(ConfigError, match=r"^mechanisms\[0\]: pts_frequency: must be 'object', got 'batch'$"):
            parse_config(config)

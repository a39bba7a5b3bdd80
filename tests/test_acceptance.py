"""Acceptance gate: every shipped criterion runs at its stated tolerance.

Each criterion prints one PASS/FAIL line; the suite shares cached payoff
tables across criteria, so ordering within this module matters for speed but
not for correctness.
"""

import pytest

from peerspot import MechanismKind, MechanismSpec, NonBinaryLabelSpace, reference_environment
from peerspot.acceptance import CRITERIA, _gate_tables, _random_acceptance_environments, _table
from peerspot.mechanisms import check_label_space


@pytest.mark.parametrize("cid,description,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(cid, description, check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'} [{cid}] {description}: {detail}")
    assert passed, f"[{cid}] {description}: {detail}"


def test_table_cache_keys_on_the_whole_spec():
    e1 = reference_environment()
    one = _table(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0), e1)
    two = _table(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=2.0), e1)
    assert one.own.max() == 1.0 and two.own.max() == 2.0


def test_gate_tables_are_every_pair_the_label_rule_accepts():
    environments = [reference_environment()] + _random_acceptance_environments()
    accepted, refused = [], []
    for env in environments:
        for kind in MechanismKind:
            try:
                check_label_space(MechanismSpec(kind), env)
                accepted.append((kind, env.env_id))
            except NonBinaryLabelSpace:
                refused.append((kind, len(env.q_space)))
    gate = list(_gate_tables())
    assert [(mech.kind, env.env_id) for mech, env, _ in gate] == accepted
    assert len(gate) == 200 and refused == [(MechanismKind.ROBUST_BTS, 3)] * 10
    assert all(table is _table(mech, env) for mech, env, table in gate)

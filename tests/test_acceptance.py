"""Acceptance gate: every shipped criterion runs at its stated tolerance.

Each criterion prints one PASS/FAIL line; the suite shares cached payoff
tables across criteria, so ordering within this module matters for speed but
not for correctness.
"""

import pytest

from peerspot import MechanismKind, MechanismSpec
from peerspot.acceptance import CRITERIA, _Context


@pytest.mark.parametrize("cid,description,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(cid, description, check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'} [{cid}] {description}: {detail}")
    assert passed, f"[{cid}] {description}: {detail}"


def test_table_cache_keys_on_the_whole_spec():
    ctx = _Context()
    one = ctx.table(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=1.0), ctx.e1)
    two = ctx.table(MechanismSpec(MechanismKind.PEER_INSENSITIVE, constant_reward=2.0), ctx.e1)
    assert one.own.max() == 1.0 and two.own.max() == 2.0

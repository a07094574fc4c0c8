import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpbound import DofScenario, InrScaling, dof_fixed_rank, dof_upper_bound
from dpbound.dof import MAX_DOF_DIM
from dpbound.errors import NegativeParameter, TooLarge

from reference_oracles import loop_dof_upper_bound


def test_table():
    assert dof_upper_bound(DofScenario(1, 1, 1, False, InrScaling.LINEAR)) == 0.5
    assert dof_upper_bound(DofScenario(1, 1, 1, True, InrScaling.LINEAR)) == 0.5
    assert dof_upper_bound(DofScenario(2, 2, 3, True, InrScaling.LINEAR)) == 1.0
    assert dof_upper_bound(DofScenario(2, 2, 4, True, InrScaling.SUPERLINEAR)) == \
        pytest.approx(2.0 / 3.0)
    assert dof_upper_bound(DofScenario(3, 3, 1, True, InrScaling.SUBLINEAR)) == 3.0


def test_full_dof_needs_both_conditions():
    assert dof_upper_bound(DofScenario(3, 3, 1, False, InrScaling.SUBLINEAR)) < 3.0
    assert dof_upper_bound(DofScenario(3, 3, 1, True, InrScaling.LINEAR)) < 3.0


def test_fixed_rank_values():
    assert dof_fixed_rank(1, 1) == 0.5
    assert dof_fixed_rank(2, 3) == 1.0
    assert dof_fixed_rank(1, 3) == 0.25


def test_cap_maximized_at_best_rank():
    for m_t in range(1, 9):
        for m_r in range(1, 9):
            for m_s in range(1, 9):
                s = DofScenario(m_t, m_r, m_s, False, InrScaling.LINEAR)
                m_star = min(m_t, m_r)
                best = max(dof_fixed_rank(m0, m_s) for m0 in range(1, m_star + 1))
                assert dof_upper_bound(s) == pytest.approx(best)


def test_range():
    for m_t in range(1, 9):
        for m_s in range(1, 9):
            for finite in (True, False):
                for scal in InrScaling:
                    d = dof_upper_bound(DofScenario(m_t, m_t, m_s, finite, scal))
                    assert 0.0 <= d <= m_t


def test_bad_dimensions():
    with pytest.raises(NegativeParameter):
        DofScenario(0, 1, 1, True, InrScaling.LINEAR)
    with pytest.raises(NegativeParameter):
        dof_fixed_rank(0, 1)


def test_pruned_max_matches_loop_over_every_rank():
    for m_star in range(1, 120):
        for m_s in range(1, 120):
            s = DofScenario(m_star, m_star + 1, m_s, True, InrScaling.LINEAR)
            assert dof_upper_bound(s) == loop_dof_upper_bound(m_star, m_s)


@pytest.mark.parametrize("m_star, m_s", [
    (7, MAX_DOF_DIM), (1500, 10 ** 12), (562341, 10 ** 12),
    (927674, 859836568376)])
def test_pruned_max_matches_loop_at_large_state_dimension(m_star, m_s):
    # the last two took the most pruned steps among the dimensions tried
    s = DofScenario(m_star, m_star, m_s, False, InrScaling.SUPERLINEAR)
    assert dof_upper_bound(s) == loop_dof_upper_bound(m_star, m_s)


def test_huge_ranks_return_promptly():
    # the old loop over every signal rank ran 10^12 steps on this command
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dpbound.cli", "dof", "--mt", "1000000000000",
         "--mr", "1000000000000", "--ms", "1", "--amax-finite", "false",
         "--inr-scaling", "linear"],
        capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '{\n  "dof": 999999999999.5\n}'


def test_state_dimension_limit():
    DofScenario(1, 1, MAX_DOF_DIM, False, InrScaling.LINEAR)
    with pytest.raises(TooLarge):
        DofScenario(1, 1, MAX_DOF_DIM + 1, False, InrScaling.LINEAR)
    # the same bound holds for the antenna counts
    DofScenario(MAX_DOF_DIM, MAX_DOF_DIM, 1, False, InrScaling.LINEAR)
    for dims in ((MAX_DOF_DIM + 1, 1, 1), (1, MAX_DOF_DIM + 1, 1)):
        with pytest.raises(TooLarge):
            DofScenario(*dims, True, InrScaling.SUBLINEAR)

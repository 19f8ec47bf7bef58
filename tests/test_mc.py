import math

import numpy as np
import pytest

from direach.interval import Box
from direach.mc import sample_trajectories
from direach.symexpr import InputAffineSystem

# dx/dt = -x + v, |v| <= 0.1, from [0.9, 1.1]: the reachable set at time t is
# [0.9 e^-t - 0.1 (1 - e^-t), 1.1 e^-t + 0.1 (1 - e^-t)]
DECAY = InputAffineSystem(1, ["-x1"], [["1"]], [0.1])
INITIAL = Box.from_bounds([(0.9, 1.1)])


def envelope(t):
    d = np.exp(-t)
    return 0.9 * d - 0.1 * (1.0 - d), 1.1 * d + 0.1 * (1.0 - d)


def test_samples_inside_exact_envelope():
    times, pts = sample_trajectories(DECAY, INITIAL, 2.0, 40, n_traj=300, seed=5)
    assert times.shape == (41,) and pts.shape == (300, 41, 1)
    assert times[0] == 0.0 and math.isclose(times[-1], 2.0)
    lo, hi = envelope(times)
    assert np.all(pts[:, :, 0] >= lo) and np.all(pts[:, :, 0] <= hi)
    # the initial points spread over the initial box
    assert np.ptp(pts[:, 0, 0]) > 0.9 * 0.2


def test_same_seed_same_arrays():
    a = sample_trajectories(DECAY, INITIAL, 1.0, 10, n_traj=50, seed=3)
    b = sample_trajectories(DECAY, INITIAL, 1.0, 10, n_traj=50, seed=3)
    c = sample_trajectories(DECAY, INITIAL, 1.0, 10, n_traj=50, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


@pytest.mark.parametrize(
    "system, initial, kwargs, message",
    [
        (DECAY, INITIAL, dict(refine=0), "n_traj, steps, refine and substeps must be >= 1, got 5, 10, 0, 4"),
        (DECAY, INITIAL, dict(steps=0), "n_traj, steps, refine and substeps must be >= 1, got 5, 0, 10, 4"),
        (DECAY, INITIAL, dict(substeps=0), "n_traj, steps, refine and substeps must be >= 1, got 5, 10, 10, 0"),
        (DECAY, INITIAL, dict(n_traj=0), "n_traj, steps, refine and substeps must be >= 1, got 0, 10, 10, 4"),
        (DECAY, INITIAL, dict(total_time=0.0), "total time must be positive and finite, got 0.0"),
        (DECAY, INITIAL, dict(total_time=math.nan), "total time must be positive and finite, got nan"),
        (DECAY, Box.from_bounds([(0.9, math.inf)]), {}, "initial box [0.9, inf] is not bounded"),
        (
            InputAffineSystem(2, ["x2", "-x1"], [["0", "1"]], [0.1]),
            INITIAL,
            {},
            "initial box has dimension 1, expected 2",
        ),
    ],
    ids=["refine", "steps", "substeps", "n_traj", "no-time", "nan-time", "unbounded", "dimension"],
)
def test_rejects_arguments_that_break_the_oracle(system, initial, kwargs, message):
    """No oracle that passes everything (no trajectory, or refine = 0 or no
    time, which never move a start point), no ZeroDivisionError or numpy
    OverflowError, and no box broadcast to the other states."""
    args = dict(total_time=1.0, steps=10, n_traj=5) | kwargs
    with pytest.raises(ValueError) as exc:
        sample_trajectories(system, initial, **args)
    assert str(exc.value) == message

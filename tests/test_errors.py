import pickle

import numpy as np
import pytest

import tiltrotor as tr
from tiltrotor.errors import AbortedSingular, RepresentationSingular


def _short_log():
    return tr.TrackLog(
        t=np.zeros(1), states=np.zeros((1, 12)), alpha=np.zeros((1, 4)),
        varpi=np.zeros((1, 4)), ref_pos=np.zeros((1, 3)), det=np.zeros(1),
        saturated=np.zeros((1, 4), dtype=bool), singular=np.ones(1, dtype=bool),
        end_reason="pitch_guard",
    )


@pytest.mark.parametrize("exc", [
    RepresentationSingular(1.5),
    AbortedSingular(0.5, None),
    AbortedSingular(1.25, tr.State(eta=np.array([0.1, 0.2, 0.3])), log=_short_log(),
                    reason="pitch_guard"),
], ids=lambda e: type(e).__name__)
def test_package_errors_round_trip_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert back.__dict__.keys() == exc.__dict__.keys()
    for name, value in exc.__dict__.items():
        got = getattr(back, name)
        if isinstance(value, tr.State):
            np.testing.assert_array_equal(got.as_array(), value.as_array())
        elif isinstance(value, tr.TrackLog):
            np.testing.assert_array_equal(got.as_matrix(), value.as_matrix())
            assert got.end_reason == value.end_reason
        else:
            assert got == value

"""Feature-matrix construction and normalization."""

import numpy as np
import pytest

from repro.core.features import FeatureConfig, build_features, feature_names
from repro.core.intervals import IntervalData
from repro.gprof.gmon import GmonData
from repro.util.errors import ValidationError


def make_data(with_gmons=True):
    functions = ["a", "b"]
    self_time = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    calls = np.array([[10, 0], [5, 100], [0, 200]], dtype=np.int64)
    gmons = None
    if with_gmons:
        gmons = []
        for i in range(3):
            g = GmonData()
            for j, func in enumerate(functions):
                ticks = int(self_time[i, j] * 100)
                if ticks:
                    g.add_ticks(func, ticks)
                if calls[i, j]:
                    g.add_arc("main", func, int(calls[i, j]))
            gmons.append(g)
    return IntervalData(
        functions=functions,
        self_time=self_time,
        calls=calls,
        timestamps=np.array([1.0, 2.0, 3.0]),
        interval=1.0,
        interval_gmons=gmons,
    )


def test_default_is_self_time():
    data = make_data()
    assert np.array_equal(build_features(data), data.self_time)


def test_self_time_is_a_copy():
    data = make_data()
    features = build_features(data)
    features[0, 0] = 99.0
    assert data.self_time[0, 0] == 1.0


def test_calls_source():
    data = make_data()
    features = build_features(data, FeatureConfig(source="calls"))
    assert np.array_equal(features, data.calls.astype(float))


def test_self_plus_calls_scaled():
    data = make_data()
    features = build_features(data, FeatureConfig(source="self_plus_calls"))
    assert features.shape == (3, 4)
    # Scaled call columns peak at the self-time peak.
    assert features[:, 2:].max() == pytest.approx(data.self_time.max())


def test_self_plus_children_requires_gmons():
    data = make_data(with_gmons=False)
    with pytest.raises(ValidationError):
        build_features(data, FeatureConfig(source="self_plus_children"))


def test_self_plus_children_shape():
    data = make_data()
    features = build_features(data, FeatureConfig(source="self_plus_children"))
    assert features.shape == (3, 4)
    # Leaf functions have zero children time.
    assert np.allclose(features[:, 2:], 0.0)


def test_invalid_config_rejected():
    with pytest.raises(ValidationError):
        FeatureConfig(source="bogus")


def test_feature_names_match_width():
    data = make_data()
    for source in ("self_time", "calls", "self_plus_calls", "self_plus_children"):
        config = FeatureConfig(source=source)
        names = feature_names(data, config)
        assert len(names) == build_features(data, config).shape[1]

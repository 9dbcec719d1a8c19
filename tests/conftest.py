import pytest
from hypothesis import HealthCheck, settings

from somlogic import (
    TrainConfig,
    build_model,
    build_preferential,
    feature_range,
    gaussian_clusters,
    init_map,
    three_cluster_dataset,
    train,
)

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


REF_MAP = dict(rows=6, cols=6, seed=0)
REF_CFG = TrainConfig(epochs=50, lr_start=0.7, lr_end=0.05, radius_start=3.0, radius_end=0.5, seed=0)


@pytest.fixture(scope="session")
def clusters():
    return three_cluster_dataset()


@pytest.fixture(scope="session")
def trained_map(clusters):
    som0 = init_map(REF_MAP["rows"], REF_MAP["cols"], clusters[0].dim, REF_MAP["seed"], feature_range(clusters))
    trained, _ = train(som0, clusters, REF_CFG)
    return trained


@pytest.fixture(scope="session")
def cluster_model(trained_map, clusters):
    return build_model(trained_map, clusters)


@pytest.fixture(scope="session")
def cluster_pref(cluster_model):
    return build_preferential(cluster_model)


@pytest.fixture(scope="session")
def nested_model():
    """A broad category G and a tight one S around the same centre, plus a
    5 x 5 probe grid, on a trained 3 x 3 map.  S comes out strictly more
    specific than G, so specificity overrides decide part of the global
    preference, and the typical elements of Top all lie in S."""
    data = gaussian_clusters([(0.0, 0.0)], ["G"], 16, 1.5, 1) + gaussian_clusters(
        [(0.0, 0.0)], ["S"], 8, 0.4, 2
    )
    lo, hi = feature_range(data)
    grid = [(lo[0] - 1 + (hi[0] - lo[0] + 2) * i / 4, lo[1] - 1 + (hi[1] - lo[1] + 2) * j / 4)
            for i in range(5) for j in range(5)]
    som0 = init_map(3, 3, 2, 1, (lo, hi))
    trained, _ = train(som0, data, TrainConfig(epochs=10, seed=1))
    return build_model(trained, data, grid)

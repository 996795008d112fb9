"""Shared builders for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from faircov import Dataset, SyntheticSpec, generate_synthetic
from faircov.quantile_model import signal_coefficients

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The optimizer's, the intervals' and the predictions' properties with a larger
# budget, for a CI job of its own:
# pytest tests/test_fair_calibration.py --hypothesis-profile thorough
settings.register_profile(
    "thorough",
    derandomize=True,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_dataset(y, group, q_lo=None, q_hi=None, domain=(0.0, 10.0), group_count=None, features=None):
    y = np.asarray(y, dtype=np.float64)
    group = np.asarray(group, dtype=np.int64)
    if group_count is None:
        group_count = int(group.max()) + 1 if group.size else 1
    return Dataset(
        ids=tuple(f"r{i}" for i in range(y.shape[0])),
        y=y,
        group=group,
        label_domain=(float(domain[0]), float(domain[1])),
        group_count=group_count,
        q_lo=None if q_lo is None else np.asarray(q_lo, dtype=np.float64),
        q_hi=None if q_hi is None else np.asarray(q_hi, dtype=np.float64),
        features=features,
    )


def with_oracle_band(data, spec, half_width):
    """Attach the generator's noiseless signal as a constant-width band."""
    w, b = signal_coefficients(spec)
    signal = b + data.features @ w
    return data.with_predictions(signal - half_width, signal + half_width)


def synthetic_with_band(n, noise, seed, half_width=None, feature_dim=3, domain=(0.0, 63.0)):
    spec = SyntheticSpec(
        n=n,
        group_probs=tuple(1.0 / len(noise) for _ in noise),
        feature_dim=feature_dim,
        noise_scale_per_group=tuple(noise),
        label_domain=domain,
        seed=seed,
    )
    data = generate_synthetic(spec)
    if half_width is None:
        half_width = 1.645 * float(np.mean(noise))
    return with_oracle_band(data, spec, half_width), spec


@pytest.fixture
def six_record_fixture():
    """Six hand-checked records over two bins and two groups.

    With every threshold at -0.5 the covered records are r0, r2, r3;
    r5's band inverts after shrinking and falls back to a point.
    """
    data = make_dataset(
        y=[1.0, 2.0, 4.0, 6.0, 8.0, 9.0],
        group=[0, 0, 1, 0, 1, 1],
        q_lo=[0.5, 0.0, 3.0, 5.5, 9.0, 8.0],
        q_hi=[2.0, 1.0, 6.0, 7.0, 10.0, 8.5],
        domain=(0.0, 10.0),
    )
    return data

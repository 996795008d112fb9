"""Pinball loss, the exact model fit and its duality gap, and synthetic data."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircov import (
    QuantileLevels,
    QuantileModel,
    SyntheticSpec,
    ValidationError,
    fit,
    generate_synthetic,
    pinball_loss,
)
from faircov import quantile_model
from faircov.quantile_model import signal_coefficients

from conftest import make_dataset


class TestPinball:
    def test_under_prediction(self):
        assert pinball_loss(10.0, 8.0, 0.5) == pytest.approx(1.0)

    def test_over_prediction(self):
        assert pinball_loss(8.0, 10.0, 0.9) == pytest.approx(0.2)

    def test_zero_residual(self):
        for q in (0.05, 0.5, 0.95):
            assert pinball_loss(5.0, 5.0, q) == 0.0

    def test_level_out_of_range(self):
        with pytest.raises(ValidationError):
            pinball_loss(1.0, 1.0, 1.0)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0.01, 0.99),
    )
    def test_non_negative(self, y, y_hat, q):
        assert pinball_loss(y, y_hat, q) >= 0.0


class TestQuantileLevels:
    def test_for_alpha(self):
        levels = QuantileLevels.for_alpha(0.1)
        assert levels.levels == (0.05, 0.5, 0.95)

    def test_index_of_missing_level(self):
        levels = QuantileLevels.for_alpha(0.1)
        with pytest.raises(ValidationError):
            levels.index_of(0.25)

    def test_band_at_an_alpha_the_grid_lacks(self):
        model = QuantileModel(
            weights=np.zeros((3, 1)),
            bias=np.array([-1.0, 0.0, 1.0]),
            levels=QuantileLevels.for_alpha(0.1),
            seed=0,
            loss_trace=(0.0,),
        )
        with pytest.raises(ValidationError, match="not in the configured grid"):
            model.band(np.zeros((2, 1)), 0.2)


class TestPredict:
    def model(self, weights, bias, alpha=0.1):
        return QuantileModel(
            weights=np.asarray(weights, dtype=float),
            bias=np.asarray(bias, dtype=float),
            levels=QuantileLevels.for_alpha(alpha),
            seed=0,
            loss_trace=(0.0,),
        )

    def test_zero_weights_pass_bias_through(self):
        m = self.model(np.zeros((3, 2)), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m.predict_many(np.array([[5.0, -5.0]])), [[1.0, 2.0, 3.0]])

    def test_crossing_outputs_rearranged(self):
        m = self.model(np.zeros((3, 0)), [3.0, 2.0, 5.0])
        np.testing.assert_array_equal(m.predict_many(np.zeros((2, 0))), [[2.0, 3.0, 5.0]] * 2)

    def test_output_length_matches_levels(self):
        m = self.model(np.zeros((3, 4)), [0.0, 0.0, 0.0])
        assert m.predict_many(np.zeros((5, 4))).shape == (5, 3)

    def test_dimension_mismatch(self):
        m = self.model(np.zeros((3, 2)), [0.0, 0.0, 0.0])
        for shape in [(2,), (1, 3), (2, 2, 2)]:
            with pytest.raises(ValidationError):
                m.predict_many(np.zeros(shape))

    def test_json_round_trip(self):
        m = self.model(np.arange(6, dtype=float).reshape(3, 2) / 7.0, [0.1, 0.2, 0.3])
        m2 = QuantileModel.from_json(m.to_json())
        np.testing.assert_array_equal(m2.weights, m.weights)
        np.testing.assert_array_equal(m2.bias, m.bias)
        assert m2.levels.levels == m.levels.levels


class TestFit:
    def test_constant_labels(self):
        rng = np.random.default_rng(0)
        d = make_dataset(
            np.full(200, 4.0), [0] * 200, features=rng.normal(size=(200, 2))
        )
        m = fit(d, QuantileLevels.for_alpha(0.1))
        assert np.all(np.abs(m.bias - 4.0) < 1e-9)
        assert np.all(np.abs(m.weights) < 1e-9)

    def test_noiseless_line_recovers_slope(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 5.0, size=(400, 1))
        y = 2.0 * x[:, 0]
        d = make_dataset(y, [0] * 400, features=x)
        m = fit(d, QuantileLevels.for_alpha(0.1))
        np.testing.assert_allclose(m.weights[:, 0], 2.0, atol=1e-9)

    def test_gaussian_upper_quantile(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5000, 1))
        y = rng.normal(size=5000) + 5.0
        d = make_dataset(y, [0] * 5000, domain=(-10.0, 20.0), features=x)
        m = fit(d, QuantileLevels.for_alpha(0.1))
        hi = m.levels.index_of(0.95)
        assert abs(m.bias[hi] - (5.0 + 1.645)) < 0.1

    def test_loss_trace_non_increasing(self):
        # the least-squares start, then the exact fit
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 2))
        y = np.clip(x @ np.array([1.0, -1.0]) + 5.0 + rng.normal(size=300), 0.0, 10.0)
        d = make_dataset(y, [0] * 300, features=x)
        trace = fit(d, QuantileLevels.for_alpha(0.1)).loss_trace
        assert len(trace) == 2
        assert trace[1] < trace[0]

    def test_capped_fit_returns_its_iterate(self):
        data = pipeline_training_split()
        levels = QuantileLevels.for_alpha(0.1)
        capped = fit(data, levels, epochs=1)
        exact = fit(data, levels)
        assert np.all(np.isfinite(capped.weights)) and np.all(np.isfinite(capped.bias))
        assert exact.loss_trace[1] < capped.loss_trace[1] < capped.loss_trace[0]

    def test_cap_must_be_positive(self):
        d = make_dataset([1.0, 2.0], [0, 0], features=np.zeros((2, 1)))
        with pytest.raises(ValidationError, match="iteration cap"):
            fit(d, QuantileLevels.for_alpha(0.1), epochs=0)

    def test_requires_features(self):
        d = make_dataset([1.0, 2.0], [0, 0])
        with pytest.raises(ValidationError, match="feature"):
            fit(d, QuantileLevels.for_alpha(0.1))

    def test_empty_training_set_rejected(self):
        data = make_dataset([], [], features=np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="training dataset is empty"):
            fit(data, QuantileLevels.for_alpha(0.1))


def pipeline_training_split():
    spec = SyntheticSpec(
        n=5000,
        group_probs=(0.25, 0.25, 0.25, 0.25),
        feature_dim=3,
        noise_scale_per_group=(1.0, 2.0, 3.0, 4.0),
        label_domain=(0.0, 63.0),
        seed=7,
    )
    return generate_synthetic(spec)


def random_instance(seed):
    """n in [30, 1500], 0-4 features, labels on [0, 10]; every fourth rounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 1501))
    x = rng.normal(size=(n, int(rng.integers(0, 5))))
    y = 5.0 + x @ rng.normal(size=x.shape[1]) + rng.uniform(0.5, 3.0) * rng.normal(size=n)
    y = np.clip(y, 0.0, 10.0)
    return make_dataset(np.round(y) if seed % 4 == 0 else y, [0] * n, features=x)


class TestFitMatchesReference:
    """Each level's mean pinball loss is the exact optimum, from scipy's HiGHS."""

    def assert_exact(self, data, levels=None, **kwargs):
        linprog = pytest.importorskip("scipy.optimize").linprog
        levels = levels or QuantileLevels.for_alpha(0.1)
        model = fit(data, levels, **kwargs)
        x, y = data.features, data.y
        # the bounded dual: max y'a s.t. X'a = (1 - q) X'1, 0 <= a <= 1
        design = np.column_stack([np.ones(data.n), x]).T
        for j, q in enumerate(levels.levels):
            lp = linprog(
                -y, A_eq=design, b_eq=(1.0 - q) * design.sum(axis=1), bounds=(0.0, 1.0),
                method="highs",
            )
            assert lp.status == 0, lp.message
            best = (-lp.fun - (1.0 - q) * y.sum()) / data.n
            got = float(pinball_loss(y, x @ model.weights[j] + model.bias[j], q).mean())
            # the absolute term admits rounding where the optimum is 0
            assert abs(got - best) <= 1e-9 * best + 1e-12, (q, got, best)

    @pytest.mark.parametrize("seed", range(32))
    def test_random_instance(self, seed):
        self.assert_exact(random_instance(seed))

    def test_pipeline_shaped_training_split(self):
        self.assert_exact(pipeline_training_split(), seed=7)

    def test_no_features(self):
        rng = np.random.default_rng(20)
        data = make_dataset(rng.uniform(0.0, 10.0, 300), [0] * 300, features=np.zeros((300, 0)))
        self.assert_exact(data)

    def test_constant_labels(self):
        rng = np.random.default_rng(21)
        data = make_dataset(np.full(200, 4.0), [0] * 200, features=rng.normal(size=(200, 2)))
        self.assert_exact(data)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_training_sets(self, n):
        rng = np.random.default_rng(22)
        data = make_dataset(rng.uniform(0.0, 10.0, n), [0] * n, features=rng.normal(size=(n, 2)))
        self.assert_exact(data)

    def test_full_grid(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(300, 3))
        y = np.clip(x @ np.array([1.0, -0.5, 2.0]) + 5.0 + rng.normal(size=300), 0.0, 10.0)
        grid = QuantileLevels(tuple(k / 100.0 for k in range(1, 100)))  # 0.01, 0.02, ..., 0.99
        self.assert_exact(make_dataset(y, [0] * 300, features=x), grid)

    def test_constant_feature_column(self):
        rng = np.random.default_rng(24)
        x = np.column_stack([rng.normal(size=400), np.full(400, 3.0)])
        y = np.clip(5.0 + x[:, 0] + rng.normal(size=400), 0.0, 10.0)
        self.assert_exact(make_dataset(y, [0] * 400, features=x))

    def test_collinear_pair(self):
        rng = np.random.default_rng(25)
        u = rng.normal(size=400)
        x = np.column_stack([u, 2.0 * u - 1.0, rng.normal(size=400)])
        y = np.clip(5.0 + u + rng.normal(size=400), 0.0, 10.0)
        self.assert_exact(make_dataset(y, [0] * 400, features=x))

    @pytest.mark.parametrize("n, d", [(12, 100), (6, 8), (3, 3)])
    def test_fewer_records_than_coefficients(self, n, d):
        x = np.random.default_rng(26).normal(size=(n, d))
        y = np.random.default_rng(27).uniform(0.0, 10.0, n)
        self.assert_exact(make_dataset(y, [0] * n, features=x))

    def test_wide_design_with_constant_labels(self):
        # formerly the divergence case: 12 records, 100 features
        x = np.random.default_rng(0).normal(size=(12, 100))
        self.assert_exact(make_dataset([5.0] * 12, [0] * 12, features=x))


class TestDualityGap:
    """The returned dual certifies each level's loss; numpy only."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    def test_gap_within_tolerance(self, seed, q):
        data = pipeline_training_split() if seed == 0 else random_instance(seed)
        y = data.y
        design = np.column_stack([np.ones(data.n), data.features]).T
        coef, a = quantile_model._frisch_newton(design, y, q, np.zeros(design.shape[0]), 400)
        assert a.min() > -1e-12 and a.max() < 1.0 + 1e-12  # a and 1 - a are tracked apart
        scale = np.abs(design).sum(axis=1)
        np.testing.assert_array_less(np.abs(design @ a - (1.0 - q) * design.sum(axis=1)), 1e-9 * scale)
        # the primal loss minus the dual objective, which no coefficients beat
        loss = float(pinball_loss(y, coef @ design, q).sum())
        gap = loss - (float(y @ a) - (1.0 - q) * float(y.sum()))
        assert -1e-9 <= gap <= quantile_model._GAP_TOL * (1.0 + np.abs(y).sum())


class TestGenerateSynthetic:
    def spec(self, noise, n=10000, seed=0):
        return SyntheticSpec(
            n=n,
            group_probs=(0.5, 0.5),
            feature_dim=3,
            noise_scale_per_group=noise,
            label_domain=(0.0, 63.0),
            seed=seed,
        )

    def residuals(self, data, spec):
        w, b = signal_coefficients(spec)
        return data.y - (b + data.features @ w)

    def test_homoscedastic_groups_match(self):
        spec = self.spec((1.0, 1.0))
        data = generate_synthetic(spec)
        r = self.residuals(data, spec)
        s0 = r[data.group == 0].std()
        s1 = r[data.group == 1].std()
        assert abs(s0 - s1) / max(s0, s1) < 0.05

    def test_heteroscedastic_ratio(self):
        spec = self.spec((1.0, 2.0))
        data = generate_synthetic(spec)
        r = self.residuals(data, spec)
        ratio = r[data.group == 1].std() / r[data.group == 0].std()
        assert 1.8 <= ratio <= 2.2

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(n=500, group_probs=(0.5, 0.5), feature_dim=3, noise_scale_per_group=(1.0, 2.0),
                          label_domain=(0.0, 63.0), seed=0),
            SyntheticSpec(n=6000, group_probs=(0.2, 0.3, 0.5), feature_dim=3, noise_scale_per_group=(1.0, 3.0, 5.0),
                          label_domain=(0.0, 63.0), seed=2**32 + 5),
            SyntheticSpec(n=37, group_probs=(1.0,), feature_dim=0, noise_scale_per_group=(0.5,),
                          label_domain=(-1.0, 1.0), seed=7),
            SyntheticSpec(n=1, group_probs=(0.25,) * 4, feature_dim=5, noise_scale_per_group=(1.0, 2.0, 3.0, 4.0),
                          label_domain=(0.0, 10.0), seed=123456789),
        ],
    )
    def test_one_seed_spawn_draws_as_two_did(self, spec):
        # the records as drawn with the seed spawned once for the signal
        # and again for the data: the signal from the first child, the data
        # from the second
        def rng(child):
            return np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[child])

        w, intercept = signal_coefficients(spec)
        data_rng = rng(1)
        groups = data_rng.choice(len(spec.group_probs), size=spec.n, p=np.asarray(spec.group_probs))
        x = data_rng.standard_normal((spec.n, spec.feature_dim))
        eps = data_rng.standard_normal(spec.n) * np.asarray(spec.noise_scale_per_group)[groups]
        y = np.clip(intercept + x @ w + eps, *spec.label_domain)
        if spec.feature_dim:
            raw = rng(0).standard_normal(spec.feature_dim)
            scale = (spec.label_domain[1] - spec.label_domain[0]) / 8.0
            assert w.tobytes() == (raw * (scale / float(np.linalg.norm(raw)))).tobytes()
        data = generate_synthetic(spec)
        assert data.ids.tolist() == [f"s{i:06d}" for i in range(spec.n)]
        assert data.y.tobytes() == y.tobytes()
        assert data.group.tobytes() == groups.astype(np.int64).tobytes()
        assert data.features.tobytes() == x.tobytes()

    def test_bit_identical_reruns(self):
        spec = self.spec((1.0, 2.0), n=500)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.group, b.group)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("n", [1, 10, 11, 999_999, 1_000_000, 1_000_001])
    def test_ids_are_s_and_six_digits(self, n):
        spec = SyntheticSpec(
            n=n,
            group_probs=(1.0,),
            feature_dim=0,
            noise_scale_per_group=(1.0,),
            label_domain=(0.0, 10.0),
            seed=0,
        )
        ids = generate_synthetic(spec).ids
        want = [f"s{i:06d}" for i in range(n)]
        assert ids.dtype == np.dtype(f"<U{len(want[-1])}")
        assert ids.tolist() == want

    def test_labels_clipped_to_domain(self):
        spec = SyntheticSpec(
            n=2000,
            group_probs=(0.5, 0.5),
            feature_dim=1,
            noise_scale_per_group=(30.0, 30.0),
            label_domain=(0.0, 10.0),
            seed=5,
        )
        data = generate_synthetic(spec)
        assert data.y.min() >= 0.0
        assert data.y.max() <= 10.0

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            SyntheticSpec(
                n=10,
                group_probs=(0.5, 0.4),
                feature_dim=1,
                noise_scale_per_group=(1.0, 1.0),
                label_domain=(0.0, 10.0),
                seed=0,
            )

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n", 100.0, "n must be an integer"),
            ("n", True, "n must be an integer"),
            ("n", "100", "n must be an integer"),
            ("n", 0, "sample count must be positive"),
            ("feature_dim", 2.0, "feature_dim must be an integer"),
            ("feature_dim", -1, "feature_dim must be non-negative"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", False, "seed must be an integer"),
            ("seed", -1, "seed must be non-negative"),
        ],
    )
    def test_sizes_and_seed_must_be_integers_in_range(self, field, value, match):
        kwargs = dict(n=10, group_probs=(1.0,), feature_dim=1, noise_scale_per_group=(1.0,),
                      label_domain=(0.0, 10.0), seed=0)
        with pytest.raises(ValidationError, match=match):
            SyntheticSpec(**{**kwargs, field: value})

    def test_numpy_integer_sizes_are_accepted(self):
        spec = SyntheticSpec(n=np.int64(12), group_probs=(1.0,), feature_dim=np.uint8(2),
                             noise_scale_per_group=(1.0,), label_domain=(0.0, 10.0), seed=np.int32(3))
        assert (type(spec.n), type(spec.feature_dim), type(spec.seed)) == (int, int, int)
        plain = SyntheticSpec(n=12, group_probs=(1.0,), feature_dim=2,
                              noise_scale_per_group=(1.0,), label_domain=(0.0, 10.0), seed=3)
        a, b = generate_synthetic(spec), generate_synthetic(plain)
        assert a.ids.tolist() == b.ids.tolist()
        np.testing.assert_array_equal(a.y, b.y)

    def test_non_positive_noise_rejected(self):
        with pytest.raises(ValidationError, match="noise scales"):
            SyntheticSpec(
                n=10,
                group_probs=(1.0,),
                feature_dim=1,
                noise_scale_per_group=(0.0,),
                label_domain=(0.0, 10.0),
                seed=0,
            )

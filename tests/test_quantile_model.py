"""Pinball loss and gradient, model fitting, and synthetic data."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faircov import (
    DivergenceError,
    QuantileLevels,
    QuantileModel,
    SyntheticSpec,
    ValidationError,
    fit,
    generate_synthetic,
    pinball_grad,
    pinball_loss,
    predict,
)
from faircov import quantile_model

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

    def test_gradient_matches_central_differences(self):
        # off-kink points only: the subgradient is exact there
        rng = np.random.default_rng(11)
        y = rng.normal(size=300)
        y_hat = y + rng.choice([-1.0, 1.0], size=300) * rng.uniform(0.1, 2.0, size=300)
        h = 1e-6
        for q in (0.05, 0.5, 0.95):
            num = (pinball_loss(y, y_hat + h, q) - pinball_loss(y, y_hat - h, q)) / (2 * h)
            np.testing.assert_allclose(pinball_grad(y, y_hat, q), num, atol=1e-5)


class TestQuantileLevels:
    def test_for_alpha(self):
        levels = QuantileLevels.for_alpha(0.1)
        assert levels.levels == (0.05, 0.5, 0.95)

    def test_index_of_missing_level(self):
        levels = QuantileLevels.for_alpha(0.1)
        with pytest.raises(ValidationError):
            levels.index_of(0.25)

    def test_require_alpha_mismatch(self):
        levels = QuantileLevels.for_alpha(0.1)
        with pytest.raises(ValidationError):
            levels.require_alpha(0.2)


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
        np.testing.assert_array_equal(predict(m, np.array([5.0, -5.0])), [1.0, 2.0, 3.0])

    def test_crossing_outputs_rearranged(self):
        m = self.model(np.zeros((3, 0)), [3.0, 2.0, 5.0])
        np.testing.assert_array_equal(predict(m, np.zeros(0)), [2.0, 3.0, 5.0])

    def test_output_length_matches_levels(self):
        m = self.model(np.zeros((3, 4)), [0.0, 0.0, 0.0])
        assert predict(m, np.zeros(4)).shape == (3,)

    def test_dimension_mismatch(self):
        m = self.model(np.zeros((3, 2)), [0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            predict(m, np.zeros(3))

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
        m = fit(d, QuantileLevels.for_alpha(0.1), epochs=300)
        assert np.all(np.abs(m.bias - 4.0) < 1e-3)
        assert np.all(np.abs(m.weights) < 1e-2)

    def test_noiseless_line_recovers_slope(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 5.0, size=(400, 1))
        y = 2.0 * x[:, 0]
        d = make_dataset(y, [0] * 400, features=x)
        m = fit(d, QuantileLevels.for_alpha(0.1), epochs=800)
        mid = m.levels.index_of(0.5)
        assert abs(m.weights[mid, 0] - 2.0) < 0.05

    def test_gaussian_upper_quantile(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5000, 1))
        y = rng.normal(size=5000) + 5.0
        d = make_dataset(y, [0] * 5000, domain=(-10.0, 20.0), features=x)
        m = fit(d, QuantileLevels.for_alpha(0.1), epochs=600)
        hi = m.levels.index_of(0.95)
        assert abs(m.bias[hi] - (5.0 + 1.645)) < 0.1

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 2))
        y = np.clip(x @ np.array([1.0, -1.0]) + 5.0, 0.0, 10.0)
        d = make_dataset(y, [0] * 300, features=x)
        m = fit(d, QuantileLevels.for_alpha(0.1), epochs=200)
        trace = np.asarray(m.loss_trace)
        assert np.all(np.diff(trace) <= quantile_model._LOSS_TOL)

    def test_loss_trace_may_rise_within_tolerance(self):
        # an accepted step may raise the loss by rounding noise below _LOSS_TOL
        y = np.array([5.0] * 8 + [3.0, 7.0])
        d = make_dataset(y, [0] * 10, features=np.arange(10.0)[:, None])
        trace = np.diff(fit(d, QuantileLevels((0.5,)), epochs=200).loss_trace)
        assert trace.max() > 0.0
        assert trace.max() <= quantile_model._LOSS_TOL

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 100))
        y = np.full(50, 5.0)
        d = make_dataset(y, [0] * 50, features=x)
        with pytest.raises(DivergenceError, match="epoch 1"):
            fit(d, QuantileLevels.for_alpha(0.1), lr=1e308, epochs=5)

    def test_requires_features(self):
        d = make_dataset([1.0, 2.0], [0, 0])
        with pytest.raises(ValidationError, match="feature"):
            fit(d, QuantileLevels.for_alpha(0.1))


def _reference_mean_pinball(y, preds, levels):
    resid = y[:, None] - preds
    per = np.where(resid >= 0.0, levels[None, :] * resid, (levels[None, :] - 1.0) * resid)
    return float(per.mean())


def _reference_fit(train, levels, lr=0.1, epochs=400, seed=0):
    """The plain epoch loop: fresh arrays each epoch, ``where`` for branches."""
    y = train.y
    x = train.features
    n, d = x.shape
    qs = np.asarray(levels.levels, dtype=np.float64)
    mu = x.mean(axis=0) if d else np.zeros(0)
    sd = x.std(axis=0) if d else np.zeros(0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mu) / sd if d else x

    w = np.zeros((len(levels), d))
    b = np.quantile(y, qs) if n else np.zeros(len(levels))
    step = float(lr)
    preds = xs @ w.T + b
    loss = _reference_mean_pinball(y, preds, qs)
    trace = [loss]
    for epoch in range(1, epochs + 1):
        g = np.where(y[:, None] >= preds, -qs[None, :], 1.0 - qs[None, :])
        gw = (g.T @ xs) / n
        gb = g.mean(axis=0)
        w_new = w - step * gw
        b_new = b - step * gb
        preds_new = xs @ w_new.T + b_new
        loss_new = _reference_mean_pinball(y, preds_new, qs)
        if not np.isfinite(loss_new):
            raise DivergenceError(epoch)
        if loss_new <= loss + quantile_model._LOSS_TOL:
            w, b, preds, loss = w_new, b_new, preds_new, loss_new
        else:
            step *= 0.5
            if step < quantile_model._MIN_LR:
                trace.append(loss)
                break
        trace.append(loss)

    w_raw = w / sd if d else w
    b_raw = b - (w_raw @ mu if d else 0.0)
    return QuantileModel(
        weights=w_raw, bias=b_raw, levels=levels, seed=seed, loss_trace=tuple(trace)
    )


class TestFitMatchesReference:
    """``fit``'s buffered loop writes the same model.json as the plain loop."""

    def assert_same(self, data, levels=None, **kwargs):
        levels = levels or QuantileLevels.for_alpha(0.1)
        got = fit(data, levels, **kwargs)
        assert got.to_json() == _reference_fit(data, levels, **kwargs).to_json()
        return got.loss_trace

    def test_pipeline_shaped_training_split(self):
        spec = SyntheticSpec(
            n=5000,
            group_probs=(0.25, 0.25, 0.25, 0.25),
            feature_dim=3,
            noise_scale_per_group=(1.0, 2.0, 3.0, 4.0),
            label_domain=(0.0, 63.0),
            seed=7,
        )
        self.assert_same(generate_synthetic(spec), seed=7)

    def test_no_features(self):
        rng = np.random.default_rng(20)
        data = make_dataset(rng.uniform(0.0, 10.0, 300), [0] * 300, features=np.zeros((300, 0)))
        self.assert_same(data, epochs=50)

    def test_constant_labels(self):
        rng = np.random.default_rng(21)
        data = make_dataset(np.full(200, 4.0), [0] * 200, features=rng.normal(size=(200, 2)))
        self.assert_same(data, epochs=300)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_training_sets(self, n):
        rng = np.random.default_rng(22)
        data = make_dataset(rng.uniform(0.0, 10.0, n), [0] * n, features=rng.normal(size=(n, 2)))
        self.assert_same(data, epochs=100)

    def test_full_grid(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(1000, 3))
        y = np.clip(x @ np.array([1.0, -0.5, 2.0]) + 5.0 + rng.normal(size=1000), 0.0, 10.0)
        self.assert_same(make_dataset(y, [0] * 1000, features=x), QuantileLevels.full_grid(), epochs=100)

    def test_rejected_steps(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1000, 3))
        y = np.clip(x @ np.array([1.0, -0.5, 2.0]) + 5.0 + rng.normal(size=1000), 0.0, 10.0)
        trace = self.assert_same(make_dataset(y, [0] * 1000, features=x), lr=50.0, epochs=200)
        assert np.any(np.diff(trace) == 0.0)  # some epochs kept their state

    def test_step_size_floor_ends_the_fit(self):
        # far more features than records, one record scaled up: every step
        # raises the loss, so each epoch halves it until it drops below the floor
        x = np.random.default_rng(25).normal(size=(6, 5000))
        x[0] *= 50.0
        data = make_dataset([2.0, 2.0, 0.0, 0.0, 2.0, 2.0], [0] * 6, features=x)
        trace = self.assert_same(data, epochs=100)
        assert len(trace) < 101

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_at_the_same_epoch(self):
        rng = np.random.default_rng(26)
        data = make_dataset(rng.uniform(0.0, 10.0, 50), [0] * 50, features=rng.normal(size=(50, 3)))
        levels = QuantileLevels.for_alpha(0.1)
        with pytest.raises(DivergenceError) as got:
            fit(data, levels, lr=1e308, epochs=5)
        with pytest.raises(DivergenceError) as want:
            _reference_fit(data, levels, lr=1e308, epochs=5)
        assert got.value.epoch == want.value.epoch

    def test_empty_training_set_diverges_at_epoch_1(self):
        # fit rejects the empty set up front, before numpy sees it; the
        # plain loop only fails on its NaN loss
        data = make_dataset([], [], features=np.zeros((0, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="training dataset is empty"):
                fit(data, QuantileLevels.for_alpha(0.1))
        with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError, match="epoch 1"):
            _reference_fit(data, QuantileLevels.for_alpha(0.1))


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
        from faircov.quantile_model import signal_coefficients

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

    def test_bit_identical_reruns(self):
        spec = self.spec((1.0, 2.0), n=500)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.group, b.group)
        np.testing.assert_array_equal(a.features, b.features)

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

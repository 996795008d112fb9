"""Multi-quantile linear regression trained with the pinball loss.

The model predicts one value per requested quantile level from a shared
feature vector. Training is deterministic full-batch subgradient descent
with step-halving backtracking: a step that would raise the epoch loss
by more than ``_LOSS_TOL`` (1e-12) is reverted and the step size halved,
so the recorded loss rises by at most that much per epoch. The epoch
loop allocates its ``(n, levels)`` buffers once and runs no ``where``;
every float it produces is bit-identical to the plain formulation (fresh
arrays each epoch, branches by ``np.where``), which the tests keep as a
reference. Quantile crossing is repaired at prediction time by sorting
the per-level outputs (monotone rearrangement).

Also hosts the synthetic data generator used by the command line tools
and the test harness: a linear signal plus group-dependent noise, clipped
to the label domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, DivergenceError, ValidationError

__all__ = [
    "QuantileLevels",
    "QuantileModel",
    "SyntheticSpec",
    "pinball_loss",
    "pinball_grad",
    "fit",
    "predict",
    "generate_synthetic",
    "signal_coefficients",
]

_LOSS_TOL = 1e-12
_MIN_LR = 1e-14


def pinball_loss(y, y_hat, q: float):
    """Pinball (quantile) loss.

    Charges ``q * (y - y_hat)`` when the prediction is below the label and
    ``(1 - q) * (y_hat - y)`` otherwise. Accepts scalars or arrays.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    out = np.where(y >= y_hat, q * (y - y_hat), (1.0 - q) * (y_hat - y))
    return float(out) if out.ndim == 0 else out


def pinball_grad(y, y_hat, q: float):
    """Subgradient of the pinball loss with respect to the prediction.

    Returns ``-q`` where ``y >= y_hat`` and ``1 - q`` elsewhere; at the kink
    the left branch is used.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    out = np.where(y >= y_hat, -q, 1.0 - q)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QuantileLevels:
    """Strictly ascending quantile levels in (0, 1); 0.5 must be present."""

    levels: tuple[float, ...]

    def __post_init__(self):
        levels = tuple(float(q) for q in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValidationError("at least one quantile level is required")
        if any(not 0.0 < q < 1.0 for q in levels):
            raise ValidationError(f"quantile levels must lie in (0, 1), got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValidationError(f"quantile levels must be strictly ascending, got {levels}")
        if not any(abs(q - 0.5) < 1e-12 for q in levels):
            raise ValidationError("the 0.5 level (point prediction) must be included")

    @classmethod
    def for_alpha(cls, alpha: float) -> "QuantileLevels":
        """The minimal grid {alpha/2, 0.5, 1 - alpha/2}."""
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
        return cls((alpha / 2.0, 0.5, 1.0 - alpha / 2.0))

    @classmethod
    def full_grid(cls) -> "QuantileLevels":
        """The dense grid 0.01, 0.02, ..., 0.99."""
        return cls(tuple(float(np.round(k / 100.0, 2)) for k in range(1, 100)))

    def index_of(self, level: float) -> int:
        for i, q in enumerate(self.levels):
            if abs(q - level) < 1e-9:
                return i
        raise ValidationError(f"level {level} is not in the configured grid {self.levels}")

    def require_alpha(self, alpha: float) -> None:
        """Check that the grid supports miscoverage level ``alpha``."""
        for needed in (alpha / 2.0, 0.5, 1.0 - alpha / 2.0):
            self.index_of(needed)

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class QuantileModel:
    """Fitted linear quantile model: one (weights, bias) row per level."""

    weights: np.ndarray  # (n_levels, n_features)
    bias: np.ndarray  # (n_levels,)
    levels: QuantileLevels
    seed: int
    loss_trace: tuple[float, ...]

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != len(self.levels) or b.shape[0] != len(self.levels):
            raise ValidationError("model weights and bias must match the level count")

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        """Predict all levels for a feature matrix; rows sorted ascending."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValidationError(
                f"feature matrix must have shape (n, {self.feature_dim}), got {x.shape}"
            )
        raw = x @ self.weights.T + self.bias
        return np.sort(raw, axis=1)

    def band(self, features: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (q_lo, median, q_hi) columns for miscoverage level alpha."""
        self.levels.require_alpha(alpha)
        preds = self.predict_many(features)
        i_lo = self.levels.index_of(alpha / 2.0)
        i_md = self.levels.index_of(0.5)
        i_hi = self.levels.index_of(1.0 - alpha / 2.0)
        return preds[:, i_lo], preds[:, i_md], preds[:, i_hi]

    def to_json(self) -> str:
        payload = {
            "levels": list(self.levels.levels),
            "weights": [[float(v) for v in row] for row in self.weights],
            "bias": [float(v) for v in self.bias],
            "feature_dim": self.feature_dim,
            "seed": self.seed,
            "loss_trace": [float(v) for v in self.loss_trace],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "QuantileModel":
        payload = json.loads(text)
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64).reshape(
                len(payload["levels"]), payload["feature_dim"]
            ),
            bias=np.asarray(payload["bias"], dtype=np.float64),
            levels=QuantileLevels(tuple(payload["levels"])),
            seed=int(payload["seed"]),
            loss_trace=tuple(float(v) for v in payload["loss_trace"]),
        )


def predict(model: QuantileModel, features: np.ndarray) -> np.ndarray:
    """Predict all levels for a single feature vector, sorted ascending."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.feature_dim:
        raise ValidationError(
            f"feature vector must have length {model.feature_dim}, got shape {x.shape}"
        )
    return model.predict_many(x[None, :])[0]


def fit(
    train: Dataset,
    levels: QuantileLevels,
    lr: float = 0.1,
    epochs: int = 400,
    seed: int = 0,
) -> QuantileModel:
    """Fit the linear quantile model by full-batch subgradient descent.

    Biases start at the empirical label quantiles and weights at zero.
    Features are standardized internally for conditioning; the returned
    coefficients are in raw feature space. A step that would raise the
    epoch loss by more than ``_LOSS_TOL`` (1e-12) is reverted and the step
    size halved, so ``loss_trace`` rises by at most that much per epoch.
    ``seed`` is recorded in the artifact for provenance; the procedure
    itself is deterministic.
    """
    if lr <= 0:
        raise ValidationError(f"learning rate must be positive, got {lr}")
    if epochs < 1:
        raise ValidationError(f"epoch count must be at least 1, got {epochs}")
    if train.features is None:
        raise ValidationError("training dataset must carry feature columns")
    if train.n == 0:
        raise ValidationError("training dataset is empty")
    y = train.y
    x = train.features
    n, d = x.shape
    qs = np.asarray(levels.levels, dtype=np.float64)
    mu = x.mean(axis=0) if d else np.zeros(0)
    sd = x.std(axis=0) if d else np.zeros(0)
    sd = np.where(sd > 0, sd, 1.0)
    xs = (x - mu) / sd if d else x

    k = len(levels)
    w = np.zeros((k, d))
    b = np.quantile(y, qs)
    # The (n, k) buffers of every epoch, allocated once. ``resid`` holds the
    # residuals, then the per-record losses, then the gradient's running
    # column sums; ``coef`` holds the loss coefficient of each residual.
    tiled_qs = np.tile(qs, (n, 1))
    resid = np.empty((n, k))
    below = np.empty((n, k), dtype=bool)
    coef = np.empty((n, k))

    def mean_pinball(w: np.ndarray, b: np.ndarray) -> float:
        np.matmul(xs, w.T, out=resid)
        for j in range(k):  # column by column: a broadcast would loop over the k levels
            col = resid[:, j]
            col += b[j]
            np.subtract(y, col, out=col)
        # q where the residual is >= 0 and q - 1 below: the factor the
        # pinball loss applies, so each loss is that one product, bit for bit
        np.less(resid, 0.0, out=below)
        np.subtract(tiled_qs, below, out=coef)
        return float(np.multiply(coef, resid, out=resid).mean())

    def subgradient() -> tuple[np.ndarray, np.ndarray]:
        """(gw, gb) at the point ``mean_pinball`` last saw; overwrites its buffers."""
        g = np.negative(coef, out=coef)  # -q where y >= preds, 1 - q elsewhere
        # a sequential column sum adds in the order ``g.mean(axis=0)`` does
        sums = np.cumsum(g, axis=0, out=resid)[-1]
        return (g.T @ xs) / n, sums / n

    step = float(lr)
    loss = mean_pinball(w, b)
    gw, gb = subgradient()
    trace = [loss]
    for epoch in range(1, epochs + 1):
        w_new = w - step * gw
        b_new = b - step * gb
        loss_new = mean_pinball(w_new, b_new)
        if not np.isfinite(loss_new):
            raise DivergenceError(epoch)
        if loss_new <= loss + _LOSS_TOL:
            w, b, loss = w_new, b_new, loss_new
            gw, gb = subgradient()
        else:  # the state stays, and so does its subgradient
            step *= 0.5
            if step < _MIN_LR:
                trace.append(loss)
                break
        trace.append(loss)

    w_raw = w / sd if d else w
    b_raw = b - (w_raw @ mu if d else 0.0)
    return QuantileModel(
        weights=w_raw,
        bias=b_raw,
        levels=levels,
        seed=seed,
        loss_trace=tuple(trace),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for the synthetic population.

    ``y = intercept + w . x + eps`` where the noise scale depends on the
    record's group and labels are clipped to the label domain. The signal
    direction is derived deterministically from the seed; see
    :func:`signal_coefficients`.
    """

    n: int
    group_probs: tuple[float, ...]
    feature_dim: int
    noise_scale_per_group: tuple[float, ...]
    label_domain: tuple[float, float]
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"sample count must be positive, got {self.n}")
        probs = tuple(float(p) for p in self.group_probs)
        object.__setattr__(self, "group_probs", probs)
        if not probs or any(p < 0 for p in probs):
            raise ValidationError(f"group probabilities must be non-negative, got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(f"group probabilities must sum to 1, got {sum(probs)!r}")
        scales = tuple(float(s) for s in self.noise_scale_per_group)
        object.__setattr__(self, "noise_scale_per_group", scales)
        if len(scales) != len(probs):
            raise ValidationError("one noise scale per group is required")
        if any(s <= 0 for s in scales):
            raise ValidationError(f"noise scales must be positive, got {scales}")
        if self.feature_dim < 0:
            raise ValidationError("feature_dim must be non-negative")
        lo, hi = self.label_domain
        if not lo < hi:
            raise ValidationError(f"label domain must be ordered, got {self.label_domain}")


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    ss = np.random.SeedSequence(seed)
    child_signal, child_data = ss.spawn(2)
    return np.random.default_rng(child_signal), np.random.default_rng(child_data)


def signal_coefficients(spec: SyntheticSpec) -> tuple[np.ndarray, float]:
    """The (weights, intercept) pair the generator uses for the noiseless signal.

    The weight vector has norm ``(hi - lo) / 8`` and the intercept sits at
    the domain midpoint, so the signal fills the label range without heavy
    clipping at default noise scales.
    """
    rng_signal, _ = _spawn_rngs(spec.seed)
    lo, hi = spec.label_domain
    scale = (hi - lo) / 8.0
    if spec.feature_dim == 0:
        w = np.zeros(0)
    else:
        raw = rng_signal.standard_normal(spec.feature_dim)
        norm = float(np.linalg.norm(raw))
        w = raw * (scale / norm) if norm > 0 else np.full(spec.feature_dim, scale)
    return w, (lo + hi) / 2.0


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a synthetic dataset with group-dependent noise.

    All randomness flows from ``spec.seed``; repeated calls reproduce the
    same records bit for bit.
    """
    w, intercept = signal_coefficients(spec)
    _, rng = _spawn_rngs(spec.seed)
    s = len(spec.group_probs)
    groups = rng.choice(s, size=spec.n, p=np.asarray(spec.group_probs))
    x = rng.standard_normal((spec.n, spec.feature_dim))
    scales = np.asarray(spec.noise_scale_per_group)[groups]
    eps = rng.standard_normal(spec.n) * scales
    lo, hi = spec.label_domain
    y = np.clip(intercept + x @ w + eps, lo, hi)
    return Dataset(
        ids=tuple(f"s{i:06d}" for i in range(spec.n)),
        y=y,
        group=groups.astype(np.int64),
        label_domain=(float(lo), float(hi)),
        group_count=s,
        features=x,
    )

"""Multi-quantile linear regression fitted exactly under the pinball loss.

The model predicts one value per requested quantile level from a shared
feature vector. Each level is a linear program (Koenker & Bassett 1978)
that the Frisch–Newton interior point solves from the least-squares fit.
Its ``p x p`` systems are solved by least squares, so constant, collinear
and wide designs take the same path. Quantile crossing is repaired at
prediction time by sorting the per-level outputs (monotone rearrangement).

Also hosts the synthetic data generator used by the command line tools
and the test harness: a linear signal plus group-dependent noise, clipped
to the label domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, ValidationError

__all__ = [
    "QuantileLevels",
    "QuantileModel",
    "SyntheticSpec",
    "pinball_loss",
    "fit",
    "generate_synthetic",
    "signal_coefficients",
]

# A level's fit stops once its duality gap, which bounds how far its summed
# pinball loss lies above the minimum, is at most this times 1 + sum(|y|).
_GAP_TOL = 1e-12


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

    def index_of(self, level: float) -> int:
        for i, q in enumerate(self.levels):
            if abs(q - level) < 1e-9:
                return i
        raise ValidationError(f"level {level} is not in the configured grid {self.levels}")

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
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValidationError("model weights and bias must be finite")

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
        i_lo = self.levels.index_of(alpha / 2.0)
        i_md = self.levels.index_of(0.5)
        i_hi = self.levels.index_of(1.0 - alpha / 2.0)
        preds = self.predict_many(features)
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


def fit(train: Dataset, levels: QuantileLevels, epochs: int = 400, seed: int = 0) -> QuantileModel:
    """Fit each level exactly: its coefficients minimize the mean pinball loss.

    :func:`_frisch_newton` solves each level on standardized features plus
    an intercept; ``epochs`` caps its iterations, and a capped level keeps
    its current iterate. ``loss_trace`` holds the mean pinball loss over
    records and levels at the least-squares start, then at the result.
    ``seed`` is recorded for provenance; the fit is deterministic.
    """
    if epochs < 1:
        raise ValidationError(f"iteration cap must be at least 1, got {epochs}")
    if train.features is None:
        raise ValidationError("training dataset must carry feature columns")
    if train.n == 0:
        raise ValidationError("training dataset is empty")
    y, x, qs = train.y, train.features, levels.levels
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    design = np.empty((x.shape[1] + 1, train.n))  # one row per coefficient
    design[0] = 1.0
    design[1:] = ((x - mu) / sd).T
    start = np.linalg.lstsq(design @ design.T, design @ y, rcond=None)[0]
    coef = np.array([_frisch_newton(design, y, q, start, epochs)[0] for q in qs])

    def mean_pinball(rows) -> float:
        return float(np.mean([pinball_loss(y, c @ design, q).mean() for c, q in zip(rows, qs)]))

    weights = coef[:, 1:] / sd
    return QuantileModel(
        weights=weights,
        bias=coef[:, 0] - weights @ mu,
        levels=levels,
        seed=seed,
        loss_trace=(mean_pinball([start] * len(qs)), mean_pinball(coef)),
    )


def _frisch_newton(
    design: np.ndarray, y: np.ndarray, q: float, start: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Level-``q`` quantile regression by the Frisch–Newton interior point.

    Mehrotra's predictor-corrector (Portnoy & Koenker 1997) on the dual
    ``max y'a  s.t.  X'a = (1 - q) X'1,  0 <= a <= 1``, whose equality
    multipliers are minus the coefficients ``b``; ``design`` is ``X'``.
    From ``a = 1 - q`` and ``b = start``, the slacks ``z`` of ``a >= 0``
    and ``w`` of ``a <= 1`` start at the residuals' negative and positive
    parts plus 1e-3 and keep ``w - z = y - X b``. It stops once the gap
    ``a'z + (1 - a)'w`` is at most ``_GAP_TOL * (1 + sum(|y|))``, or after
    ``cap`` iterations, and returns ``b`` and ``a``. All ``n``-vectors
    live in one ``(8, n)`` buffer.
    """
    p, n = design.shape
    tol = _GAP_TOL * (1.0 + float(np.abs(y).sum()))
    b = np.array(start, dtype=np.float64)
    buf = np.empty((8, n))
    P, D, dD, (da, qw) = buf[0:2], buf[2:4], buf[4:6], buf[6:8]
    (a, s), (z, w), (dz, dw) = P, D, dD
    a.fill(1.0 - q)
    s.fill(q)
    np.subtract(y, np.matmul(b, design, out=z), out=z)  # residuals
    np.maximum(z, 0.0, out=w)
    np.subtract(w, z, out=z)
    D += 1e-3
    gram = np.empty((p, p))
    for _ in range(cap):
        gap = float(np.vdot(D, P))
        if gap <= tol:
            break
        np.copyto(dD, D)  # the predictor's target: zero complementarity
        for corrector in (False, True):
            if corrector:
                if fp == fd == 1.0:  # the predictor's full step is feasible
                    break
                # Mehrotra's centring target plus the predictor's second-order term
                g = gap + fp * (da @ z - da @ w) + fd * np.vdot(dD, P) + fp * fd * (da @ dz - da @ dw)
                mu = gap * (g / gap) ** 3 / (2 * n)
                dD *= da
                dw *= -1.0
                dD -= mu
                dD /= P
                dD += D
            # Newton's weights qw = 1 / (z / a + w / s) and X' Q X
            np.divide(z, a, out=qw)
            qw += np.divide(w, s, out=da)
            np.reciprocal(qw, out=qw)
            for j in range(p):
                gram[j] = design @ np.multiply(design[j], qw, out=da)
            # da = qw (u - X db) for the target residuals u = dw - dz
            np.subtract(dw, dz, out=da)
            db = np.linalg.lstsq(gram, design @ np.multiply(da, qw, out=da), rcond=None)[0]
            np.matmul(db, design, out=da)
            np.subtract(dw, da, out=da)
            da -= dz
            da *= qw
            # dz and dw: minus the target, minus z da / a and plus w da / s
            dz += np.multiply(np.divide(da, a, out=qw), z, out=qw)
            dw -= np.multiply(np.divide(da, s, out=qw), w, out=qw)
            np.negative(dD, out=dD)
            fp = _fraction(max(-np.divide(da, a, out=qw).min(), np.divide(da, s, out=qw).max()))
            fd = _fraction(-min(np.divide(dz, z, out=qw).min(), np.divide(dw, w, out=qw).min()))
        np.multiply(da, fp, out=qw)
        a += qw
        s -= qw
        dD *= fd
        D += dD
        b += fd * db
    return b, a


def _fraction(worst: float) -> float:
    """The step along a direction whose first bound is at ``1 / worst``: 0.99995 of it, at most 1."""
    return 1.0 if worst <= 0.0 else min(1.0, 0.99995 / worst)


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
        for name in ("n", "feature_dim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValidationError(f"sample count must be positive, got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        probs = tuple(float(p) for p in self.group_probs)
        object.__setattr__(self, "group_probs", probs)
        if not probs or any(not 0.0 <= p <= 1.0 for p in probs):  # NaN fails too
            raise ValidationError(f"group probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(f"group probabilities must sum to 1, got {sum(probs)!r}")
        scales = tuple(float(s) for s in self.noise_scale_per_group)
        object.__setattr__(self, "noise_scale_per_group", scales)
        if len(scales) != len(probs):
            raise ValidationError("one noise scale per group is required")
        if any(not 0.0 < s < math.inf for s in scales):  # NaN fails too
            raise ValidationError(f"noise scales must be positive and finite, got {scales}")
        if self.feature_dim < 0:
            raise ValidationError("feature_dim must be non-negative")
        lo, hi = self.label_domain
        if not -math.inf < lo < hi < math.inf:  # NaN fails too
            raise ValidationError(f"label domain must be a finite ordered pair, got {self.label_domain}")


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
    return _signal(spec, _spawn_rngs(spec.seed)[0])


def _signal(spec: SyntheticSpec, rng_signal: np.random.Generator) -> tuple[np.ndarray, float]:
    """:func:`signal_coefficients`, drawn from the first child of the spec's seed."""
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
    same records bit for bit. Record ``i`` has the id ``"s"`` plus ``i``
    zero-padded to 6 digits (``"s000042"``); indices past 999,999 take
    their own width. The ids' dtype is ``U7`` up to ``n = 10**6`` and
    ``U{1 + len(str(n - 1))}`` above it.
    """
    rng_signal, rng = _spawn_rngs(spec.seed)
    w, intercept = _signal(spec, rng_signal)
    s = len(spec.group_probs)
    groups = rng.choice(s, size=spec.n, p=np.asarray(spec.group_probs))
    x = rng.standard_normal((spec.n, spec.feature_dim))
    scales = np.asarray(spec.noise_scale_per_group)[groups]
    eps = rng.standard_normal(spec.n) * scales
    lo, hi = spec.label_domain
    y = np.clip(intercept + x @ w + eps, lo, hi)
    # "s%06d" written as code points into the final array: indices below
    # 10**6 take 6 digits, those in [10**(d-1), 10**d) take d, and an id
    # shorter than the array's width keeps its NUL padding
    width = max(6, len(str(spec.n - 1)))
    ids = np.zeros(spec.n, dtype=f"U{1 + width}")
    points = ids.view(np.uint32).reshape(spec.n, 1 + width)
    points[:, 0] = ord("s")
    for d in range(6, width + 1):
        start = 0 if d == 6 else 10 ** (d - 1)
        stop = min(10 ** d, spec.n)
        rest = np.arange(start, stop, dtype=np.uint32)
        digit = np.empty_like(rest)
        for column in range(d, 0, -1):
            np.divmod(rest, 10, out=(rest, digit))
            np.add(digit, ord("0"), out=points[start:stop, column])
    return Dataset(
        ids=ids,
        y=y,
        group=groups.astype(np.int64),
        label_domain=(float(lo), float(hi)),
        group_count=s,
        features=x,
    )

"""Gaussian baseline of normal behavior, scored by Mahalanobis distance.

Training standardizes each column, fits mean/covariance on the
standardized data (so the fitted mean is the zero vector), regularizes
the covariance before inversion, and calibrates the flagging threshold
tau from the training scores.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS


class TrainingError(ValueError):
    pass


@dataclass
class NormalizationStats:
    """Per-column standardization parameters from the training set.

    Constant columns cannot be standardized; they are dropped and their
    names recorded.
    """

    feature_names: List[str]
    mean: np.ndarray
    std: np.ndarray
    dropped: List[str] = field(default_factory=list)

    def normalize(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} columns, got {X.shape[1]}")
        return (X - self.mean) / self.std


@dataclass
class GaussianModel:
    mean: np.ndarray          # in normalized space; zeros after fit
    cov: np.ndarray
    cov_inv: np.ndarray       # inverse of (cov + lambda*I)
    regularization: float
    tau: float
    dim: int


def mahalanobis_score(model: GaussianModel, x: np.ndarray) -> float:
    """Quadratic-form distance of a normalized row from the baseline mean:
    a batch of one."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected dimension {model.dim}, got shape {x.shape}")
    return float(mahalanobis_scores(model, x[None, :])[0])


def mahalanobis_scores(model: GaussianModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    diff = X - model.mean
    return np.einsum("ij,jk,ik->i", diff, model.cov_inv, diff)


def _chi2_shortfall(x: float, df: int, q: float) -> float:
    """q minus the chi-squared CDF at x, P(df/2, x/2): positive below the
    q-quantile.  Below a+1, P comes from its series; above it, Q = 1 - P
    comes from Lentz's continued fraction (Numerical Recipes, 3rd ed.,
    section 6.2) and is compared with 1 - q, so that the upper tail keeps
    its relative precision."""
    a, y = df / 2.0, x / 2.0
    if y <= 0.0:
        return q
    front = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= y / n
            total += term
        return q - total * front
    b = y + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return front * h - (1.0 - q)


def chi2_quantile(q: float, df: int) -> float:
    """The x at which the chi-squared CDF with ``df`` degrees of freedom
    reaches q: bisected down to two adjacent floats, then the one with
    the smaller shortfall.  Taking the nearer float, not the upper one,
    matters: tau is part of a model's content hash."""
    lo, hi = 0.0, float(df)
    while _chi2_shortfall(hi, df, q) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return min(lo, hi, key=lambda x: abs(_chi2_shortfall(x, df, q)))
        if _chi2_shortfall(mid, df, q) > 0.0:
            lo = mid
        else:
            hi = mid


def calibrate_tau(model: GaussianModel, X_norm: np.ndarray, q: float) -> float:
    """Threshold = max(empirical q-quantile of training scores, chi2 quantile).

    The chi-squared floor keeps tau sane on small or degenerate samples;
    the empirical term adapts to heavy-tailed training data.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile q must be in (0,1), got {q}")
    X_norm = np.asarray(X_norm, dtype=float)
    if X_norm.size == 0:
        raise ValueError("cannot calibrate tau on empty data")
    scores = mahalanobis_scores(model, X_norm)
    empirical = float(np.quantile(scores, q, method="higher"))
    floor = chi2_quantile(q, model.dim)
    return max(empirical, floor)


def fit_gaussian(
    X: np.ndarray,
    feature_names: Sequence[str],
    q: float = 0.99,
) -> Tuple[NormalizationStats, GaussianModel]:
    """Fit the standardized Gaussian baseline and calibrate tau.

    Requires finite values, and at least d+2 rows after dropping constant
    columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise TrainingError("training data must be a 2-d array")
    names = list(feature_names)
    if X.shape[1] != len(names):
        raise TrainingError(f"{len(names)} feature names for {X.shape[1]} columns")
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise TrainingError("a value that is not a finite number in column "
                            + ", ".join(n for n, ok in zip(names, finite) if not ok))

    col_mean = X.mean(axis=0)
    col_std = X.std(axis=0, ddof=0)
    keep = col_std > 0
    dropped = [name for name, k in zip(names, keep) if not k]
    if not keep.any():
        raise TrainingError(f"all columns constant: {', '.join(dropped)}")
    kept_names = [name for name, k in zip(names, keep) if k]
    d = len(kept_names)
    if X.shape[0] < d + 2:
        raise TrainingError(f"need at least {d + 2} rows to fit {d} features, got {X.shape[0]}")

    stats = NormalizationStats(
        feature_names=kept_names,
        mean=col_mean[keep],
        std=col_std[keep],
        dropped=dropped,
    )
    Z = stats.normalize(X[:, keep])

    mu = np.zeros(d)  # columns are standardized
    cov = np.cov(Z, rowvar=False, ddof=1).reshape(d, d)
    # The coefficient must stay tiny: the ridge term breaks exact affine
    # invariance of the quadratic form by roughly lambda * cond(cov)^2.
    lam = 1e-12 * float(np.trace(cov)) / d
    cov_reg = cov + lam * np.eye(d)
    cov_inv = np.linalg.inv(cov_reg)
    if not np.allclose(cov_inv @ cov_reg, np.eye(d), atol=1e-8):
        raise TrainingError("regularized covariance inversion failed")

    model = GaussianModel(mean=mu, cov=cov, cov_inv=cov_inv,
                          regularization=lam, tau=0.0, dim=d)
    model.tau = calibrate_tau(model, Z, q)
    return stats, model

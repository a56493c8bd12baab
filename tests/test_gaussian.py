import math
import statistics

import numpy as np
import pytest

from oracles import gauss_jordan_inverse, two_pass_covariance
from sentinel.etd.gaussian import (
    GaussianModel,
    TrainingError,
    calibrate_tau,
    chi2_quantile,
    fit_gaussian,
    mahalanobis_score,
    mahalanobis_scores,
)


def _fit(n=500, d=4, seed=0, q=0.99):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.uniform(-3, 3, d)
    names = [f"f{i}" for i in range(d)]
    return X, fit_gaussian(X, names, q=q)


class TestFit:
    def test_normalized_columns_are_standard(self):
        X, (stats, model) = _fit()
        Z = stats.normalize(X)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(Z.std(axis=0) - 1) < 1e-9)

    def test_symmetric_2d_mean(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        stats, model = fit_gaussian(X, ["a", "b"], q=0.5)
        assert np.allclose(stats.mean, [1.0, 1.0])
        assert np.allclose(model.mean, [0.0, 0.0])

    def test_covariance_matches_two_pass_oracle(self):
        X, (stats, model) = _fit(n=400, d=4, seed=3)
        Z = stats.normalize(X)
        assert np.max(np.abs(model.cov - two_pass_covariance(Z))) < 1e-10

    def test_too_few_rows(self):
        with pytest.raises(TrainingError):
            fit_gaussian(np.random.default_rng(0).standard_normal((4, 4)),
                         ["a", "b", "c", "d"])

    def test_all_constant_columns_named(self):
        X = np.ones((50, 2))
        with pytest.raises(TrainingError, match="a, b"):
            fit_gaussian(X, ["a", "b"])

    def test_constant_column_dropped_and_recorded(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.standard_normal(100), np.full(100, 7.0),
                             rng.standard_normal(100)])
        stats, model = fit_gaussian(X, ["a", "const", "b"])
        assert stats.dropped == ["const"]
        assert stats.feature_names == ["a", "b"]
        assert model.dim == 2

    def test_regularized_inverse_is_inverse(self):
        X, (stats, model) = _fit(seed=11)
        reg = model.cov + model.regularization * np.eye(model.dim)
        assert np.allclose(model.cov_inv @ reg, np.eye(model.dim), atol=1e-8)


class TestScore:
    def test_zero_at_mean(self):
        X, (stats, model) = _fit()
        assert mahalanobis_score(model, np.zeros(model.dim)) == 0.0

    def test_diagonal_closed_form(self):
        cov = np.diag([4.0, 1.0])
        model = GaussianModel(mean=np.zeros(2), cov=cov,
                              cov_inv=np.linalg.inv(cov), regularization=0.0,
                              tau=0.0, dim=2)
        assert mahalanobis_score(model, np.array([2.0, 1.0])) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        X, (stats, model) = _fit()
        with pytest.raises(ValueError):
            mahalanobis_score(model, np.zeros(model.dim + 1))

    def test_matches_explicit_inverse_oracle(self):
        X, (stats, model) = _fit(n=300, d=4, seed=7)
        reg = model.cov + model.regularization * np.eye(4)
        inv = gauss_jordan_inverse(reg)
        rng = np.random.default_rng(8)
        for x in rng.standard_normal((100, 4)):
            expected = float(x @ inv @ x)
            assert mahalanobis_score(model, x) == pytest.approx(expected, abs=1e-8)

    def test_nonnegative(self):
        X, (stats, model) = _fit(seed=13)
        rng = np.random.default_rng(14)
        assert np.all(mahalanobis_scores(model, rng.standard_normal((200, 4))) >= 0)

    def test_affine_invariance(self):
        # Refit under an invertible linear map of the raw data: identical scores.
        rng = np.random.default_rng(21)
        X = rng.standard_normal((400, 3)) @ rng.standard_normal((3, 3)) + 5.0
        A = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, -0.2], [0.1, 0.0, 0.9]])
        names = ["a", "b", "c"]
        stats1, m1 = fit_gaussian(X, names, q=0.99)
        stats2, m2 = fit_gaussian(X @ A.T, names, q=0.99)
        probe = rng.standard_normal((50, 3)) * X.std(axis=0) + X.mean(axis=0)
        s1 = mahalanobis_scores(m1, stats1.normalize(probe))
        s2 = mahalanobis_scores(m2, stats2.normalize(probe @ A.T))
        assert np.max(np.abs(s1 - s2)) < 1e-6


QUANTILES = [0.5, 0.6, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 0.9999]


class TestChi2Quantile:
    """Checked against closed forms of the chi-squared distribution."""

    @pytest.mark.parametrize("q", QUANTILES)
    def test_df2_is_exponential(self, q):
        assert chi2_quantile(q, 2) == pytest.approx(-2.0 * math.log(1.0 - q), rel=1e-12)

    @pytest.mark.parametrize("q", QUANTILES)
    def test_df1_is_squared_normal(self, q):
        z = statistics.NormalDist().inv_cdf((1.0 + q) / 2.0)
        assert chi2_quantile(q, 1) == pytest.approx(z * z, rel=1e-12)

    @pytest.mark.parametrize("df", range(2, 21, 2))
    def test_even_df_erlang_cdf_reaches_q(self, df):
        for q in QUANTILES:
            x = chi2_quantile(q, df)
            tail = sum((x / 2.0) ** j / math.factorial(j) for j in range(df // 2))
            assert 1.0 - math.exp(-x / 2.0) * tail == pytest.approx(q, rel=1e-12)


class TestCalibrateTau:
    def test_chi2_closed_form_d2(self):
        # for d=2 the chi-squared quantile is -2 ln(1-q)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((10_000, 2))
        stats, model = fit_gaussian(X, ["a", "b"], q=0.99)
        assert model.tau == pytest.approx(-2.0 * np.log(0.01), abs=1e-3)

    def test_median_bound(self):
        X, (stats, model) = _fit(q=0.5, seed=5)
        Z = stats.normalize(X)
        scores = mahalanobis_scores(model, Z)
        assert model.tau >= np.median(scores)

    def test_chi2_floor_applies(self):
        # tightly clustered scores all below the chi2 quantile -> floor wins
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 2)) * 0.1
        stats, model = fit_gaussian(X, ["a", "b"], q=0.9999)
        assert model.tau == pytest.approx(-2.0 * math.log(1e-4))

    def test_invalid_quantile(self):
        X, (stats, model) = _fit()
        with pytest.raises(ValueError):
            calibrate_tau(model, np.zeros((5, model.dim)), 1.5)

    def test_training_flag_rate_bound(self):
        for seed in range(3):
            X, (stats, model) = _fit(n=1000, seed=seed, q=0.99)
            Z = stats.normalize(X)
            rate = float((mahalanobis_scores(model, Z) > model.tau).mean())
            assert rate <= 0.01 + 1 / 1000

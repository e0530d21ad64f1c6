"""Unit tests for the unsupervised outlier detectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.outlier import (
    ECOD,
    IsolationForest,
    LocalOutlierFactor,
    MahalanobisDetector,
    SUODEnsemble,
    available_detectors,
    get_detector,
)
from repro.outlier.base import min_max_normalize
from repro.outlier.ecod import _skewness

ALL_DETECTORS = [ECOD, LocalOutlierFactor, IsolationForest, MahalanobisDetector, SUODEnsemble]


@pytest.fixture
def data_with_outliers(rng):
    """Gaussian blob plus five far-away outliers (last five rows)."""
    inliers = rng.normal(size=(95, 4))
    outliers = rng.normal(loc=8.0, size=(5, 4))
    return np.vstack([inliers, outliers])


class TestDetectorContract:
    @pytest.mark.parametrize("detector_class", ALL_DETECTORS)
    def test_scores_shape_and_finite(self, detector_class, data_with_outliers):
        scores = detector_class().fit_scores(data_with_outliers)
        assert scores.shape == (100,)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("detector_class", ALL_DETECTORS)
    def test_outliers_ranked_above_inliers(self, detector_class, data_with_outliers):
        scores = detector_class().fit_scores(data_with_outliers)
        top5 = set(np.argsort(-scores)[:5])
        assert len(top5 & set(range(95, 100))) >= 4

    @pytest.mark.parametrize("detector_class", ALL_DETECTORS)
    def test_score_before_fit_raises(self, detector_class, data_with_outliers):
        with pytest.raises(RuntimeError):
            detector_class().decision_scores(data_with_outliers)

    @pytest.mark.parametrize("detector_class", ALL_DETECTORS)
    def test_input_validation(self, detector_class):
        with pytest.raises(ValueError):
            detector_class().fit(np.ones(10))  # 1-D input
        with pytest.raises(ValueError):
            detector_class().fit(np.array([[np.nan, 1.0]]))

    def test_feature_dimension_mismatch(self, data_with_outliers):
        detector = ECOD().fit(data_with_outliers)
        with pytest.raises(ValueError):
            detector.decision_scores(np.ones((3, 7)))


class TestSpecificDetectors:
    def test_ecod_scores_increase_with_extremeness(self, rng):
        data = rng.normal(size=(200, 1))
        detector = ECOD().fit(data)
        mild, extreme = np.array([[1.0]]), np.array([[6.0]])
        assert detector.decision_scores(extreme)[0] > detector.decision_scores(mild)[0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ecod_skewness_bitwise_equals_scipy(self, dtype):
        # The library avoids importing scipy.stats; its skewness must be
        # the very bits of scipy.stats.skew(..., bias=True), NaN included.
        import warnings

        from scipy import stats

        rng = np.random.default_rng(3)
        for trial in range(60):
            n, d = int(rng.integers(1, 120)), int(rng.integers(1, 24))
            X = rng.standard_normal((n, d)) * rng.exponential(3.0, d) + rng.normal(0.0, 40.0, d)
            X[:, rng.integers(0, d)] = rng.normal()  # a constant column
            if trial % 3 == 0:
                X = X**3
            if trial % 4 == 0:
                X = np.asfortranarray(X)
            X = X.astype(dtype)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # scipy's precision-loss note
                expected = stats.skew(X, axis=0, bias=True)
            found = _skewness(X)
            assert found.dtype == expected.dtype and found.shape == expected.shape
            assert found.tobytes() == expected.tobytes()
        assert np.isnan(_skewness(np.ones((5, 2), dtype=dtype))).all()

    def test_lof_local_density_sensitivity(self, rng):
        tight = rng.normal(scale=0.1, size=(50, 2))
        point_between = np.array([[1.0, 1.0]])
        detector = LocalOutlierFactor(n_neighbors=5).fit(tight)
        assert detector.decision_scores(point_between)[0] > 1.5

    def test_lof_invalid_neighbors(self):
        with pytest.raises(ValueError):
            LocalOutlierFactor(n_neighbors=0)

    def test_iforest_deterministic_given_seed(self, data_with_outliers):
        a = IsolationForest(seed=3).fit_scores(data_with_outliers)
        b = IsolationForest(seed=3).fit_scores(data_with_outliers)
        assert a == pytest.approx(b)

    def test_iforest_scores_bounded(self, data_with_outliers):
        scores = IsolationForest().fit_scores(data_with_outliers)
        assert (scores > 0).all() and (scores < 1).all()

    def test_mahalanobis_zero_at_mean(self, rng):
        data = rng.normal(size=(100, 3))
        detector = MahalanobisDetector().fit(data)
        assert detector.decision_scores(data.mean(axis=0, keepdims=True))[0] < 0.5

    def test_mahalanobis_invalid_shrinkage(self):
        with pytest.raises(ValueError):
            MahalanobisDetector(shrinkage=2.0)

    def test_suod_requires_detectors(self):
        with pytest.raises(ValueError):
            SUODEnsemble(detectors=[])

    def test_suod_scores_in_unit_interval(self, data_with_outliers):
        scores = SUODEnsemble().fit_scores(data_with_outliers)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_min_max_normalize_constant_vector(self):
        assert min_max_normalize(np.full(5, 3.0)) == pytest.approx(np.zeros(5))


class TestRegistry:
    def test_available_detectors(self):
        assert set(available_detectors()) == {"ecod", "lof", "iforest", "mahalanobis", "suod"}

    @pytest.mark.parametrize("name", ["ecod", "lof", "iforest", "mahalanobis", "suod"])
    def test_get_detector(self, name, data_with_outliers):
        detector = get_detector(name)
        assert detector.fit_scores(data_with_outliers).shape == (100,)

    def test_unknown_detector_raises(self):
        with pytest.raises(KeyError):
            get_detector("deep-svdd")

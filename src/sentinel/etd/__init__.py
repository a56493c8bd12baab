"""Anomaly detection over authentication behavior.

Feature extraction from auth records, a Gaussian baseline scored by
Mahalanobis distance, an isolation forest, threshold calibration, and
batch detection against a versioned model artifact.
"""

"""Evaluation metrics for classification models."""

from __future__ import annotations

import numpy as np


def top1_accuracy(model, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Fraction of samples whose arg-max prediction matches the label.

    This is the paper's headline metric ("best top-1 test accuracy").
    """
    if x.shape[0] == 0:
        raise ValueError("cannot compute accuracy on an empty dataset")
    preds = model.predict(x, batch_size=batch_size)
    return float(np.mean(preds == np.asarray(y)))


def per_class_accuracy(model, x: np.ndarray, y: np.ndarray, num_classes: int) -> np.ndarray:
    """Accuracy per ground-truth class; NaN for classes absent from ``y``.

    Useful for diagnosing cluster-skew bias: a model over-fitted to the
    dominant cluster shows high accuracy on its labels and poor accuracy
    elsewhere.
    """
    preds = model.predict(x)
    y = np.asarray(y)
    totals = np.bincount(y, minlength=num_classes).astype(float)
    hits = np.bincount(y[preds == y], minlength=num_classes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return hits / totals

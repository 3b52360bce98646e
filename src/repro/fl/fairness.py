"""Fairness diagnostics: how evenly the global model serves the clients.

Figure 6 of the paper plots the average and the variance of the inference
loss of the global model across clients, normalised to FedDRL's values.
The simulation already records per-round client losses; this helper turns
histories into the figure's series.
"""

from __future__ import annotations

import numpy as np

from repro.fl.simulation import History

_SERIES = {"mean": History.loss_mean_series, "variance": History.loss_var_series}


def normalized_fairness(
    histories: dict[str, History], reference: str = "feddrl"
) -> dict[str, dict[str, list[float]]]:
    """Normalise every method's per-round mean and variance of client
    inference losses to the reference method's (Fig. 6).

    A value above 1 means the method has a higher mean loss (or variance)
    than FedDRL at that round; the paper's red line sits at exactly 1.
    """
    if reference not in histories:
        raise ValueError(f"reference method {reference!r} not in histories")
    ref = histories[reference]
    out: dict[str, dict[str, list[float]]] = {}
    for name, hist in histories.items():
        out[name] = {}
        for key, series in _SERIES.items():
            ref_vals = np.asarray(series(ref))
            vals = np.asarray(series(hist)[: ref_vals.shape[0]])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(ref_vals > 0, vals / ref_vals, np.nan)
            out[name][key] = [float(v) for v in ratio]
    return out

"""Single-UAV RSSI localization: path-loss ranging, geospatial clustering,
SVD multilateration, an iterative min-residual estimator, and a desk-scale
flight simulator."""

"""Correct dense monocular height rasters with sparse satellite LiDAR.

The library takes a per-pixel height (or relative depth) prediction plus a
sparse set of LiDAR photons, learns the prediction's local residual with a
random forest, and applies the learned residual across the full raster.
Callers import the modules (``lidar_anchor.raster``, ``lidar_anchor.forest``,
``lidar_anchor.pipeline``, ...); the package root re-exports nothing.
"""

__version__ = "0.1.0"

"""Application models: the five paper workloads as trace generators."""

from .base import AppModel, grid_neighbors, rank_grid_dims
from .btmz import BtMz
from .hydro import Hydro
from .lulesh import Lulesh
from .registry import APP_CLASSES, APP_NAMES, all_apps, get_app
from .specfem3d import Specfem3D
from .spmz import SpMz

__all__ = [
    "APP_CLASSES",
    "APP_NAMES",
    "AppModel",
    "BtMz",
    "Hydro",
    "Lulesh",
    "SpMz",
    "Specfem3D",
    "all_apps",
    "get_app",
    "grid_neighbors",
    "rank_grid_dims",
]

"""Logical instance data: generation, loading, updates."""

from repro.data.generator import generate_logical
from repro.data.loader import LoadRegistry, load_direct, load_optimized
from repro.data.logical import LogicalDataset
from repro.data.updates import GraphUpdater

__all__ = [
    "GraphUpdater",
    "LoadRegistry",
    "LogicalDataset",
    "generate_logical",
    "load_direct",
    "load_optimized",
]

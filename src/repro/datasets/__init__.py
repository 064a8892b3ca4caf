"""The MED and FIN evaluation datasets (Section 5.1 of the paper)."""

from repro.datasets.base import Dataset, fill_relationships
from repro.datasets.fin import (
    FIN_EXPECTED,
    FIN_QUERIES,
    build_fin,
    build_fin_ontology,
)
from repro.datasets.med import (
    MED_EXPECTED,
    MED_QUERIES,
    build_med,
    build_med_ontology,
)

__all__ = [
    "Dataset",
    "FIN_EXPECTED",
    "FIN_QUERIES",
    "MED_EXPECTED",
    "MED_QUERIES",
    "build_fin",
    "build_fin_ontology",
    "build_med",
    "build_med_ontology",
    "fill_relationships",
]

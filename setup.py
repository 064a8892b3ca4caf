"""Setup shim: the environment has no `wheel` package, so the modern
PEP 660 editable-install path is unavailable; this file enables the
legacy `pip install -e .` code path."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Ontology-driven property graph schema optimization for "
        "domain-specific knowledge graphs (ICDE 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

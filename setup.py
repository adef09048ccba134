"""Packaging for the ``repro`` library (``src/repro``).

This file is the whole of the project metadata; there is no
``pyproject.toml``.  It also serves offline environments without the
``wheel`` package: ``pip install -e . --no-use-pep517
--no-build-isolation`` takes the legacy ``setup.py develop`` path.
Nothing needs installing to run the code or its tests: ``PYTHONPATH=src``
from the repo root is enough.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Quantised neural network accelerators for low-power IDS in "
        "automotive networks: a reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)

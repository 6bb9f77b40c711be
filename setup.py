"""Packaging for ``repro``.

The package lives under ``src/``; the runtime needs numpy and scipy, and
installing adds the ``repro`` console script (same as ``python -m
repro``).  Offline hosts without the ``wheel`` package can still make a
legacy editable install with ``pip install -e . --no-use-pep517
--no-build-isolation`` (or ``python setup.py develop``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__\s*=\s*"([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "version.py").read_text(),
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Self-learning epileptic seizure detection with minimally "
        "supervised edge labeling (DATE 2019 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)

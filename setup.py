"""Package metadata and install script.

``pip install .`` (or ``pip install -e .`` for a development checkout)
installs the ``repro`` package from ``src/``; numpy is its only runtime
dependency.  The version is read from ``src/repro/version.py``, the single
source of truth, without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', VERSION_FILE.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Space-efficient indexes for uncertain (weighted) strings",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

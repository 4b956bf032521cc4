"""Legacy setup shim: keeps editable installs working on environments
whose setuptools predates PEP 660 (offline CI boxes without `wheel`)."""

from setuptools import setup

# Mirrors [project].dependencies in pyproject.toml for setuptools too
# old to read PEP 621 metadata.
setup(install_requires=["numpy>=1.24"])

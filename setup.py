"""Minimal setup.py: all metadata lives in pyproject.toml.

The package is pure Python and builds no extension.  The file stays
because perfbench/run.py runs ``python setup.py -q build_ext --inplace``
before every benchmark and needs that command to exit 0; with no
extensions it builds nothing and leaves nothing behind.
"""

from setuptools import setup

setup()

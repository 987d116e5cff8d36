"""Minimal setup.py: builds the plain-C path-solver kernel.

All metadata lives in pyproject.toml.  The extension needs only a C
compiler and the Python headers.  It is optional: if it cannot be built
the build still succeeds, and the package falls back to the pure-numpy
kernel at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "themepath._pathcore",
            ["src/themepath/_pathcore.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)

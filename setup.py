"""Package metadata and installation.

The compiled kernel backend is an *extra*, never a hard dependency:

    pip install .            # numpy-only (reference kernels)
    pip install .[compiled]  # adds cffi for the compiled c backend

The ``c`` backend also needs a system C compiler (``cc``) the first
time it loads; it builds ``repro/kernels/ckernels.c`` into the user
cache.  Without cffi or a compiler, ``repro.kernels`` auto-resolution
falls back to the bit-identical NumPy reference backend.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wmsketch",
    version="1.0.0",  # keep in sync with repro.__version__
    description=(
        "Reproduction of the Weight-Median Sketch (SIGMOD 2018) with "
        "batched, parallel and compiled-kernel execution"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The c backend compiles this source on first use.
    package_data={"repro.kernels": ["ckernels.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        # The optional compiled kernel backend (repro.kernels.c_backend).
        "compiled": ["cffi>=1.15"],
        "test": ["pytest", "hypothesis", "cffi>=1.15"],
    },
)

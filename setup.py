"""Package metadata for the DDM-GNN reproduction.

Plain ``setup.py`` (no pyproject required) with the package under ``src/``.
``pip install -e .`` is the supported path; on legacy/offline environments
whose pip cannot build editable wheels (no ``wheel`` package available),
``python setup.py develop`` installs the same egg-link.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ddm-gnn",
    version="1.21.0",
    description=(
        "NumPy reproduction of 'Multi-Level GNN Preconditioner for Solving "
        "Large Scale Problems' (DDM-GNN / Deep Statistical Solver), with a "
        "heterogeneous problem registry, versioned model checkpoints and a "
        "reproducible experiment harness"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the fused edge kernel is compiled on first use from its shipped source
    package_data={"repro.gnn": ["_edge_pass.c"]},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
        # CI-only hang protection: the dev container ships without
        # pytest-timeout, and the local tier-1 invocation must not require it
        # (plain `python -m pytest -x -q`); CI installs `.[test,ci]` and adds
        # the --timeout flags explicitly.
        "ci": ["pytest-timeout"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
        "License :: OSI Approved :: MIT License",
    ],
)

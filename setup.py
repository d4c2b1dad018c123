from setuptools import find_packages, setup

# numba is deliberately an *extra*: the whole native JIT tier
# (delta-numba backend, bsp-native engine) degrades to its NumPy twins
# when the import fails, and CI runs both sides.  See docs/kernels.md.
setup(
    name="repro-steiner",
    version="0.6.0",
    description=(
        "Reproduction of distributed 2-approximation Steiner minimal trees "
        "(IPDPS 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline type annotations
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # both packed-key reductions (delta-numpy relaxations, the batched
    # BSP superstep) rely on the ufunc.at fast path of NumPy 1.25
    install_requires=["numpy>=1.25"],
    extras_require={
        "scipy": ["scipy"],
        "native": ["numba"],
        "docs": ["mkdocs", "mkdocs-material", "mkdocstrings[python]"],
    },
    entry_points={
        "console_scripts": ["repro-steiner=repro.harness.cli:main"],
    },
)

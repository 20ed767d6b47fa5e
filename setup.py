"""Package metadata for the LDP-IDS reproduction.

Kept as a plain ``setup.py`` (no ``[project]`` table in pyproject.toml)
so legacy editable installs (``pip install -e .``) keep working in
offline environments where the ``wheel`` package is unavailable.  The
dependency lower bounds are what the code actually relies on:

* ``numpy >= 1.22`` — ``Generator.multinomial`` with a 2-D ``pvals``
  matrix (GRR's batched liar spread) and broadcast ``Generator.binomial``
  over stacked trial/probability arrays (the order-preserving run
  samplers behind bulk ingestion).
* ``pytest >= 7.0`` (test extra) — the tier-1 suite's fixtures use
  modern ``pytest.raises``/parametrize semantics.
* ``hypothesis >= 6.0`` (test extra) — every module under
  ``tests/property/`` imports it at module level (``given``,
  ``settings(deadline=None)`` and the basic ``strategies``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-ldp-ids",
    version="0.4.0",
    description=(
        "Reproduction of LDP-IDS (SIGMOD 2022): w-event local "
        "differential privacy for infinite data streams"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=1.22"],
    extras_require={"test": ["pytest>=7.0", "hypothesis>=6.0"]},
)

"""Package metadata for the reproduction.

The execution environment has no ``wheel`` package and no network access, so
PEP 660 editable installs (which build a wheel) are unavailable.  This classic
``setup.py`` lets ``python setup.py develop`` / ``pip install -e .
--no-build-isolation`` fall back to the egg-link mechanism while still
declaring real metadata.

Runtime requirements:

* ``numpy`` -- the vectorized sweep kernel (:mod:`repro.geometry.kernel`)
  evaluates interval extensions over chunks of boxes as numpy array
  programs.  Environments that cannot satisfy it still import fine -- the
  kernel module guards its import and the sweep falls back to the scalar
  loop -- but a source install should pull numpy in.
* ``scipy`` -- the distribution registry
  (:mod:`repro.distributions.registry`, loaded by every command) imports
  ``scipy.special.ndtri`` at module top, and the polytope volume of affine
  guards (:mod:`repro.geometry.polytope`) calls ``scipy.optimize`` and
  ``scipy.spatial``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-spcf-lower-bounds",
    version="0.9.0",
    description=(
        "Certified lower bounds on termination probability of SPCF programs "
        "(reproduction of Beutner & Ong, PLDI 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=[
        "numpy",
        "scipy",
    ],
    extras_require={
        "dev": [
            "hypothesis",
            "pytest",
            "pytest-benchmark",
            "ruff",
        ],
    },
)

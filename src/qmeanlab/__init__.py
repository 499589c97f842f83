"""qmeanlab: a desk-scale laboratory for multivariate mean estimation.

Finite random variables with exact moments, a centered-lattice Fourier
transform simulator, semantic oracle models with cost accounting, quantum and
classical mean estimators, hard instance generators, and a sweep harness.
Each name is imported from its own module (``qmeanlab.quantum``,
``qmeanlab.harness``, ...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"

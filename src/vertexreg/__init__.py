"""Numerical laboratory for vertex regularity of shrinking backward parabolas.

Decides regularity or irregularity of the characteristic vertex (0,0) for
second-order semilinear heat flows and their fourth-order bi-harmonic
analogues, by three mutually cross-checking routes: classical integral
criteria, a reduced ODE for the leading Fourier coefficient, and direct
simulation of the rescaled problem on a fixed domain.
"""

__version__ = "0.1.0"

from . import funcs, spectral, blayer, criterion, petrovskii, tails

__all__ = ["blayer", "criterion", "funcs", "pdesim", "petrovskii",
           "spectral", "tails", "__version__"]


def __getattr__(name):
    # the simulation loads LAPACK, so it is imported on first use
    if name == "pdesim":
        import importlib
        return importlib.import_module(".pdesim", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

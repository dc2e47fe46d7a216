"""Probability model and hidden-variable analysis of the four-setting experiment.

The package builds the exact joint distribution over outcomes and detector
settings for paired singlet measurements, evaluates the CHSH and original
single-sided inequalities in conditional and partial-expectation form, and
probes how far the quantum table sits from locality: no-signaling checks,
Bernoulli-product fits, a Fourier amplitude witness, and a numerical search
for the best finite hidden-variable approximation.  A Monte Carlo sampler
with a counter-based generator produces reproducible simulated trials.

The import runs with the cyclic collector off: what it creates (numpy,
``scipy.optimize``) lives until the process exits, so collections would walk
only survivors.  ``gc.freeze(); gc.unfreeze()`` then ages every object to
the oldest generation without walking any, unless the caller holds frozen
objects that this would release, and the collector is re-enabled only if
it was on.
"""

import gc

_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from . import inequalities, lhv, montecarlo, probspace, singlet
    from .inequalities import *  # noqa: F401,F403
    from .lhv import *  # noqa: F401,F403
    from .montecarlo import *  # noqa: F401,F403
    from .probspace import *  # noqa: F401,F403
    from .singlet import *  # noqa: F401,F403
finally:
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
    if _gc_was_enabled:
        gc.enable()

__all__ = [
    *inequalities.__all__,
    *lhv.__all__,
    *montecarlo.__all__,
    *probspace.__all__,
    *singlet.__all__,
]

__version__ = "0.1.0"

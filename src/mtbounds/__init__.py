"""Critical-constant bounds, LP-improved procedures and power studies for
multiple testing under arbitrary p-value dependence.

The package re-exports the public names of ``constants``, ``lp``,
``matrices``, ``procedures`` and ``simulation``: each module's ``__all__``
is the one place that decides what is public. ``fileio`` and ``cli`` stay
submodules."""

from . import constants, lp, matrices, procedures, simulation
from .constants import *  # noqa: F401,F403
from .lp import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .procedures import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*constants.__all__, *lp.__all__, *matrices.__all__, *procedures.__all__,
           *simulation.__all__]

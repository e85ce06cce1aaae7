"""Discrete Volterra-series engine.

Evaluation of finite Volterra series on circular grids, kernel
symmetrization and frequency responses, the sum / product / series
composition algebra, lens-map morphisms between series with naturality
checking, functorial actions on spectral multipliers, and the Volterra
representations of bilinear and polynomial time-frequency distributions.
"""

from .errors import *
from .combinatorics import *
from .kernels import *
from .evaluation import *
from .actions import *
from .morphisms import *
from .algebra import *
from .tfd import *
from .dsl import *
from . import io

__all__ = [name for name in dir() if not name.startswith("_")]

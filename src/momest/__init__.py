"""Moment estimators for the Gamma, Beta, Uniform and Fisher laws, their
joint Gaussian asymptotics via quadratic influence functions, marginal and
omnibus chi-square tests, and a reproducible Monte-Carlo calibration
harness."""

from .asymptotics import *
from .errors import *
from .estimation import *
from .laws import *
from .montecarlo import *
from .reportio import *
from .rng import *
from .significance import *
from .special import *

__version__ = "0.1.0"

__all__ = (asymptotics.__all__ + errors.__all__ + estimation.__all__
           + laws.__all__ + montecarlo.__all__ + reportio.__all__
           + rng.__all__ + significance.__all__ + special.__all__)

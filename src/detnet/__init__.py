"""detnet: scaling laws and simulation for hierarchical detection networks."""

from detnet.scaling import *  # noqa: F403
from detnet.scaling import __all__

__version__ = "0.1.0"

"""Out-of-order core substrate: DDG timing model, front end, branch predictor."""

from .branch import BranchStats, GshareBranchPredictor
from .core import CoreParams, CoreResult, OOOCore
from .engine import Engine
from .frontend import FrontEnd

__all__ = [
    "BranchStats",
    "GshareBranchPredictor",
    "CoreParams",
    "CoreResult",
    "OOOCore",
    "Engine",
    "FrontEnd",
]

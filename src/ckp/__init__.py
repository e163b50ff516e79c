"""Exact rational toolkit for the complementarity knapsack problem.

Submodules:

* ``model``      — instances, points, inequalities, assumptions
* ``numeric``    — rational parsing/printing, exact affine rank
* ``fileio``     — the three text formats
* ``oracle``     — candidate vertices, exact optimization, validity, face dims
* ``cuts``       — covers/packs, the five cut families, members per item set
* ``separation`` — exact and greedy separation, partition reduction
* ``simplex``    — exact rational LP
* ``solver``     — cut-and-branch (cuts at the root) with SOS1 branching
* ``cli``        — the ``ckp`` command
"""

from .cuts import is_maximal_switching_pack
from .errors import (CkpError, FormatError, PreconditionError,
                     ResourceLimitError, ValidationError)
from .model import (AssumptionReport, Group, Instance, LinearInequality,
                    Point, VarRef, knapsack_row, normalize,
                    validate_assumptions)
from .numeric import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "CkpError", "FormatError", "Group", "Instance",
    "LinearInequality", "Point", "PreconditionError",
    "ResourceLimitError", "ValidationError", "VarRef", "format_rational",
    "is_maximal_switching_pack", "knapsack_row", "normalize",
    "parse_rational", "validate_assumptions", "__version__",
]

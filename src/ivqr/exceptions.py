"""Errors raised during estimation.

Input and configuration problems raise plain ``ValueError``; anything that
goes wrong numerically once estimation has started derives from
``EstimationError`` so callers (and the CLI exit-code mapping) can tell the
two apart.
"""


class EstimationError(RuntimeError):
    """Numerical failure during estimation."""


class RankDeficientError(EstimationError):
    """A design or instrument matrix does not have full column rank."""


class SingularMatrixError(EstimationError):
    """A matrix that must be inverted is singular at working precision."""


class ConvergenceError(EstimationError):
    """The equation solver gave up.

    From ``solve_see`` or a plug-in fit, ``diagnostics`` counts all the work
    of the call that gave up, both of a plug-in fit's solves included.  From
    the bootstrap's limit on failed draws it is None.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics

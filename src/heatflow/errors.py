"""The package's one failure rule.

Bad input (a caller-supplied value out of range, a wrong dimension, an
unknown name) raises plain ValueError.  A numeric failure on valid input
(a divergent integral, a grid refinement that disagrees, an inaccurate
quadrature, a density below the floor) raises HeatflowError.  The CLI
maps the first to exit 2 and the second to exit 3.
"""


class HeatflowError(Exception):
    """A numeric failure on valid input."""


class DensityUnderflowError(HeatflowError):
    """A smoothed density estimate fell below the configured floor.

    rows: indices, within the evaluated batch, of the points whose
    estimate failed (empty when the failure is not tied to batch rows).
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = [int(i) for i in rows]

"""Names and limits shared by the command-line parser and the physics layer.

Plain Python with no imports, so the parser can offer choices and defaults
without loading numpy; ``fock`` re-exports the cutoff.
"""

# Default Fock cutoff. Every state the protocols need lives in the span of
# |0> and |1>; one spare level is kept so photon-number leakage surfaces as
# a norm defect instead of wrapping around silently.
DEFAULT_N_MAX = 2

#: Angle presets of the Bell test (see bell.angle_preset).
PRESETS = ("maximal", "wide")

#: Largest number of points a p grid or a command-line grid may have; a grid
#: is refused before anything is allocated for it.
MAX_GRID_POINTS = 10**7

"""Calibrated reference values, frozen after the first calibration run.

Each constant was produced by the corresponding module oracle at the
documented parameters; tests and experiments compare against these and
report drifts.
"""

import math

# |sum_r e^{2 pi i (r(p/q + eps) - r^2/q)}| at q=64, p=16, eps=1e-4,
# by exact-reduction brute force.
PERTURBED_64_16_MAGNITUDE = 11.339974848131144
PERTURBED_64_16_DEVIATION = PERTURBED_64_16_MAGNITUDE - math.sqrt(128.0)

# Torus integral of |1 + 2 cos x| (bandwidth-1 kernel), exact value.
DIRICHLET_L1_N1 = 2.0 * math.pi / 3.0 + 4.0 * math.sqrt(3.0)

# Frostman quotient of the level-12 middle-thirds measure on the triadic
# radius grid 2 pi 3^-m, m = 1..12 (stable to 6 digits across levels 10-12).
MIDDLE_THIRDS_FROSTMAN = 0.627241

"""A tour of the oscillator: bounded chaos, mirror twins, and blow-up.

Run:  python3 demos/01_attractor_tour.py
"""

from jerklab import (
    IntegrationOverflowError,
    IntegratorConfig,
    JerkParams,
    Sign,
    SystemState,
    in_chaotic_range,
    simulate,
)

params = JerkParams()  # a = 2.03, minus-sign quadratic term
print(f"a = {params.a}, chaotic: {in_chaotic_range(params)}")

# --- The bounded chaotic orbit -------------------------------------------
config = IntegratorConfig(t_end=100.0, step=1e-3, output_points=2001)
res = simulate(config, params)
peak_x = max(abs(v) for v in res.x.values)
peak_xdd = max(abs(v) for v in res.xdd.values)
print(f"from {config.initial_state.as_tuple()}: "
      f"max|x| = {peak_x:.3f}, max|xdd| = {peak_xdd:.3f} over [0, 100]")

# --- Mirror twins ---------------------------------------------------------
# Flipping the sign of the quadratic term and negating the starting state
# yields the exact mirror orbit, bit for bit.
mirror = simulate(
    IntegratorConfig(t_end=100.0, step=1e-3, output_points=2001,
                     initial_state=SystemState(0.0, 0.0, -0.1)),
    JerkParams(sign=Sign.PLUS))
exact = all(m == -v for m, v in zip(mirror.x.values, res.x.values))
print(f"plus-sign twin from the negated state mirrors exactly: {exact}")

# --- Not every small kick is captured ------------------------------------
# A ten-times smaller kick does not settle closer to rest: that orbit misses
# the attractor and diverges, which the integrator reports rather than hides.
try:
    simulate(IntegratorConfig(t_end=100.0, step=1e-3, output_points=2001,
                              initial_state=SystemState(0.0, 0.0, 0.01)),
             params)
    print("unexpected: the small-kick orbit stayed finite")
except IntegrationOverflowError as exc:
    n_kept = len(exc.partial.x) if exc.partial else 0
    print(f"small kick (0, 0, 0.01) blows up: {exc}")
    print(f"  ({n_kept} finite samples were preserved for inspection)")

"""Parameter studies: time-scale sweeps and error-bound growth.

Three studies,  all cheap to run:

  * corrector time-scale sweep in the noise-free constant-bias scenario:
    the steady estimate error is non-increasing as eps_c shrinks (here the
    bias is rejected so completely that the 10 ms hold of the velocity
    measurement, not eps_c, sets every row);
  * observer time-scale sweep against a ramp uncertainty, where the error
    law is actually measurable;
  * sensing-error-bound sweep: estimators started from the first (biased)
    fix inherit the bias as a frozen initial error, so the steady error
    tracks the bound.

Run:  python demos/06_parameter_studies.py
"""

from dataclasses import replace

from corrobs import (LargeErrorModel, NoiseMixture, SensorConfig,
                     bundled_config_path, convergence_study, load_scenario,
                     observer_ramp_study, sweep_parameter)
from corrobs.engine import TrajectorySpec

cfg = load_scenario(bundled_config_path("paper_sec6"))
eps = [0.9, 0.7, 0.5, 0.3]

print("corrector time-scale study (constant 20 m bias, no noise):")
res = convergence_study(cfg, eps, duration=30.0, settle=15.0)
for row in res.rows:
    print(f"  eps_c = {row['eps_c']:.1f}:  max|e1| = {row['max_e1']:.2e} m, "
          f"max|e2| = {row['max_e2']:.2e} m/s")
print(f"  non-increasing: {res.non_increasing('max_e1')}")

print("\nobserver time-scale study (ramp uncertainty, clean channel):")
res = observer_ramp_study(eps, duration=30.0, settle=15.0)
for row in res.rows:
    print(f"  eps_o = {row['eps_o']:.1f}:  max|e4| = {row['max_e4']:.4f}")
print(f"  non-increasing: {res.non_increasing('max_e4', slack=1e-4)}")

print("\nsensing-error-bound sweep (estimators initialized from the first fix):")
quiet = SensorConfig(
    large_error=(LargeErrorModel(constant=5.0, bound=5.0), LargeErrorModel()),
    position_noise=(NoiseMixture(),) * 2,
    velocity_noise=(NoiseMixture(),) * 2,
)
sweep_cfg = replace(cfg, duration=4.0, sensors=quiet,
                    trajectory=TrajectorySpec(kind="hover", altitude=0.0),
                    estimator_init="first_measurement")
res = sweep_parameter(sweep_cfg, "L_d", [5.0, 10.0, 20.0], settle=2.0)
for row in res.rows:
    print(f"  L_d = {row['L_d']:5.1f} m:  steady corrector error = "
          f"{row['corrector_max']:.3f} m")
print("  (the frozen initial error tracks the bias bound, as the error-order")
print("   analysis predicts through its bound's growth with the bias)")

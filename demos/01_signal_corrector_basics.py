"""Single-axis signal correction with a 20 m measurement bias.

A point mass follows x(t) = 5 sin(0.2 t).  The position channel carries a
constant 20 m offset plus heavy noise; the velocity channel is accurate to a
millimetre per second.  The corrector is fed both channels and asked for the
true position.

Watch two things:
  * the corrected position ignores the biased channel almost entirely (the
    fractional-power velocity feedback slaves the velocity estimate to the
    accurate channel, which starves the biased position pull), and
  * the estimate does not drift even though it is essentially integrating
    the velocity channel: the steady error stays at millimetre scale.

Run:  python demos/01_signal_corrector_basics.py
"""

import math

import numpy as np

from corrobs import AxisMeasurement, CorrectorParams, CorrectorState, step_corrector

PARAMS = CorrectorParams(k1=1.0, k2=30.0, alpha_c=0.1, eps_c=1 / 1.2)
DT = 1e-3
DURATION = 120.0
BIAS = 20.0
POS_NOISE = 0.5      # m, on the biased channel
VEL_NOISE = 0.001    # m/s, on the accurate channel

rng = np.random.default_rng(7)

state = CorrectorState(0.0, 1.0)   # started at the known true state
held = AxisMeasurement(BIAS, 1.0)

times, est_err, meas_err = [], [], []
n = int(DURATION / DT)
for i in range(n + 1):
    t = i * DT
    x = 5.0 * math.sin(0.2 * t)
    v = math.cos(0.2 * t)
    if i % 1000 == 0:   # position fix at 1 Hz
        y1 = x + BIAS + POS_NOISE * rng.standard_normal()
        held = held._replace(y_o1=y1)
    if i % 10 == 0:     # velocity at 100 Hz
        held = held._replace(y_o2=v + VEL_NOISE * rng.standard_normal())
    if i % 100 == 0:
        times.append(t)
        est_err.append(state.xhat1 - x)
        meas_err.append(held.y_o1 - x)
    state = step_corrector(state, held, PARAMS, DT)

times = np.array(times)
est_err = np.array(est_err)
meas_err = np.array(meas_err)
tail = times >= 20.0
print(f"raw position channel error:  mean {np.mean(np.abs(meas_err)):6.2f} m")
print(f"corrected position error:    max  {np.max(np.abs(est_err[tail])) * 1e3:6.2f} mm "
      f"(after 20 s settle)")
print(f"                             rms  {np.sqrt(np.mean(est_err[tail]**2)) * 1e3:6.2f} mm")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    ax1.plot(times, meas_err, lw=0.6, label="raw position channel - truth")
    ax1.plot(times, est_err, lw=1.2, label="corrected - truth")
    ax1.set_ylabel("error [m]")
    ax1.legend()
    ax2.plot(times, est_err * 1e3, lw=0.8, color="tab:orange")
    ax2.set_ylabel("corrected error [mm]")
    ax2.set_xlabel("time [s]")
    fig.tight_layout()
    fig.savefig("demo01_corrector_basics.png", dpi=130)
    print("plot saved to demo01_corrector_basics.png")
except ImportError:
    print("(matplotlib not installed; skipping plot)")

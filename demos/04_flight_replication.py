"""Full quadrotor flight with large-error GPS: climb, then a 5 m circle.

The bundled flight scenario: 20 m position bias with a ten-second GPS
dropout, non-Gaussian noise, sinusoidal model uncertainties, six
corrector/observer pairs feeding the position and attitude loops, and a
shadow Kalman-filter baseline watching the same measurements.

Run:  python demos/04_flight_replication.py
"""

import numpy as np

from corrobs import bundled_config_path, load_scenario, metrics, run_scenario

cfg = load_scenario(bundled_config_path("paper_sec6"))
print(f"simulating {cfg.duration:.0f} s of flight at dt = {cfg.dt} s ...")
trace = run_scenario(cfg)
summary = metrics(trace, settle=20.0, scenario=cfg)

print("\nsteady-state position estimate errors (after 20 s):")
print(f"  {'axis':>5s} {'raw meas':>9s} {'corrector':>10s} {'EKF':>9s} {'ratio':>7s}")
for axis in ("x", "y", "z"):
    raw = np.max(np.abs(trace.column(f"meas_y1_{axis}") - trace.column(f"true_{axis}")))
    corr = summary["corrector"][axis]["rms"]
    ekf = summary["ekf"][axis]["rms"]
    print(f"  {axis:>5s} {raw:8.2f}m {corr * 1e3:8.1f}mm {ekf:8.2f}m {ekf / corr:7.0f}")

print("\nuncertainty estimation (observer vs true disturbance force):")
for axis in ("x", "y", "z"):
    o = summary["observer"][axis]
    print(f"  {axis:>5s}: rms {o['rms']:.4f} N on a peak of {o['true_peak']:.3f} N "
          f"({100 * o['rms'] / o['true_peak']:.1f}%)")

track = max(np.max(np.abs(trace.column(f"true_{a}") - trace.column(f"des_{a}")))
            for a in ("x", "y", "z"))
print(f"\nworst trajectory-tracking error: {track:.3f} m")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig = plt.figure(figsize=(11, 4.2))
    ax = fig.add_subplot(1, 2, 1)
    ax.plot(trace.column("meas_y1_x"), trace.column("meas_y1_y"), ".", ms=1,
            alpha=0.4, label="raw position fixes")
    ax.plot(trace.column("true_x"), trace.column("true_y"), lw=1.5, label="true path")
    ax.plot(trace.column("corr_x"), trace.column("corr_y"), "--", lw=1.0,
            label="corrected")
    ax.plot(trace.column("ekf_x"), trace.column("ekf_y"), lw=0.8, label="EKF")
    ax.set_xlabel("x [m]")
    ax.set_ylabel("y [m]")
    ax.axis("equal")
    ax.legend(loc="upper right", fontsize=8)

    ax2 = fig.add_subplot(1, 2, 2)
    for axis in ("x", "y", "z"):
        err = trace.column(f"corr_{axis}") - trace.column(f"true_{axis}")
        ax2.plot(trace.time, err * 1e3, lw=0.7, label=f"corrector {axis}")
    ax2.set_xlabel("time [s]")
    ax2.set_ylabel("estimate error [mm]")
    ax2.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo04_flight_replication.png", dpi=130)
    print("plot saved to demo04_flight_replication.png")
except ImportError:
    print("(matplotlib not installed; skipping plot)")

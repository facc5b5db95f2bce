"""Frequency-domain view of the fractional-power estimators.

The odd nonlinearity |u|^a sign(u) acts, for a sinusoidal input of amplitude
A, like a gain Omega(a)/A^(1-a): strong for small innovations, gentle for
large ones.  That amplitude dependence is why the estimators combine fast
correction with good noise behaviour.  Each estimator's linearization is a
companion matrix; its stiffness gives the natural frequency, and its
discriminant the parameter selection rules checked here.

Run:  python demos/03_describing_function_analysis.py
"""

import numpy as np

from corrobs import (CorrectorParams, ObserverParams,
                     corrector_natural_frequency, filtering_advice,
                     linearize_corrector, linearize_observer,
                     observer_natural_frequency, omega_coefficient,
                     validate_corrector_params, validate_observer_params)

corr = CorrectorParams(k1=1.0, k2=30.0, alpha_c=0.1, eps_c=1 / 1.2)
obsv = ObserverParams(k3=20.0, k4=4.0, alpha_o=0.6, eps_o=1 / 1.1)

print("equivalent-gain coefficient Omega(a):")
for a in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
    print(f"  a = {a:4.2f}:  Omega = {omega_coefficient(a):.6f}")
print(f"  (bounded between 1 and 4/pi = {4 / np.pi:.6f})")

print("\nnatural frequencies vs innovation amplitude:")
for amp in (0.01, 0.1, 1.0, 10.0):
    wc = corrector_natural_frequency(corr, amp)
    wo = observer_natural_frequency(obsv, amp)
    print(f"  A = {amp:5.2f}:  corrector {wc:7.3f} rad/s   observer {wo:7.3f} rad/s")
print("  (frequencies grow as the innovation shrinks: strong feedback near")
print("   the solution, restrained bandwidth when noise dominates)")

print("\nlinearized error systems (companion matrices) at unit amplitude:")
lc = linearize_corrector(corr, 1.0, 1.0)
lo = linearize_observer(obsv, 1.0)
print(f"  corrector eigenvalues: {np.round(np.linalg.eigvals(lc), 4)}")
print(f"  observer eigenvalues:  {np.round(np.linalg.eigvals(lo), 4)}")

print("\nparameter selection rules:")
rep = validate_corrector_params(corr.k1, corr.k2, corr.alpha_c, corr.eps_c)
print(f"  corrector: stable={rep.stable} oscillation_free={rep.oscillation_free}")
rep = validate_observer_params(obsv.k3, obsv.k4, obsv.alpha_o, obsv.eps_o)
print(f"  observer:  stable={rep.stable} oscillation_free={rep.oscillation_free}")
for m in rep.messages:
    print(f"    {m}")

print("\ntuning advice under heavy noise:")
for line in filtering_advice(corr, "high", sensing_error_growth=True):
    print(f"  {line}")

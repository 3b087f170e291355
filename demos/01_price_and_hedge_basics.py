# Price and hedge a call on a non-traded asset with a correlated traded one.
# Run with: python3 demos/01_price_and_hedge_basics.py

import numpy as np

from basishedge import AdditiveModel, call_claim, decompose

# -----------------------------
# Market: X is not tradable (think an illiquid index), S is the liquid proxy
# -----------------------------
model = AdditiveModel.black_scholes(
    log_drift=[0.035, 0.02875],
    vol_x=0.30,
    vol_s=0.25,
    corr=0.80,
    horizon=1.0,
    spot=[100.0, 100.0],
)

claim = call_claim(100.0, axis=1)  # (X_T - 100)^+, settled in cash
dec = decompose(model, claim)

print("initial capital h0      :", round(dec.h0, 6))
print("hedge ratio at t=0      :", round(float(np.real(dec.hedge(0.0, 100.0, 100.0))), 6))

# -----------------------------
# The value surface is a function of time and BOTH prices
# -----------------------------
print("\n value y(t, x, s)  and  hedge z(t, x, s)")
print(f"{'t':>5} {'x':>7} {'s':>7} {'value':>10} {'hedge':>9}")
for t in (0.0, 0.5, 0.9):
    for bump in (0.8, 1.0, 1.25):
        x = 100.0 * bump
        for s in (90.0, 110.0):
            y, z = dec.value_and_hedge(t, x, s)
            print(f"{t:5.2f} {x:7.1f} {s:7.1f} {float(np.real(y)):10.4f} {float(np.real(z)):9.4f}")

# the hedge lives on S even though the claim is written on X: with 0.8
# correlation the position is a scaled delta, roughly corr * vol ratio
print("\nnote: at s=110 the same x-call is hedged with fewer shares, since")
print("each share of the pricier S carries more variance to offset X risk.")

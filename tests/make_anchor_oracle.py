"""Write ``anchor_oracle.json``: anchor roots at 50 digits, for
``tests/test_kernels.py``.

The anchor is the root L <= ln(rho) of e^L + mu - rho*L = psi. Each state
stores rho, mu and psi as the floats the solver receives, and the root of
the equation with those exact values, found with mpmath at 80 digits by
bisection on [lo, ln rho] (h(lo) > 0 > h(ln rho)) and checked against the
Lambert-W0 form L = ln rho - c - W0(-e^-c), c = (psi - mu)/rho + ln rho.

The states cover the branch point (the deficit d = -h(ln rho)/rho from
1e-14 to 1), interior roots, deep roots (psi/rho from 1e2 to 1e6), roots
where e^-c underflows in double (c > 745), and rho and mu across +-3
decades. Run it with mpmath installed (the ``test`` extra):

    python tests/make_anchor_oracle.py
"""

import json
import math
import os

import mpmath as mp

mp.mp.dps = 80
DIGITS = 50
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchor_oracle.json")


def _h(L, rho, mu, psi):
    return mp.exp(L) + mu - rho * L - psi


def root(rho, mu, psi):
    """The anchor root at 80 digits, for float inputs taken as exact."""
    rho, mu, psi = mp.mpf(rho), mp.mpf(mu), mp.mpf(psi)
    hi = mp.log(rho)
    if _h(hi, rho, mu, psi) >= 0:
        raise ValueError("psi is at or below its minimum: no interior root")
    lo = min(hi - 1, (mu - psi) / rho - 1)
    assert _h(lo, rho, mu, psi) > 0
    tol = mp.mpf(10) ** (-mp.mp.dps + 5) * max(1, abs(lo))
    while hi - lo > tol:
        m = (lo + hi) / 2
        if _h(m, rho, mu, psi) > 0:
            lo = m
        else:
            hi = m
    L = (lo + hi) / 2
    c = (psi - mu) / rho + mp.log(rho)
    w = mp.lambertw(-mp.exp(-c), 0)
    assert abs(mp.log(rho) - c - w.real - L) <= mp.mpf(10) ** -60 * max(1, abs(L))
    return L


def psi_min(rho, mu):
    """psi at the branch point, L = ln rho, at 80 digits."""
    rho, mu = mp.mpf(rho), mp.mpf(mu)
    return rho + mu - rho * mp.log(rho)


def states():
    """(kind, rho, mu, psi) for every oracle state."""
    out = []
    # next to the branch point: psi = psi_min + rho*d, rounded to a float
    for rho, mu in ((1.5, 1.0), (0.3, 1e-3), (40.0, 2.0)):
        for k in range(-14, 1):
            out.append(("branch", rho, mu, float(psi_min(rho, mu) + rho * mp.mpf(10) ** k)))
    # interior roots on the README u surface (beta=2, gamma=3, mu=1)
    for x, y in ((0.01, 1.0), (0.5, 1.2), (1.2, 1.01), (1.6, 1.0), (2.0, 2.0),
                 (3.0, 1.5), (4.0, 2.0), (6.0, 5.0), (0.2, 4.0), (5.0, 1.0)):
        out.append(("interior", 1.5, 1.0, x + y - 1.5 * math.log(x)))
    # deep roots: psi/rho from 1e2 to 1e6, e^-c still above the underflow
    for ratio in (1e2, 3e2, 7e2):
        out.append(("deep", 1.5, 1.0, 1.5 * ratio))
    # e^-c underflows in double: c > 745
    for ratio in (8e2, 2e3, 1e4, 1e5, 1e6):
        out.append(("underflow", 1.5, 1.0, 1.5 * ratio))
        out.append(("underflow", 0.02, 3e-3, 0.02 * ratio + 0.5))
    # rho and mu across +-3 decades, at an interior and a deep psi
    for rho in (1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3):
        for mu in (1e-3, 1e3):
            pm = float(psi_min(rho, mu))
            out.append(("scale", rho, mu, pm + rho * 0.5))
            out.append(("scale", rho, mu, pm + rho * 50.0))
    return out


def main():
    table = []
    for kind, rho, mu, psi in states():
        L = root(rho, mu, psi)
        table.append({
            "kind": kind,
            "rho": rho,
            "mu": mu,
            "psi": psi,
            "log_a": mp.nstr(L, DIGITS, strip_zeros=False),
        })
    with open(PATH, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    print(f"wrote {len(table)} states to {PATH}")


if __name__ == "__main__":
    main()

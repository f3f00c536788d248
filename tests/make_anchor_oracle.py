"""Write ``anchor_oracle.json``: anchor offsets at 50 digits, for
``tests/test_kernels.py``.

The anchor offset s* = ln(a/x) is the root of y - mu - x*expm1(s) + rho*s = 0
on s <= min(0, ln(rho/x)), at x > 0 and y >= mu. Each state stores (kind,
rho, mu, x, y) as the floats the solver receives, and s* and the anchor's
log, ln a = ln x + s*, for those exact values. The root comes from the one
high-precision solver of the oracle files, ``make_oracle_values``'s
bisection, run with enough digits to carry the cancellation of I's terms
against mu and the flat slope rho - a next to the branch point.

The states cover the branch point, a = rho (the anchor's deficit from 1e-14
to 1, by y above mu at x = rho and by x above rho at y = mu, and x one ulp
above rho), interior roots on the README u surface, deep roots (deficits in
the hundreds), roots whose deficit exceeds 744, so that e^-c underflows in
double in the Lambert-W form (c = 1 + deficit), rho and mu across +-3
decades, and anchors within rounding of x at mu = 1e-300. Run it with mpmath
installed (the ``test`` extra):

    PYTHONPATH=src python tests/make_anchor_oracle.py
"""

import json
import math
import os

import mpmath as mp

from make_oracle_values import _anchor_offset

DIGITS = 50
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchor_oracle.json")


def root(rho, mu, x, y):
    """(s*, ln x + s*) as mpfs to DIGITS or more, for float inputs taken as
    exact."""
    rho, mu, x, y = map(mp.mpf, (rho, mu, x, y))
    if y == mu and x <= rho:
        # (x, y) sits on the level I = mu at or left of the peak: a = x
        return mp.mpf(0), mp.log(x)
    # digits that I's terms lose against mu, and that the slope rho - a,
    # about rho*sqrt(2*deficit) next to the branch point, takes from the
    # root: 80 covers a deficit down to 1e-14 with room to spare
    terms = x + y + rho * (2 + abs(mp.log(rho / x)))
    with mp.workdps(DIGITS + 80 + int(mp.log10(terms / mu))):
        s = _anchor_offset(x, y, rho, mu)
        return +s, mp.log(x) + s


def states():
    """(kind, rho, mu, x, y) for every oracle state."""
    out = []
    for rho, mu in ((1.5, 1.0), (0.3, 1e-3), (40.0, 2.0)):
        # the deficit d = 10^k by y = mu + rho*d at x = rho
        for k in range(-14, 1):
            out.append(("branch", rho, mu, rho, mu + rho * 10.0**k))
        # about the same deficits by x = rho*(1 + sqrt(2d)) at y = mu
        for k in (-14, -10, -6, -2):
            out.append(("branch", rho, mu, rho * (1.0 + math.sqrt(2.0 * 10.0**k)), mu))
        out.append(("branch", rho, mu, math.nextafter(rho, math.inf), mu))
    # the README u surface (beta=2, gamma=3, mu=1)
    for x, y in ((0.01, 1.0), (0.5, 1.2), (1.2, 1.01), (1.6, 1.0), (2.0, 2.0),
                 (3.0, 1.5), (4.0, 2.0), (6.0, 5.0), (0.2, 4.0), (5.0, 1.0)):
        out.append(("interior", 1.5, 1.0, x, y))
    # deficits in the hundreds, e^-c still above the underflow
    for rho, mu, x, y in ((1.5, 1.0, 100.0, 100.0), (1.5, 1.0, 150.0, 300.0),
                          (1.5, 1.0, 400.0, 500.0), (1.5, 1.0, 0.01, 300.0),
                          (0.02, 3e-3, 2.0, 5.0), (0.02, 3e-3, 1e-3, 10.0)):
        out.append(("deep", rho, mu, x, y))
    # deficits above 744: e^-c underflows in double
    for rho, mu, x, y in ((1.5, 1.0, 1e3, 1e3), (1.5, 1.0, 1e4, 1e4), (1.5, 1.0, 1e5, 1e5),
                          (1.5, 1.0, 1e6, 1e6), (0.02, 3e-3, 10.0, 10.0),
                          (0.02, 3e-3, 100.0, 1e3), (0.02, 3e-3, 1e-3, 1e3),
                          (0.02, 3e-3, 1e4, 1.0)):
        out.append(("underflow", rho, mu, x, y))
    # rho and mu across +-3 decades, at a deficit near 1 and near 50
    for rho in (1e-3, 1e-2, 1e-1, 1e1, 1e2, 1e3):
        for mu in (1e-3, 1e3):
            out.append(("scale", rho, mu, 2.0 * rho, mu + 0.5 * rho))
            out.append(("scale", rho, mu, 0.25 * rho, mu + 50.0 * rho))
    # y and mu below the rounding unit of psi: the anchor within it of x
    for x, y in ((1.0, 1e-200), (1.0, 1e-100), (1e-300, 1e-200), (1e-300, 1e-100)):
        out.append(("anchor-at-x", 1.5, 1e-300, x, y))
    return out


def main():
    table = []
    for kind, rho, mu, x, y in states():
        s, log_a = root(rho, mu, x, y)
        table.append({
            "kind": kind,
            "rho": rho,
            "mu": mu,
            "x": x,
            "y": y,
            "s": mp.nstr(s, DIGITS, strip_zeros=False),
            "log_a": mp.nstr(log_a, DIGITS, strip_zeros=False),
        })
    with open(PATH, "w") as f:
        f.write("[\n")
        f.write(",\n".join(" " + json.dumps(row) for row in table))
        f.write("\n]\n")
    print(f"wrote {len(table)} states to {PATH}")


if __name__ == "__main__":
    main()

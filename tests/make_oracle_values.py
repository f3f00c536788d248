"""Write ``oracle_values.json``: u and v at about 140 states, to 40 digits,
for ``tests/test_oracle.py``.

Each state stores (beta, gamma, mu, x, y) as floats, taken as exact, and the
time with those exact values, found with mpmath. The anchor offset s* =
ln(a/x) is the root of I(s) = y - x*expm1(s) + rho*s = mu on s <= min(0,
ln(rho/x)), found by bisection, and the time is mp.quad of 1/(beta*I(s))
over s = ln(S/x): u from s* to 0, v from ln(rho/x) to 0 (dt = -dS/(beta*S*I)).
I is computed in this start-relative form throughout, with enough digits to
carry its cancellation next to the anchor (50 plus log10 of its largest
term over mu); the quadrature runs at 50 digits, from the anchor in sig = s
- s*, with breakpoints at ln(rho/x) and at powers of 10 times each end's
boundary-layer width (mu/|rho - a| at the anchor, y/|rho - x| at x).

Each state also stores the value, err_estimate and error (value minus the
oracle) of the integral route of the ``sirtimes`` it imports, or null where
the route raised: the reference that the test holds later trees to. The
states cover a sample of the two README surfaces, the ray x = y for N = 1e2
to 1e15, mu down to 1e-6, x within 1e-3 of rho, nodes where the anchor
rounds to x in psi's form, and a few wide states. Run it with mpmath
installed (the ``test`` extra), on the tree whose errors are to be held:

    PYTHONPATH=src python tests/make_oracle_values.py
"""

import json
import os

import mpmath as mp

from sirtimes import ModelParams, SirTimesError, u_integral, v_integral

DIGITS = 40
mp.mp.dps = DIGITS + 10
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")


def _i(s, x, y, rho):
    return y - x * mp.expm1(s) + rho * s


def _anchor_offset(x, y, rho, mu):
    """s* to the working precision, by bisection."""
    hi = min(mp.mpf(0), mp.log(rho / x))
    step = mp.mpf(1)
    lo = hi - step
    while _i(lo, x, y, rho) > mu:
        step *= 2
        lo = hi - step
    for _ in range(20 * mp.mp.prec):
        if hi - lo <= mp.mpf(10) ** (-mp.mp.dps + 5) * max(abs(lo), abs(hi)):
            break
        m = (lo + hi) / 2
        if _i(m, x, y, rho) > mu:
            hi = m
        else:
            lo = m
    return (lo + hi) / 2


def _layer_points(a, b, wa, wb):
    """Breakpoints in (a, b): a + wa*10^k and b - wb*10^k up to mid-way."""
    half = (b - a) / 2
    pts = []
    for end, w, sign in ((a, wa, 1), (b, wb, -1)):
        if w is None or not w > 0:
            continue
        while w < half:
            pts.append(end + sign * w)
            w *= 10
    return pts


def oracle(kind, beta, gamma, mu, x, y):
    """u or v at the exact float inputs, as an mpf at DIGITS or more."""
    beta, gamma, mu, x, y = map(mp.mpf, (beta, gamma, mu, x, y))
    rho = gamma / beta
    # digits that I's cancellation next to the anchor, or next to x, takes
    terms = x + y + rho * ((x + y + rho) / rho + abs(mp.log(rho / x)) + 1)
    lost = int(mp.log10(terms / (mu if kind == "u" else y))) + 5
    with mp.workdps(DIGITS + 10 + lost):
        rho = gamma / beta
        s_rho = mp.log(rho / x)
        w_x = y / abs(rho - x) if rho != x else None
        if kind == "u":
            s_star = _anchor_offset(x, y, rho, mu)
            a = x * mp.exp(s_star)
            w_a = mu / abs(rho - a) if rho != a else None
            # the piece from the anchor runs in sig = s - s*, so that the
            # quadrature resolves the anchor's boundary layer however close
            # s* lies to 0
            pieces = [(s_star, min(s_rho, 0) - s_star, w_a, None if s_rho < 0 else w_x)]
        else:
            s_star = 0
            pieces = []
        if s_rho < 0:
            pieces.append((0, -s_rho, None, w_x))
    value = 0
    for s0, length, w_lo, w_hi in pieces:
        def f(sig, s0=s0):
            with mp.workdps(DIGITS + 10 + lost):
                return 1 / (beta * _i(s0 + sig if s0 else sig, x, y, rho))
        lo, hi = (0, length) if s0 else (-length, 0)
        pts = [lo, *_layer_points(lo, hi, w_lo, w_hi), hi]
        value += mp.quad(f, sorted(set(pts)))
    return value


def states():
    """(label, kind, (beta, gamma, mu), x, y) for every oracle state."""
    out = []
    # the README u surface (2, 3, 1) on 0:6:61 x 1:5:41, every ninth x and
    # every eighth y, x > 0 and off the edge y = mu, x <= rho (u = 0)
    for i in range(3, 61, 9):
        for j in range(0, 41, 8):
            if j or 0.1 * i > 1.5:
                out.append(("surface", "u", (2.0, 3.0, 1.0), 0.1 * i, 1.0 + 0.1 * j))
    # the README v surface (3, 3, 1) on 1:20:77 x 0.5:5:19, x > rho
    for i in range(4, 77, 12):
        for j in range(0, 19, 6):
            out.append(("surface", "v", (3.0, 3.0, 1.0), 1.0 + 0.25 * i, 0.5 + 0.25 * j))
    # the ray x = y, N = 1e2 to 1e15
    for k in range(2, 16):
        for kind in ("u", "v"):
            out.append(("ray", kind, (2.0, 3.0, 1.0), 0.5 * 10.0**k, 0.5 * 10.0**k))
    # small mu, down to 1e-6, with y at and far above it
    for mu in (1e-2, 1e-4, 1e-6):
        for x, y in ((0.5, 2.0 * mu), (1.2, 1.0), (4.0, mu), (4.0, 2.0), (18.91483218006351, mu)):
            out.append(("small-mu", "u", (2.0, 3.0, mu), x, y))
    # x within 1e-3 of rho = 1.5
    for x in (1.5 * (1 - 1e-3), 1.5 * (1 - 1e-6), 1.5 * (1 + 1e-6), 1.5 * (1 + 1e-3)):
        for y in (1.0 + 1e-6, 2.0):
            out.append(("near-rho", "u", (2.0, 3.0, 1.0), x, y))
            if x > 1.5:
                out.append(("near-rho", "v", (2.0, 3.0, 1.0), x, y))
    # where psi cannot tell y from mu, so that its anchor rounds to x
    for x, y in ((1.0, 1e-200), (1.0, 1e-100), (1e-300, 1e-200), (1e-300, 1e-100)):
        out.append(("anchor-at-x", "u", (2.0, 3.0, 1e-300), x, y))
    # wide states: an anchor close to x, and rates and counts over decades
    out.append(("wide", "u", (0.0182, 472.0, 7.88e-5), 9.5e3, 5.69e-4))
    for params, x, y in (((1.0, 1.0, 1.0), 1e8, 2.0), ((1.0, 1e3, 1e2), 1e11, 200.0),
                         ((2.0, 3.0, 1e-6), 4.0, 2.0), ((0.05, 20.0, 0.3), 700.0, 5.0),
                         ((30.0, 0.2, 2e-3), 0.02, 0.7)):
        out.append(("wide", "u", params, x, y))
        if x > params[1] / params[0]:
            out.append(("wide", "v", params, x, y))
    return out


def _route(kind, params, x, y):
    """(value, err_estimate) of the imported integral route, or Nones."""
    route = u_integral if kind == "u" else v_integral
    try:
        r = route(ModelParams(*params), x, y)
    except SirTimesError:
        return None, None
    return r.value, r.err_estimate


def main():
    table = []
    for label, kind, params, x, y in states():
        exact = oracle(kind, *params, x, y)
        value, err = _route(kind, params, x, y)
        table.append({
            "label": label,
            "kind": kind,
            "params": list(params),
            "x": x,
            "y": y,
            "time": mp.nstr(exact, DIGITS, strip_zeros=False),
            "route_value": value,
            "route_err_estimate": err,
            "route_error": None if value is None else float(mp.mpf(value) - exact),
        })
    with open(PATH, "w") as f:
        f.write("[\n")
        f.write(",\n".join(" " + json.dumps(row) for row in table))
        f.write("\n]\n")
    print(f"wrote {len(table)} states to {PATH}")


if __name__ == "__main__":
    main()

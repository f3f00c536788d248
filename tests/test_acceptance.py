"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL - <detail>` line (visible
under `pytest -s` or in the captured output) and then asserts, so a red
criterion fails the suite. The reference parameter sets are beta=2, gamma=3,
mu=1 for the threshold surface u and beta=gamma=3 for the peak surface v;
full-size grids are 61x41 over [0.1,6]x[1.01,5] and 77x19 over
[1.01,20]x[0.5,5].
"""

from sirtimes import checks
from sirtimes.cli import main


def _report(cid, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {cid}: {tag} - {detail}")
    assert passed, f"{cid}: {detail}"


def _combine(cid, *outcomes):
    passed = all(oc.passed for oc in outcomes)
    detail = "; ".join(f"{oc.name}: {oc.detail}" for oc in outcomes)
    _report(cid, passed, detail)


def test_c01_cross_method_u():
    # ODE event route vs representation integral, 61x41 nodes, rel 1e-6;
    # both surfaces built within checks.CROSS_METHOD_BUDGET_S
    _combine("C01", checks.check_cross_method_u())


def test_c02_cross_method_v():
    # same agreement for the peak-time surface, 77x19 nodes
    _combine("C02", checks.check_cross_method_v())


def test_c03_boundaries_exact():
    # u(x, mu) = 0 for 10 x in [0, rho]; v(rho, y) = 0 for y in
    # {0.1, 1, 10, 1e6}; both methods, errors exactly 0
    _combine("C03", checks.check_boundary_u_zero(), checks.check_boundary_v_zero())


def test_c04_pde_residual_convergence():
    # central-difference residual of the transport equation at 9 interior
    # points per surface: order estimate in [1.7, 2.3] across
    # h in {1e-3, 5e-4, 2.5e-4}, |residual| <= 1e-5 at the smallest h
    _combine("C04", checks.check_pde_order_u(), checks.check_pde_order_v())


def test_c05_bound_sandwiches():
    # closed-form lower/upper bounds sandwich the computed surfaces on both
    # reference grids, slack 1e-9, zero violations
    _combine("C05", checks.check_bounds_sandwich_u(), checks.check_bounds_sandwich_v())


def test_c06_ordering():
    # the peak precedes the threshold crossing: v <= u at 200 random states
    # with y >= mu, tolerance 1e-9
    _combine("C06", checks.check_ordering_v_le_u())


def test_c07_conservation():
    # psi drift <= 1e-8 relative at 50 sample times on 20 random paths
    _combine("C07", checks.check_psi_conservation())


def test_c08_asymptotics():
    # along x = y = r/2 the ratio to ln((x+y)/mu)/gamma is within [0.9, 1.1]
    # at r = 1e6 and closer to 1 than at r = 1e3; along y = 1, x = 1e6 the
    # peak-time ratio is within [0.9, 1.1]; integral route only
    _combine("C08", checks.check_asymptotic_u(), checks.check_asymptotic_v())


def test_c09_vanishing_v():
    # v <= 0.05 at 20 states with x + y >= 1e4 and y >= 0.5
    _combine("C09", checks.check_vanishing_v())


def test_c10_exact_special_case():
    # u(0, y) from the ODE path matches ln(y/mu)/gamma to 1e-9 relative
    _combine("C10", checks.check_exact_x0())


def test_c11_characteristic_identity():
    # u(S(t), I(t)) = u(x, y) - t to 1e-6 relative at fractions
    # {0.25, 0.5, 0.75} on 10 random orbits; same for v
    _combine("C11", checks.check_characteristic_u(), checks.check_characteristic_v())


def test_c12_golden_grids(tmp_path):
    # the grid command reproduces byte-identical CSV across repeated runs
    # for both reference surface configurations
    configs = {
        "u": ["grid", "--beta", "2", "--gamma", "3", "--mu", "1",
              "--time", "u", "--x", "0:6:61", "--y", "1:5:41",
              "--method", "integral"],
        "v": ["grid", "--beta", "3", "--gamma", "3",
              "--time", "v", "--x", "1:20:77", "--y", "0.5:5:19",
              "--method", "integral"],
    }
    passed = True
    notes = []
    for kind, argv in configs.items():
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{kind}_{run}.csv"
            code = main(argv + ["--out", str(out)])
            if code != 0:
                passed = False
                notes.append(f"{kind}: exit code {code} in run {run}")
            blobs.append(out.read_bytes())
        if blobs[0] == blobs[1]:
            notes.append(f"{kind}: {len(blobs[0])} bytes, identical in two runs")
        else:
            passed = False
            notes.append(f"{kind}: outputs differ between runs")
    _report("C12", passed, "; ".join(notes))

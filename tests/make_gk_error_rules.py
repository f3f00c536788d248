"""Print the null rules of the Gauss-Kronrod 7/15 rule that
``sirtimes.kernels`` estimates each panel's error with, as the tuples
``_GK_ROWS`` and ``_GK_CENTRE`` of that module.

A null rule of degree d is a set of weights on the 15 Kronrod nodes that
sends every polynomial of degree at most d to 0; applied to an integrand, it
measures the integrand's components of higher degree. The rules here are
those of Berntsen & Espelid ("Error estimation in automatic quadrature
routines", ACM TOMS 17, 1991): the weighted values w_i q_k(x_i) of the
polynomials q_k orthonormal on the nodes under the Kronrod weights w_i, the
rule of q_k being of degree k - 1, each scaled to the Euclidean norm of the
Kronrod weights. The kernel takes the four of degrees 13 down to 10: q_14
and q_12 are even and act on the sums f(c - hl*x) + f(c + hl*x), q_13 and
q_11 odd and act on the differences f(c + hl*x) - f(c - hl*x).

The nodes are derived here, not read from the package: the Gauss nodes are
the roots of the Legendre polynomial P_7, the Kronrod ones the roots of
the Stieltjes polynomial E_8, of degree 8, orthogonal to every polynomial of
degree below 8 under the weight P_7; the Kronrod weights make the rule exact
on the monomials up to degree 14. Run it with mpmath installed (the
``test`` extra) and paste its output over the two tuples in ``kernels.py``:

    python tests/make_gk_error_rules.py
"""

import functools

import mpmath as mp

DIGITS = 50
# the degrees, less one, of the null rules the kernel takes: q_14 to q_11
DEGREES = (14, 13, 12, 11)


@functools.cache
def kronrod_nodes():
    """The 15 Gauss-Kronrod nodes in increasing order and their weights, as
    mpfs to DIGITS or more."""
    with mp.workdps(DIGITS + 20):
        def legendre(n):
            return lambda t: mp.legendre(n, t)

        # Newton from cos(pi*(k + 3/4)/(n + 1/2)), the classical first guess
        # of the k-th largest root of P_n
        gauss = [mp.findroot(legendre(7), mp.cos(mp.pi * (k + 0.75) / 7.5)) for k in range(3)]
        # E_8 = P_8 + sum over even j < 8 of c_j P_j; orthogonality against
        # x^k P_7 for odd k < 8 fixes the c_j (the even k hold by parity)
        even = (0, 2, 4, 6)

        def moment(j, k):
            return mp.quad(lambda t: mp.legendre(7, t) * mp.legendre(j, t) * t**k, [-1, 0, 1])

        rows = [[moment(j, k) for j in even] for k in (1, 3, 5, 7)]
        rhs = [-moment(8, k) for k in (1, 3, 5, 7)]
        c = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))

        def stieltjes(t):
            return mp.legendre(8, t) + sum(c[m] * mp.legendre(j, t) for m, j in enumerate(even))

        # each root of E_8 lies between two of P_7's, and the outer one above
        # the largest
        brackets = [(gauss[0], mp.mpf(1)), (gauss[1], gauss[0]), (gauss[2], gauss[1]),
                    (mp.mpf(0), gauss[2])]
        kronrod = [mp.findroot(stieltjes, (a, b), solver="illinois") for a, b in brackets]
        positive = sorted(gauss + kronrod)
        nodes = [-x for x in reversed(positive)] + [mp.mpf(0)] + positive
        exact = mp.matrix([(1 - (-1) ** (k + 1)) / mp.mpf(k + 1) for k in range(15)])
        weights = mp.lu_solve(mp.matrix([[x**k for x in nodes] for k in range(15)]), exact)
        return nodes, [weights[i] for i in range(15)]


def null_rules(nodes, weights):
    """The weights of the null rules, row k - 1 of degree k - 1, k = 1 to
    14, on the nodes in their order."""
    with mp.workdps(DIGITS + 20):
        ortho = []
        for k in range(15):
            v = [mp.legendre(k, x) for x in nodes]
            for q in ortho:
                c = mp.fsum(w * a * b for w, a, b in zip(weights, v, q))
                v = [a - c * b for a, b in zip(v, q)]
            norm = mp.sqrt(mp.fsum(w * a * a for w, a in zip(weights, v)))
            ortho.append([a / norm for a in v])
        scale = mp.sqrt(mp.fsum(w * w for w in weights))
        rules = []
        for q in ortho[1:]:
            rule = [w * a for w, a in zip(weights, q)]
            norm = mp.sqrt(mp.fsum(r * r for r in rule))
            rules.append([r * scale / norm for r in rule])
        return rules


def tables():
    """(_GK_ROWS, _GK_CENTRE) as tuples of floats: row j holds the Kronrod
    weight of the nodes -/+ _XGK[j] and the null rules' weights of the sum or
    difference of their values, for q_14, q_13, q_12 and q_11; the centre
    holds the Kronrod weight and the even rules' weights of the centre."""
    nodes, weights = kronrod_nodes()
    rules = null_rules(nodes, weights)
    rows = []
    for j in range(7):  # the node +_XGK[j], _XGK decreasing, is nodes[14 - j]
        rows.append((float(weights[14 - j]), *(float(rules[k - 1][14 - j]) for k in DEGREES)))
    centre = (float(weights[7]), float(rules[13][7]), float(rules[11][7]))
    return tuple(rows), centre


def main():
    rows, centre = tables()
    print("_GK_ROWS = (")
    for row in rows:
        print("    (" + ", ".join(repr(v) for v in row) + "),")
    print(")")
    print("_GK_CENTRE = (" + ", ".join(repr(v) for v in centre) + ")")


if __name__ == "__main__":
    main()

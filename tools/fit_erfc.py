"""Fit the rational approximations of ``relaxbc.layers.erfc`` and print them.

Run with ``python tools/fit_erfc.py``; it needs ``mpmath``, which the package
itself never imports.  Two pieces cover x >= 0, in the variables of Cody
(Math. Comp. 23, 1969):

- x < 4:   erfc(x) = exp(-x^2) P(x) / Q(x);
- x >= 4:  erfc(x) = exp(-x^2) / x (1/sqrt(pi) + t P(t) / Q(t)), t = 1/x^2.

Cody evaluates x < 0.5 as 1 - erf(x); exp(-x^2) P(x) / Q(x) is as accurate
there and spares a third piece.

Each P / Q is a near-minimax fit in relative error, in 60-digit arithmetic:
linearised least squares on Chebyshev nodes, reweighted by the current
denominator (Sanathanan and Koerner) and then by the current error (Lawson)
until the error levels out.  Q has constant term 1, and P as well where the
target is 1 at v = 0.  The script prints the
coefficients rounded to double, lowest degree first, and the largest
relative error of each piece at 2,000 points, evaluated in 60 digits from the
rounded coefficients.
"""

import mpmath as mp

mp.mp.dps = 60

PIECES = (
    # name, variable interval, degrees of P and Q, P(0) if pinned, target as
    # a function of v; P(0) = 1 makes erfc(0) = 1 exactly
    ("NEAR", (mp.mpf(0), mp.mpf(4)), 7, 8, mp.mpf(1),
     lambda x: mp.erfc(x) * mp.exp(x * x)),
    ("FAR", (1 / mp.mpf(26.6) ** 2, mp.mpf(1) / 16), 5, 4, None,
     lambda t: (mp.erfc(1 / mp.sqrt(t)) * mp.exp(1 / t) / mp.sqrt(t) - 1 / mp.sqrt(mp.pi)) / t),
)


def nodes(lo, hi, count):
    return [lo + (hi - lo) * (1 - mp.cos(mp.pi * (i + mp.mpf(0.5)) / count)) / 2
            for i in range(count)]


def evaluate(coef, v):
    out = mp.mpf(0)
    for c in reversed(coef):
        out = out * v + c
    return out


def fit(lo, hi, p, q, p0, f, count=300, sk_steps=6, lawson_steps=40):
    vs = nodes(lo, hi, count)
    first = 0 if p0 is None else 1
    fs = [f(v) for v in vs]
    den = [mp.mpf(1)] * count
    lawson = [mp.mpf(1)] * count
    for step in range(sk_steps + lawson_steps):
        rows, rhs = [], []
        for v, fv, d, w in zip(vs, fs, den, lawson):
            scale = mp.sqrt(w) / (abs(fv) * d)
            rows.append([scale * v**j for j in range(first, p + 1)]
                        + [-scale * fv * v**j for j in range(1, q + 1)])
            rhs.append(scale * (fv - (p0 or 0)))
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        P = [p0] * first + [sol[j - first] for j in range(first, p + 1)]
        Q = [mp.mpf(1)] + [sol[p - first + j] for j in range(1, q + 1)]
        den = [abs(evaluate(Q, v)) for v in vs]
        if step >= sk_steps:
            err = [abs(evaluate(P, v) / evaluate(Q, v) / fv - 1) for v, fv in zip(vs, fs)]
            lawson = [w * e for w, e in zip(lawson, err)]
            total = sum(lawson)
            lawson = [w / total for w in lawson]
    return P, Q


def max_rel_error(lo, hi, P, Q, f, count=2000):
    P = [mp.mpf(float(c)) for c in P]
    Q = [mp.mpf(float(c)) for c in Q]
    return max(abs(evaluate(P, v) / evaluate(Q, v) / f(v) - 1)
               for v in (lo + (hi - lo) * mp.mpf(i) / (count - 1) for i in range(count)))


def main():
    for name, (lo, hi), p, q, p0, f in PIECES:
        P, Q = fit(lo, hi, p, q, p0, f)
        print(f"# piece {name}: max relative error {mp.nstr(max_rel_error(lo, hi, P, Q, f), 3)}")
        print(f"_P_{name} = ({', '.join(repr(float(c)) for c in P)})")
        print(f"_Q_{name} = ({', '.join(repr(float(c)) for c in Q)})")


if __name__ == "__main__":
    main()

"""Independent oracles the tests check the library against.

Everything here is deliberately brute force and shares no code path with
the package: tower enumeration for mode labels, breadth-first state-graph
enumeration for sectors, exact factorial ratios for matrix elements, the
literal nested subset sums for the root-equation residuals, the mpmath
form of the high-precision root route (also with its digits doubled until
its rows settle), the pairwise double loop of the close-pair test, the
scalar root canonicalization, one root set at a time, the scaled robust
residual at 60 digits, the residual kernel's terms one derivative order at
a time, and the hop polynomials and operator expanded as plain Fraction
coefficient lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def tower_level(k: int, m: int) -> int:
    """Level of occupation m inside its k-step tower, by counted enumeration."""
    j = m % k
    tower = []
    occ = j
    while occ <= m:
        tower.append(occ)
        occ += k
    return tower.index(m)


def allowed_q_values(k: int):
    return [Fraction(j * k + 1, k * k) for j in range(k)]


def lower_move(model, occ):
    """Apply the lowering interaction product; None if it annihilates."""
    out = list(occ)
    for i in model.group1:
        out[i] -= model.k[i]
        if out[i] < 0:
            return None
    for i in model.group2:
        out[i] += model.k[i]
    return tuple(out)


def raise_move(model, occ):
    out = list(occ)
    for i in model.group1:
        out[i] += model.k[i]
    for i in model.group2:
        out[i] -= model.k[i]
        if out[i] < 0:
            return None
    return tuple(out)


def bfs_sector_states(model, occ):
    """All occupation vectors reachable through the interaction moves."""
    seen = {tuple(occ)}
    frontier = [tuple(occ)]
    while frontier:
        state = frontier.pop()
        for move in (lower_move, raise_move):
            nxt = move(model, state)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def sqrt_rounded(num: int) -> float:
    """sqrt(num) correctly rounded: the integer square root of num times
    4^128 (at least 129 bits for num >= 1), its low bit set where inexact,
    over 2^128 in one correctly rounded integer division."""
    root = math.isqrt(num << 256)
    return (root | (root * root != num << 256)) / (1 << 128)


def transition_oracle(model, occ) -> float:
    """Exact-factorial interaction matrix element from occupations occ,
    correctly rounded (`sqrt_rounded`)."""
    num = 1
    for i in model.group1:
        m, k = occ[i], model.k[i]
        num *= math.factorial(m + k) // math.factorial(m)
    for i in model.group2:
        m, k = occ[i], model.k[i]
        if m < k:
            return 0.0
        num *= math.factorial(m) // math.factorial(m - k)
    return sqrt_rounded(num)


def subset_bae_residuals(op, roots):
    """Literal nested subset sums of the root equations (exponential cost)."""
    n = len(roots)
    out = []
    for p in range(n):
        others = [roots[m] for m in range(n) if m != p]
        total = complex(op.p[1](roots[p]))
        for i in range(2, op.order + 1):
            if not op.p[i]:
                continue
            coeff = complex(op.p[i](roots[p])) * math.factorial(i)
            for combo in combinations(others, i - 1):
                denom = 1.0 + 0.0j
                for a in combo:
                    denom *= roots[p] - a
                total += coeff / denom
        out.append(total)
    return out


def high_precision_coefficients(op, energy):
    """Eigenpolynomial coefficients of one level in mpmath: Newton on the
    characteristic recurrence of the monomial block, then the three-term
    recurrence, at max(50, 30 + 4N) digits, peak-normalized to float."""
    return _mp_level(op, energy, max(50, 30 + 4 * op.n_top))[1]


def _mp_level(op, energy, dps):
    """(polished eigenvalue, coefficients), both rounded to float, of
    `high_precision_coefficients` at `dps` digits."""
    import mpmath as mp
    import numpy as np

    def to_mp(x):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(float(x))

    n = op.n_top
    with mp.workdps(dps):
        # A(0..N-1), B(0..N), C(1..N)
        hop_a, hop_b, hop_c = ([to_mp(x) for x in values] for values in op.hop_values)
        e_val = mp.mpf(energy)
        e_scale = max(mp.mpf(1), abs(e_val))
        for _ in range(80):
            p_prev, p_cur = mp.mpf(1), hop_b[0] - e_val
            d_prev, d_cur = mp.mpf(0), mp.mpf(-1)
            for m in range(1, n + 1):
                off = hop_a[m - 1] * hop_c[m - 1]
                p_new = (hop_b[m] - e_val) * p_cur - off * p_prev
                d_new = -p_cur + (hop_b[m] - e_val) * d_cur - off * d_prev
                p_prev, p_cur, d_prev, d_cur = p_cur, p_new, d_cur, d_new
            if d_cur == 0:
                break
            step = p_cur / d_cur
            e_val -= step
            if abs(step) <= mp.mpf(10) ** (8 - dps) * e_scale:
                break
        vec = [mp.mpf(1)]
        for m in range(n):
            rhs = (e_val - hop_b[m]) * vec[m]
            if m > 0:
                rhs -= hop_a[m - 1] * vec[m - 1]
            vec.append(rhs / hop_c[m])
        peak = max(abs(x) for x in vec)
        return float(e_val), np.array([float(x / peak) for x in vec])


def robust_residual_mp(op, roots, dps=60):
    """The scaled robust residual of one root set at `dps` digits, in
    mpmath: max over the roots a_p of |(H psi)(a_p)| over
    sum_i |P_i|(|a_p|) |psi^(i)|(|a_p|), where psi = prod_p (z - a_p) is
    expanded at `dps` digits and |q| is q with its coefficients'
    magnitudes.  The roots enter as the float values they hold; the P_i
    are the operator's, Fractions divided at `dps` digits.  An empty root
    set reads 0, and a zero bound reads 0 over a zero value, inf
    otherwise."""
    import mpmath as mp

    def to_mp(c):
        if isinstance(c, Fraction):
            return mp.mpf(c.numerator) / c.denominator
        return mp.mpmathify(c)

    with mp.workdps(dps):
        points = [mp.mpc(complex(a)) for a in roots]
        psi = [mp.mpc(1)]   # ascending coefficients
        for a in points:
            psi = [(psi[j - 1] if j else 0) - (a * psi[j] if j < len(psi) else 0)
                   for j in range(len(psi) + 1)]
        derivs = [psi]
        for _ in op.p[1:]:
            derivs.append([j * c for j, c in enumerate(derivs[-1])][1:])
        polys = [[to_mp(c) for c in p.coeffs] for p in op.p]

        def value(coeffs, x):
            return mp.polyval(coeffs[::-1], x) if coeffs else 0

        worst = mp.mpf(0)
        for a in points:
            total, bound = mp.mpc(0), mp.mpf(0)
            for p, d in zip(polys, derivs):
                total += value(p, a) * value(d, a)
                bound += (value([abs(c) for c in p], abs(a))
                          * value([abs(c) for c in d], abs(a)))
            if bound:
                worst = max(worst, abs(total) / bound)
            elif total:
                return math.inf
        return float(worst)


def terms_at_roots(p_list, coeffs, roots):
    """The per-order loop the package's residual kernel replaced, as its
    reference: (terms, bounds, dpsi) of `bethe._terms_at_roots` for the
    P_i given as a list of coefficient arrays (empty for a zero P_i), the
    (L, N + 1) coefficient rows of psi and the (L, N) stack of roots.
    Each derivative of psi is one `polyder` of the one before, and each
    order's values and bounds are one `polyval` each; a zero P_i leaves
    its terms and bounds at zero."""
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    derivs = [coeffs]
    for _ in p_list[1:]:
        derivs.append(npoly.polyder(derivs[-1], axis=-1))
    points = np.abs(roots)
    terms = np.zeros((len(derivs),) + roots.shape, dtype=complex)
    bounds = np.zeros(terms.shape)
    values = [npoly.polyval(roots, d.T[:, :, None], tensor=False) for d in derivs]
    for i, (p, d) in enumerate(zip(p_list, derivs)):
        if len(p):
            terms[i] = npoly.polyval(roots, p) * values[i]
            bounds[i] = (npoly.polyval(points, np.abs(p))
                         * npoly.polyval(points, np.abs(d).T[:, :, None], tensor=False))
    return terms, bounds, values[1]


def settled_coefficients(op, energy, max_dps=3200):
    """(eigenvalue, coefficients) of `high_precision_coefficients`' level
    at the first of its digits, doubled in turn, whose rows twice as many
    digits no longer change.

    At weak coupling its own digits do not suffice: the forward recurrence
    from c_0 amplifies the polished eigenvalue's error, and on a general
    sector with N=17 at g = 1.3e-3 the rows at its digits and at twice
    them differ by a factor of up to 1e22.  Beyond `max_dps` it raises
    ArithmeticError.
    """
    dps = max(50, 30 + 4 * op.n_top)
    level = _mp_level(op, energy, dps)
    while dps < max_dps:
        dps *= 2
        finer = _mp_level(op, energy, dps)
        if (level[1] == finer[1]).all():
            return level
        level = finer
    raise ArithmeticError(f"rows still change at {dps} digits")


def has_close_pair(roots, rel_tol):
    """Whether any two roots lie within rel_tol * max(1, max|root|), pair by pair.

    Gaps and scale share one modulus routine (numpy's), whose last bit can
    differ from the scalar abs(); with two, the gap |a - 0| of roots {a, 0}
    could fall below the scale |a| it equals.
    """
    import numpy as np

    n = roots.size
    if n < 2:
        return False
    scale = max(1.0, float(np.max(np.abs(roots))))
    for i in range(n):
        for j in range(i + 1, n):
            if np.abs(roots[i] - roots[j]) < rel_tol * scale:
                return True
    return False


def canonicalize_roots(roots) -> tuple:
    """Sort roots by (re, im) after snapping conjugate pairs, in a
    pure-Python double loop (the package takes the same steps in numpy);
    1e-11 is the package's pair tolerance.

    Near-real roots are flattened onto the axis; off-axis roots are paired
    with their closest conjugate partner and symmetrized, so a root set of
    a real-coefficient polynomial serializes deterministically.
    """
    items = [complex(a) for a in roots]
    if not items:
        return ()
    scale = max(1.0, max(abs(a) for a in items))
    tol = 1e-11 * scale
    reals = [a.real + 0.0j for a in items if abs(a.imag) <= tol]
    upper = sorted((a for a in items if a.imag > tol), key=lambda z: (z.real, z.imag))
    lower = sorted((a for a in items if a.imag < -tol), key=lambda z: (z.real, -z.imag))
    out = list(reals)
    used = [False] * len(lower)
    for a in upper:
        best, best_d = None, None
        for idx, b in enumerate(lower):
            if used[idx]:
                continue
            d = abs(a - b.conjugate())
            if best_d is None or d < best_d:
                best, best_d = idx, d
        if best is not None and best_d <= 10 * tol:
            used[best] = True
            m = (a + lower[best].conjugate()) / 2
            out.extend([m, m.conjugate()])
        else:
            out.append(a)
    out.extend(b for idx, b in enumerate(lower) if not used[idx])
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def occupations_below(n_modes: int, bound: int):
    """All occupation vectors with total occupation <= bound."""
    if n_modes == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in occupations_below(n_modes - 1, bound - first):
            yield (first,) + rest


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [a + (q[i] if i < len(q) else 0) for i, a in enumerate(p)]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_value(p, x):
    """Value at x of an ascending coefficient list, term by term."""
    return sum((c * x ** i for i, c in enumerate(p)), Fraction(0))


def hop_polynomials(model, sector):
    """Exact hop polynomials (A, B, C) in the level index n, as ascending
    Fraction coefficient lists with trailing zeros trimmed.

    Mode i's occupation is the list [b_i, k_i] on group 1 and [b_i, -k_i]
    on group 2; A = g * prod over group 2 of m_i (m_i - 1) ... (m_i - k_i + 1),
    C is the same product over group 1, and B = sum_i w_i m_i +
    sum_{i<=j} w_ij m_i m_j.  Couplings enter as Fraction(x), which is the
    exact value of a float x.
    """
    r, n = model.r, len(model.k)
    occ = [[Fraction(b), Fraction(model.k[i] if i < r else -model.k[i])]
           for i, b in enumerate(sector.base_occupations)]

    def falling(modes):
        p = [Fraction(model.g)]
        for i in modes:
            for d in range(model.k[i]):
                p = _poly_mul(p, [occ[i][0] - d, occ[i][1]])
        return _trim(p)

    hop_b = [Fraction(0)]
    for i in range(n):
        hop_b = _poly_add(hop_b, [Fraction(model.w[i]) * c for c in occ[i]])
        for j in range(i, n):
            hop_b = _poly_add(hop_b, [Fraction(model.wq[i][j]) * c
                                      for c in _poly_mul(occ[i], occ[j])])
    return falling(range(r, n)), _trim(hop_b), falling(range(r))


def operator_polynomials(model, sector):
    """Exact P_0 .. P_M of H = sum_i P_i(z) (d/dz)^i, as trimmed Fraction
    lists, M = max(sum k over each group, 2).

    The coefficient of n(n-1)...(n-i+1) in a hop polynomial sum_j p_j n^j is
    sum_j p_j S(j, i), with S the Stirling numbers of the second kind; A's
    lands on z^(i+1) of P_i, B's on z^i and C's on z^(i-1).
    """
    hop_a, hop_b, hop_c = hop_polynomials(model, sector)
    order = max(sum(model.k[:model.r]), sum(model.k[model.r:]), 2)
    stirling = [[1] + [0] * order]
    for j in range(1, order + 1):
        prev = stirling[-1]
        stirling.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, order + 1)])

    def falling(p):
        return [sum((c * stirling[j][i] for j, c in enumerate(p)), Fraction(0))
                for i in range(order + 1)]

    grids = [[Fraction(0)] * (i + 2) for i in range(order + 1)]
    for i, (a, b, c) in enumerate(zip(falling(hop_a), falling(hop_b), falling(hop_c))):
        grids[i][i + 1] += a
        grids[i][i] += b
        if i:
            grids[i][i - 1] += c
        else:
            assert c == 0, "C(0) must vanish"
    return [_trim(grid) for grid in grids]

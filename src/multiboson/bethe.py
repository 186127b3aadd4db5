"""Functional Bethe ansatz: root equations, energies, and cross-validation.

Each eigenfunction of a sector's differential operator is a polynomial
psi(z) = prod_p (z - alpha_p) whose roots make every simple pole of
(H psi)/psi removable.  Two equivalent residual forms are used:

* the pole-residue (Bethe-equation) form, evaluated through derivatives of
  psi -- componentwise  sum_i P_i(a_p) psi^(i)(a_p) / psi'(a_p);
* the robust polynomial form  (H psi)(a_p),  which needs no division and
  therefore works for coincident roots.

For pairwise-distinct roots the two differ exactly by the factor
psi'(a_p).  The energy depends on the roots only through their sum:
E = B(N) - A(N-1) * sum(alpha), with A, B the hop polynomials.

The production solve path extracts roots from monomial-basis eigenvectors
(companion-matrix root finding) and Newton-refines them on the robust
residuals; an independent multi-start Newton search on the pole-residue
equations is available as a confirmation mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .diffop import DiffOpForm, expand_diffop, hop_coefficients
from .fock import ModelSpec, Sector
from .hamiltonian import build_monomial_matrix, build_sector_matrix, diagonalize


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the Bethe solver.

    `tol` bounds the scaled robust residual accepted after refinement;
    `energy_tol` the relative disagreement tolerated against the oracle
    eigenvalue.  `seed` feeds the multi-start generator of the direct
    mode, which draws `starts` initial root sets inside `start_radius`.
    """

    tol: float = 1e-12
    max_iter: int = 50
    seed: int = 0
    direct: bool = False
    starts: int = 64
    start_radius: float = 3.0
    energy_tol: float = 1e-8
    deflation_tol: float = 0.0
    degenerate_tol: float = 1e-6
    dedup_tol: float = 1e-7
    damping: float = 0.5


@dataclass(frozen=True)
class BetheSolution:
    """One eigenlevel: canonical roots, energy, and residual diagnostics.

    `residual_bae` is NaN when the pole-residue form was not evaluated
    (degenerate or reduced root sets).  `source` tags how the roots were
    obtained: 'extracted' (companion roots accepted as-is), 'refined'
    (Newton-polished), or 'direct' (independent multi-start search).
    """

    level: int
    roots: tuple
    energy: float
    oracle_energy: float
    residual_bae: float
    residual_robust: float
    source: str
    degenerate: bool
    reduced: bool
    converged: bool


@dataclass(frozen=True)
class LevelRecord:
    level: int
    energy_fock: float
    energy_monomial: float
    energy_bethe: float
    energy_error: float
    residual_robust: float
    residual_bae: float
    n_roots: int
    degenerate: bool
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    """Three-way agreement record for one sector."""

    dim: int
    base_occupations: tuple
    levels: tuple
    max_energy_error: float
    passed: bool
    solutions: tuple = ()

    def failing_levels(self):
        return [rec for rec in self.levels if not rec.ok]


# ----------------------------------------------------------------------
# polynomial helpers on plain complex arrays (ascending coefficients)

def _monic_from_roots(roots) -> np.ndarray:
    c = np.array([1.0 + 0.0j])
    for a in roots:
        c = np.convolve(c, np.array([-a, 1.0 + 0.0j]))
    return c


def _float_polys(op: DiffOpForm):
    return [np.asarray([complex(c) for c in p.coeffs], dtype=complex) for p in op.p]


def _apply_float(p_list, psi: np.ndarray) -> np.ndarray:
    out = np.zeros(1, dtype=complex)
    for i, p in enumerate(p_list):
        if p.size == 0:
            continue
        term = np.convolve(p, npoly.polyder(psi, m=i) if i else psi)
        if term.size > out.size:
            term[: out.size] += out
            out = term
        else:
            out[: term.size] += term
    return out


def _apply_float_magnitude(p_list, psi: np.ndarray) -> np.ndarray:
    """Coefficientwise magnitude bound of all terms entering H psi.

    The residual scale must come from the term magnitudes, not from the
    (possibly perfectly cancelled) result: an eigenvalue at zero makes
    H psi the zero polynomial, and rounding junk would otherwise measure
    as an O(1) relative error.
    """
    out = np.zeros(1)
    for i, p in enumerate(p_list):
        if p.size == 0:
            continue
        term = np.convolve(np.abs(p), np.abs(npoly.polyder(psi, m=i) if i else psi))
        if term.size > out.size:
            term[: out.size] += out
            out = term
        else:
            out[: term.size] += term
    return out


def _deflate(psi: np.ndarray, root: complex) -> np.ndarray:
    """psi / (z - root) for monic-leading psi (remainder discarded)."""
    n = psi.size - 1
    q = np.zeros(n, dtype=complex)
    acc = psi[n]
    for j in range(n - 1, -1, -1):
        q[j] = acc
        acc = psi[j] + root * acc
    return q


def _scaled_values(coeffs: np.ndarray, points: np.ndarray):
    """Values of the polynomial at `points`, and their magnitude scales."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = npoly.polyval(points, coeffs)
        mags = npoly.polyval(np.abs(points), np.abs(coeffs))
    return np.atleast_1d(vals), np.maximum(np.atleast_1d(mags), 1e-300)


def _scaled_robust(p_list, roots: np.ndarray) -> float:
    """Backward-error style residual: max |H psi(a_p)| over the magnitude
    bound of the terms that built H psi at that point.

    Overflow in intermediate evaluations (wild trial steps during damping)
    propagates as inf/NaN and simply fails the acceptance comparison.
    """
    if len(roots) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        psi = _monic_from_roots(roots)
        vals = npoly.polyval(roots, _apply_float(p_list, psi))
        mags = npoly.polyval(np.abs(roots), _apply_float_magnitude(p_list, psi))
        out = float(np.max(np.abs(np.atleast_1d(vals))
                           / np.maximum(np.atleast_1d(mags), 1e-300)))
    return out if math.isfinite(out) else math.inf


# ----------------------------------------------------------------------
# residual forms

def bethe_residuals(op: DiffOpForm, roots, min_separation: float = 1e-10) -> np.ndarray:
    """Pole-residue components, one per root, via derivatives of psi.

    Component p is  sum_{i=1..M} P_i(a_p) psi^(i)(a_p) / psi'(a_p), which
    equals the nested subset sum over the other roots; all components
    vanish exactly when every a_p is a removable singularity of
    (H psi)/psi.  Requires pairwise separations above `min_separation`
    relative to the root scale.
    """
    roots = np.asarray(roots, dtype=complex)
    n = roots.size
    if n == 0:
        return np.zeros(0, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(roots))))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < min_separation * scale:
                raise ValueError("coincident roots: use the robust residual form")
    psi = _monic_from_roots(roots)
    p_list = _float_polys(op)
    res = np.zeros(n, dtype=complex)
    dpsi = npoly.polyder(psi)
    dvals = npoly.polyval(roots, dpsi)
    deriv = psi
    derivs = []
    for i in range(1, op.order + 1):
        deriv = npoly.polyder(deriv)
        derivs.append(deriv)
    for i in range(1, op.order + 1):
        if p_list[i].size == 0:
            continue
        res += npoly.polyval(roots, p_list[i]) * npoly.polyval(roots, derivs[i - 1])
    return res / dvals


def robust_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """(H psi)(a_p) for the monic psi built from the roots.

    Vanishing of all components, together with the automatic degree bound
    deg(H psi) <= N, is equivalent to psi being an eigenfunction: a
    ratio (H psi)/psi with no poles and no growth at infinity is constant.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    hpsi = _apply_float(_float_polys(op), _monic_from_roots(roots))
    return np.atleast_1d(npoly.polyval(roots, hpsi))


# ----------------------------------------------------------------------
# root extraction and bookkeeping

def roots_from_eigenvector(coeffs, deflation_tol: float = 0.0):
    """Roots of the eigenpolynomial sum_n coeffs[n] z^n.

    Uses companion-matrix eigenvalues (balanced internally), which stay
    accurate enough for Newton polishing even when the leading coefficient
    sits twenty orders of magnitude below the largest one -- strongly
    localized levels genuinely look like that in the monomial basis.  Only
    when |coeffs[N]| <= deflation_tol * max|coeffs| (default: an exact
    zero, the g = 0 situation) are trailing coefficients trimmed and
    `reduced` returned True.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("eigenvector is identically zero")
    scale = float(np.max(np.abs(c)))
    reduced = False
    if abs(c[-1]) <= deflation_tol * scale:
        reduced = True
        last = c.size - 1
        while last > 0 and abs(c[last]) <= deflation_tol * scale:
            last -= 1
        c = c[: last + 1]
    if c.size == 1:
        return np.zeros(0, dtype=complex), reduced
    return np.roots(c[::-1]).astype(complex), reduced


def canonicalize_roots(roots, pair_tol: float = 1e-8) -> tuple:
    """Sort roots by (re, im) after snapping conjugate pairs.

    Near-real roots are flattened onto the axis; off-axis roots are paired
    with their closest conjugate partner and symmetrized, so a root set of
    a real-coefficient polynomial serializes deterministically.
    """
    items = [complex(a) for a in roots]
    if not items:
        return ()
    scale = max(1.0, max(abs(a) for a in items))
    tol = pair_tol * scale
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


def energy_from_roots(model: ModelSpec, sector: Sector, roots, imag_tol: float = 1e-8):
    """Closed-form energy of the level with the given root set.

    The coupling-dependent constant is the diagonal energy of the top
    state (level N); the only root dependence is linear in sum(alpha)
    with prefactor A(N-1).  Exact inputs give an exact result; complex
    float roots must have a conjugate-symmetric sum or the imaginary
    leftovers are rejected.
    """
    hop_a, hop_b, _ = hop_coefficients(model, sector)
    n_top = sector.n_top
    roots = tuple(roots)
    if len(roots) > n_top:
        raise ValueError(f"got {len(roots)} roots for a sector with N={n_top}")
    const = hop_b(n_top)
    if not roots:
        return const
    ssum = sum(roots)
    energy = const - hop_a(n_top - 1) * ssum
    if isinstance(energy, complex):
        scale = max(1.0, abs(energy.real))
        if abs(energy.imag) > imag_tol * scale:
            raise ValueError(f"energy has imaginary part {energy.imag:.3e}: invalid root set")
        return float(energy.real)
    return energy


def _coefficients_at_energy(op: DiffOpForm, energy: float) -> np.ndarray:
    """Eigenpolynomial coefficients rebuilt from the three-term recurrence.

    For an eigenvalue E of the monomial block the coefficients satisfy
    C(m+1) c_{m+1} = (E - B(m)) c_m - A(m-1) c_{m-1} with c_0 = 1, which
    is structurally nonzero.  This route survives the exact-zero flushing
    dense eigensolvers apply to negligible vector components; its roundoff
    is repaired by Newton polishing afterwards.
    """
    n = op.n_top
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for m in range(n):
            rhs = (energy - float(op.hop_b(m))) * c[m]
            if m > 0:
                rhs -= float(op.hop_a(m - 1)) * c[m - 1]
            c[m + 1] = rhs / float(op.hop_c(m + 1))
            peak = np.max(np.abs(c[: m + 2]))
            if peak > 1e200:  # only coefficient ratios matter for the roots
                c[: m + 2] /= peak
    return c


def _tridiagonal_lu(mp, lower, diag, upper):
    """Factor a tridiagonal mpmath matrix in O(n); returns `solve(rhs)`.

    `diag[m]` is entry (m, m), `lower[m]` entry (m+1, m) and `upper[m]`
    entry (m, m+1).  The steps are those of mpmath's dense `LU_decomp` /
    `lu_solve` restricted to the band: `prec + 10` bits, scaled partial
    pivoting between rows j and j+1 (the only rows with a nonzero in
    column j), the same operation order, and ZeroDivisionError when a row
    sum or a pivot is at most ||A||_1 * eps.  Every update the dense code
    makes outside the band subtracts an exact zero, so factors and
    solutions match `mp.lu_solve` bit for bit.  Row swaps give U a second
    superdiagonal.  Where the dense code finds no pivot at all (a column
    that is exactly zero on and below the diagonal) and fails with a
    TypeError, this raises ZeroDivisionError.  Factor and solve under the
    same working precision.
    """
    n = len(diag)
    zero = mp.mpf(0)

    def row_sum(row):
        return mp.fsum([abs(x) for x in row])

    with mp.extraprec(10):
        # ||A||_1: column m holds upper[m-1], diag[m], lower[m], in row order
        norm = max(mp.fsum((upper[m - 1] if m else zero, diag[m],
                            lower[m] if m < n - 1 else zero), absolute=True)
                   for m in range(n))
        tol = mp.absmin(norm * mp.eps)
        # row m as entries of columns m-1, m, m+1; rows below the active
        # pair are still unmodified, so their sums are the ones LU_decomp
        # tests at every step
        given = [(lower[m - 1] if m else zero, diag[m], upper[m] if m < n - 1 else zero)
                 for m in range(n)]
        sums = [row_sum(row) for row in given]
        if any(s <= tol for s in sums):
            raise ZeroDivisionError("matrix is numerically singular")
        swaps, mults, rows = [], [], []
        # the active rows j and j+1 as entries of columns j, j+1, j+2
        cur = given[0][1:] + (zero,)
        for j in range(n - 1):
            nxt = given[j + 1]
            s = row_sum(cur)
            if s <= tol:
                raise ZeroDivisionError("matrix is numerically singular")
            w_cur = 1 / s * abs(cur[0])
            w_nxt = 1 / sums[j + 1] * abs(nxt[0])
            swap = w_nxt > w_cur    # ties keep row j, as LU_decomp does
            if swap:
                cur, nxt = nxt, cur
            if abs(cur[0]) <= tol:
                raise ZeroDivisionError("matrix is numerically singular")
            mult = nxt[0] / cur[0]
            swaps.append(swap)
            mults.append(mult)
            rows.append(cur)
            cur = (nxt[1] - mult * cur[1], nxt[2] - mult * cur[2], zero)
        if abs(cur[0]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        rows.append(cur)

    def solve(rhs):
        with mp.extraprec(10):
            # applying each swap just before its elimination step performs
            # the same operations as lu_solve's permute-then-substitute
            y = [mp.convert(x) for x in rhs]
            for j in range(n - 1):
                if swaps[j]:
                    y[j], y[j + 1] = y[j + 1], y[j]
                y[j + 1] -= mults[j] * y[j]
            x = [zero] * n
            for i in range(n - 1, -1, -1):
                u0, u1, u2 = rows[i]
                xi = y[i]
                if i + 1 < n:
                    xi -= u1 * x[i + 1]
                if i + 2 < n:
                    xi -= u2 * x[i + 2]
                x[i] = xi / u0
            return x

    return solve


def _high_precision_coefficients(op: DiffOpForm, energy: float, dps: int | None = None):
    """Eigenpolynomial coefficients by inverse iteration at high precision.

    Working precision is the honest cure for hard levels: the eigenvalue
    is polished on the characteristic-polynomial recurrence of the
    monomial block, then the shifted tridiagonal block is factored once
    (banded LU, O(n)) and that factorization serves two rounds of inverse
    iteration.  These resolve every coefficient -- including components
    far below float64 visibility -- before rescaling back to float64.
    Digits scale with the block size so the coefficient span never eats
    the precision.  Returns (coefficients, polished energy).
    """
    import mpmath as mp

    def to_mp(x):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(float(x))

    n = op.n_top
    if dps is None:
        dps = max(50, 30 + 4 * n)
    with mp.workdps(dps):
        hop_a = [to_mp(op.hop_a(m)) for m in range(max(n - 1, 0) + 1)]
        hop_b = [to_mp(op.hop_b(m)) for m in range(n + 1)]
        hop_c = [to_mp(op.hop_c(m)) for m in range(1, n + 1)]
        e_val = mp.mpf(energy)
        e_scale = max(mp.mpf(1), abs(e_val))
        for _ in range(80):
            # det(M - E) and its E-derivative via the minor recurrence
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
        # inverse iteration on the shifted block; the shift is offset by a
        # sub-working-precision amount so the solve stays nonsingular
        shift = e_val + mp.mpf(10) ** (-(dps * 2) // 3) * e_scale
        solve = _tridiagonal_lu(mp, hop_a[:n], [b - shift for b in hop_b], hop_c)
        vec = [mp.mpf(1)] * (n + 1)
        for _ in range(2):
            vec = solve(vec)
            peak = max(abs(x) for x in vec)
            vec = [x / peak for x in vec]
        out = np.array([float(x) for x in vec])
    return out, float(e_val)


# ----------------------------------------------------------------------
# Newton refinement on the robust residuals

def _newton_refine(p_list, roots: np.ndarray, cfg: SolverConfig):
    """Polish a distinct root set until the scaled robust residual <= tol."""
    roots = np.array(roots, dtype=complex)
    n = roots.size
    if n == 0:
        return roots, True, 0
    best = _scaled_robust(p_list, roots)
    if best <= cfg.tol:
        return roots, True, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _newton_loop(p_list, roots, best, cfg)


def _newton_loop(p_list, roots, best, cfg):
    n = roots.size
    for it in range(1, cfg.max_iter + 1):
        psi = _monic_from_roots(roots)
        hpsi = _apply_float(p_list, psi)
        f = npoly.polyval(roots, hpsi)
        dh = npoly.polyder(hpsi)
        jac = np.zeros((n, n), dtype=complex)
        for q in range(n):
            hq = _apply_float(p_list, _deflate(psi, roots[q]))
            jac[:, q] = -npoly.polyval(roots, hq)
        jac[np.diag_indices(n)] += npoly.polyval(roots, dh)
        # equilibrate rows: residual magnitudes span the coefficient growth
        # of H psi across well-separated root scales, and an unscaled solve
        # would ignore the small-root rows entirely
        row_scale = np.maximum(np.max(np.abs(jac), axis=1), np.abs(f))
        row_scale = np.maximum(row_scale, 1e-300)
        try:
            step = np.linalg.solve(jac / row_scale[:, None], -f / row_scale)
        except np.linalg.LinAlgError:
            return roots, False, it
        factor = 1.0
        for _ in range(10):
            trial = roots + factor * step
            resid = _scaled_robust(p_list, trial)
            if resid < best:
                roots, best = trial, resid
                break
            factor *= cfg.damping
        else:
            return roots, best <= cfg.tol, it
        if best <= cfg.tol:
            return roots, True, it
    return roots, False, cfg.max_iter


def _closed_form_energy(model, sector, roots, cfg) -> float:
    try:
        return float(energy_from_roots(model, sector, tuple(roots),
                                       imag_tol=math.sqrt(cfg.energy_tol)))
    except ValueError:
        return math.nan


def _solve_level(model, sector, op, p_list, level, vector, oracle, cfg):
    """Root pipeline for one eigenlevel.

    Candidate full-degree starting root sets are tried in order of
    increasing cost -- eigenvector extraction, the float64 coefficient
    recurrence, and high-precision inverse iteration (one banded LU of the
    shifted block, reused for both solves) -- each polished by damped
    Newton on the robust residuals.  A candidate is accepted when
    the scaled residual meets `cfg.tol` and the closed-form energy agrees
    with the oracle eigenvalue to `cfg.energy_tol`.

    An eigenvector whose leading coefficient is exactly zero usually means
    the eigensolver flushed a negligible component (exact reduction cannot
    happen for a nonzero interaction), so the recurrence candidates still
    run at full degree; the trimmed reduced-degree interpretation is kept
    only when every full-degree attempt fails, with the energy then taken
    from the oracle and validated through the robust form alone.
    """
    n_full = sector.n_top
    if n_full == 0:
        return BetheSolution(
            level=level, roots=(), energy=_closed_form_energy(model, sector, (), cfg),
            oracle_energy=oracle, residual_bae=0.0, residual_robust=0.0,
            source="extracted", degenerate=False, reduced=False, converged=True)
    v_roots, v_reduced = roots_from_eigenvector(vector, cfg.deflation_tol)
    if v_roots.size and not np.all(np.isfinite(v_roots)):
        # leading coefficient at underflow scale: retreat to the trimmed set
        v_roots, v_reduced = roots_from_eigenvector(vector, max(cfg.deflation_tol, 1e-12))

    def candidates():
        if not v_reduced:
            yield "extracted", v_roots
        for build in (lambda: _coefficients_at_energy(op, oracle),
                      lambda: _high_precision_coefficients(op, oracle)[0]):
            try:
                coeffs = build()
            except ZeroDivisionError:   # vanishing interaction: no recurrence
                return
            if np.all(np.isfinite(coeffs)) and abs(coeffs[-1]) > 0:
                yield "refined", np.roots(coeffs[::-1])

    best = None
    scale = max(1.0, abs(oracle))
    for tag, start in candidates():
        if start.size != n_full or not np.all(np.isfinite(start)):
            continue
        if _is_degenerate(start, cfg.degenerate_tol):
            refined, iterations = start, 0
        else:
            refined, _, iterations = _newton_refine(p_list, start, cfg)
        resid = _scaled_robust(p_list, refined)
        energy = _closed_form_energy(model, sector, refined, cfg)
        ok = (resid <= cfg.tol
              and math.isfinite(energy)
              and abs(energy - oracle) <= cfg.energy_tol * scale)
        attempt = (ok, resid, refined, tag if iterations == 0 else "refined", energy)
        if best is None or (attempt[0], -attempt[1]) > (best[0], -best[1]):
            best = attempt
        if ok:
            break

    if best is not None and (best[0] or not v_reduced):
        converged, r_robust, roots, source, energy = best
        roots = np.asarray(roots)
        reduced = False
        if not math.isfinite(energy):
            energy, converged = oracle, False
    else:
        # reduced-degree fallback: trimmed roots, oracle energy
        roots = np.asarray(v_roots)
        reduced = True
        source = "extracted"
        r_robust = _scaled_robust(p_list, roots)
        energy = oracle
        converged = r_robust <= cfg.tol

    degenerate = _is_degenerate(roots, cfg.degenerate_tol)
    r_bae = math.nan if (degenerate or reduced) else _scaled_bae(op, roots)
    return BetheSolution(
        level=level, roots=canonicalize_roots(roots), energy=energy, oracle_energy=oracle,
        residual_bae=r_bae, residual_robust=r_robust, source=source,
        degenerate=degenerate, reduced=reduced, converged=converged)


def _is_degenerate(roots: np.ndarray, tol: float) -> bool:
    n = roots.size
    if n < 2:
        return False
    scale = max(1.0, float(np.max(np.abs(roots))))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < tol * scale:
                return True
    return False


def _scaled_bae(op: DiffOpForm, roots: np.ndarray) -> float:
    """Scaled magnitude of the pole-residue components (NaN if unusable)."""
    try:
        res = bethe_residuals(op, roots)
    except ValueError:
        return math.nan
    if res.size == 0:
        return 0.0
    p_list = _float_polys(op)
    psi = _monic_from_roots(roots)
    dpsi = npoly.polyder(psi)
    scale = np.zeros(roots.size)
    for i in range(1, op.order + 1):
        if p_list[i].size == 0:
            continue
        pv, pm = _scaled_values(p_list[i], roots)
        dv, dm = _scaled_values(npoly.polyder(psi, m=i), roots)
        scale += pm * dm
    dvals = np.abs(npoly.polyval(roots, dpsi))
    return float(np.max(np.abs(res) / np.maximum(scale / np.maximum(dvals, 1e-300), 1.0)))


def solve_bethe(model: ModelSpec, sector: Sector, config: SolverConfig | None = None):
    """Solve for all N+1 levels of a sector through the root pipeline.

    Pipeline: diagonalize the monomial block, pull the roots of each
    eigenpolynomial from its coefficient vector, Newton-refine on the
    robust residuals, evaluate the pole-residue residuals where the roots
    are distinct, and recompute the energy from the closed form.  Levels
    whose eigenpolynomial has near-multiple roots are flagged degenerate
    and validated only through the robust form.  With ``config.direct``
    the independent multi-start search runs as well and its solutions are
    appended (tagged 'direct').
    """
    cfg = config or SolverConfig()
    block = build_monomial_matrix(model, sector)
    spec = diagonalize(block)
    op = expand_diffop(model, sector)
    p_list = _float_polys(op)

    solutions = []
    for level in range(sector.dim):
        oracle = float(spec.energies[level])
        solutions.append(_solve_level(model, sector, op, p_list, level,
                                      spec.vectors[:, level], oracle, cfg))

    if cfg.direct:
        solutions.extend(direct_search(model, sector, cfg))
    return solutions


def direct_search(model: ModelSpec, sector: Sector, config: SolverConfig | None = None):
    """Multi-start Newton on the pole-residue equations, no oracle input.

    Draws random root sets, iterates Newton with a forward-difference
    Jacobian of the pole-residue components, keeps converged distinct
    solutions, and deduplicates by canonical ordering.  The result is a
    subset of the spectrum; completeness is not guaranteed.
    """
    cfg = config or SolverConfig()
    op = expand_diffop(model, sector)
    p_list = _float_polys(op)
    n = sector.n_top
    if n == 0:
        return [BetheSolution(level=0, roots=(), energy=float(energy_from_roots(model, sector, ())),
                              oracle_energy=math.nan, residual_bae=0.0, residual_robust=0.0,
                              source="direct", degenerate=False, reduced=False, converged=True)]
    rng = np.random.default_rng(cfg.seed)
    found = []
    for _ in range(cfg.starts):
        roots = cfg.start_radius * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ok = False
        for _ in range(cfg.max_iter):
            try:
                f = bethe_residuals(op, roots)
            except ValueError:
                break
            if np.max(np.abs(f)) < 1e-30:
                ok = True
                break
            h = 1e-7 * max(1.0, float(np.max(np.abs(roots))))
            jac = np.zeros((n, n), dtype=complex)
            for q in range(n):
                shifted = roots.copy()
                shifted[q] += h
                try:
                    jac[:, q] = (bethe_residuals(op, shifted) - f) / h
                except ValueError:
                    jac[:, q] = np.inf
            if not np.all(np.isfinite(jac)):
                break
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            roots = roots + step
            if np.max(np.abs(step)) < 1e-13 * max(1.0, float(np.max(np.abs(roots)))):
                ok = True
                break
        if not ok:
            continue
        if _scaled_robust(p_list, roots) > max(cfg.tol, 1e-10):
            continue
        canon = canonicalize_roots(roots)
        scale = max(1.0, max(abs(a) for a in canon))
        if any(max(abs(x - y) for x, y in zip(canon, prev.roots)) < cfg.dedup_tol * scale
               for prev in found if len(prev.roots) == len(canon)):
            continue
        found.append(BetheSolution(
            level=-1, roots=canon,
            energy=float(energy_from_roots(model, sector, canon)),
            oracle_energy=math.nan, residual_bae=_scaled_bae(op, np.asarray(canon)),
            residual_robust=_scaled_robust(p_list, np.asarray(canon)),
            source="direct", degenerate=False, reduced=False, converged=True))
    found.sort(key=lambda sol: sol.energy)
    return found


def cross_validate(model: ModelSpec, sector: Sector, tol: float = 1e-8,
                   residual_tol: float = 1e-10,
                   config: SolverConfig | None = None) -> ValidationReport:
    """Three-way check: Fock spectrum, monomial spectrum, root energies.

    Never raises on disagreement; the report carries per-level records and
    an overall pass flag.  Energy errors are measured relative to the
    spectral scale max(1, max |E|).
    """
    cfg = config or SolverConfig()
    fock_spec = diagonalize(build_sector_matrix(model, sector))
    mono_spec = diagonalize(build_monomial_matrix(model, sector))
    solutions = [sol for sol in solve_bethe(model, sector, cfg) if sol.source != "direct"]

    scale = max(1.0, float(np.max(np.abs(fock_spec.energies))))
    records = []
    worst = 0.0
    for level in range(sector.dim):
        e_f = float(fock_spec.energies[level])
        e_m = float(mono_spec.energies[level])
        sol = solutions[level]
        e_b = sol.energy
        err = max(abs(e_f - e_m), abs(e_f - e_b), abs(e_m - e_b)) / scale
        worst = max(worst, err) if math.isfinite(err) else math.inf
        ok = (math.isfinite(err) and err <= tol
              and sol.residual_robust <= residual_tol)
        records.append(LevelRecord(
            level=level, energy_fock=e_f, energy_monomial=e_m, energy_bethe=e_b,
            energy_error=err, residual_robust=sol.residual_robust,
            residual_bae=sol.residual_bae, n_roots=len(sol.roots),
            degenerate=sol.degenerate, ok=ok))
    passed = all(rec.ok for rec in records)
    return ValidationReport(dim=sector.dim, base_occupations=sector.base_occupations,
                            levels=tuple(records), max_energy_error=worst, passed=passed,
                            solutions=tuple(solutions))

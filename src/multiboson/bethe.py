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

The production solve path takes each level's roots from the companion
matrix of an eigenpolynomial, down a ladder of three rungs: first the
monomial-basis eigenvector, then the coefficients rebuilt from the
three-term recurrence in float64, then the same recurrence at high working
precision in the standard library's `decimal`.  Each recurrence rung
judges all of a sector's still unresolved levels at once, as one stack of
root sets, and the pole-residue residuals of the kept sets are one stack
too.  Each candidate is judged once, and a level's first root set that
passes as-is is accepted.  When none does, the level is reported
unconverged and keeps the attempt whose closed-form energy agrees with the
oracle eigenvalue, the smaller residual breaking ties.  Each sector's
block, spectrum, operator and hop values (as floats and at working
precision) are built once, and one derivative list psi, psi', ... per
stack feeds both residual forms.  An independent multi-start Newton
search on the pole-residue equations, run on the same operator, is
available as a confirmation mode.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .diffop import DiffOpForm, expand_diffop, hop_coefficients
from .fock import ModelSpec, Sector
from .hamiltonian import build_monomial_matrix, build_sector_matrix, diagonalize


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the Bethe solver.

    `tol` bounds the scaled robust residual of an accepted root set;
    `energy_tol` the relative disagreement tolerated against the oracle
    eigenvalue.  `seed` feeds the multi-start generator of the direct
    mode, which draws `starts` initial root sets and runs at most
    `max_iter` Newton steps from each.
    """

    tol: float = 1e-12
    max_iter: int = 50
    seed: int = 0
    direct: bool = False
    starts: int = 64
    energy_tol: float = 1e-8


# Relative separation below which a root set counts as degenerate.
_DEGENERATE_TOL = 1e-6
# Scale of the random starting root sets of the direct search.
_START_RADIUS = 3.0
# Relative distance below which two direct-search solutions are one.
_DEDUP_TOL = 1e-7
# Relative root separation the pole-residue form needs.
_MIN_SEPARATION = 1e-10


@dataclass(frozen=True)
class BetheSolution:
    """One eigenlevel: canonical roots, energy, and residual diagnostics.

    `residual_bae` is NaN when the pole-residue form was not evaluated
    (degenerate or reduced root sets).  `source` tags how the roots were
    obtained: 'extracted' (roots of the eigenvector's coefficients),
    'refined' (roots of a recurrence-built eigenpolynomial), or 'direct'
    (independent multi-start search).
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
# residual kernels on stacks of root sets
#
# Every kernel takes an (L, N) stack of root sets, one per row, with the
# derivative list of their monic polynomials as (L, K) coefficient rows;
# a single root set is a stack of one.  The kernels let overflow read as
# inf and undefined values as NaN: their callers run them under `_quiet`.

def _quiet(func):
    """Run `func` with numpy's overflow, invalid and divide warnings off."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return func(*args, **kwargs)
    return wrapper


def _monic_from_roots(roots) -> np.ndarray:
    """Coefficients of prod_p (z - a_p), one row per root set: (L, N) ->
    (L, N + 1), or (N,) -> (N + 1,) for a single set."""
    roots = np.asarray(roots, dtype=complex)
    rows = np.atleast_2d(roots)
    out = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=complex)
    for row, root_set in zip(out, rows):
        c = np.array([1.0 + 0.0j])
        for a in root_set:
            c = np.convolve(c, np.array([-a, 1.0 + 0.0j]))
        row[:] = c
    return out if roots.ndim == 2 else out[0]


def _float_polys(op: DiffOpForm):
    return [np.asarray([complex(c) for c in p.coeffs], dtype=complex) for p in op.p]


def _derivatives(roots: np.ndarray, order: int) -> list:
    """[psi, psi', ..., psi^(order)] of each root set's monic psi, as (L, K)
    rows: one list feeds H psi, its magnitude bound and the pole-residue
    components of the stack."""
    derivs = [_monic_from_roots(roots)]
    for _ in range(order):
        derivs.append(npoly.polyder(derivs[-1], axis=-1))
    return derivs


def _at(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Polynomial values at an (L, N) array of points: one shared
    coefficient vector, or one (L, K) row of coefficients per row of points
    in a single Horner sweep."""
    if coeffs.ndim == 1:
        return npoly.polyval(points, coeffs)
    return npoly.polyval(points, coeffs.T[:, :, None], tensor=False)


def _apply_float(p_list, derivs) -> np.ndarray:
    """Coefficient rows of sum_i P_i psi^(i), from each row's derivative list.

    On magnitudes it bounds the terms entering H psi: the residual scale,
    which must not come from the (possibly perfectly cancelled) result --
    an eigenvalue at zero makes H psi the zero polynomial.  The products
    stay one `np.convolve` per row.
    """
    out = np.zeros((derivs[0].shape[0], 1), dtype=derivs[0].dtype)
    for p, deriv in zip(p_list, derivs):
        if p.size == 0:
            continue
        term = np.array([np.convolve(p, row) for row in deriv])
        if term.shape[1] > out.shape[1]:
            term[:, : out.shape[1]] += out
            out = term
        else:
            out[:, : term.shape[1]] += term
    return out


def _magnitudes(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Magnitude scale of the polynomials' terms at `points`."""
    return np.maximum(_at(np.abs(coeffs), np.abs(points)), 1e-300)


def _has_close_pair(roots: np.ndarray, rel_tol: float) -> bool:
    """Whether two roots lie within rel_tol * max(1, max|root|).

    A NaN gap never counts as close and hides no other pair.
    """
    n = roots.size
    if n < 2:
        return False
    scale = max(1.0, float(np.max(np.abs(roots))))
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(np.any(gaps < rel_tol * scale))


def _scaled_robust(p_list, roots: np.ndarray, derivs) -> np.ndarray:
    """Backward-error style residual per root set: max |H psi(a_p)| over
    the magnitude bound of the terms that built H psi at that point.

    Overflow in intermediate evaluations (roots far off the scale of a
    badly conditioned eigenpolynomial) reads as inf and fails acceptance.
    """
    if roots.shape[1] == 0:
        return np.zeros(roots.shape[0])
    vals = _at(_apply_float(p_list, derivs), roots)
    bound = _apply_float([np.abs(p) for p in p_list], [np.abs(d) for d in derivs])
    out = np.max(np.abs(vals) / np.maximum(_at(bound, np.abs(roots)), 1e-300), axis=1)
    out[~np.isfinite(out)] = math.inf
    return out


def _pole_residues(p_list, roots: np.ndarray, derivs) -> np.ndarray:
    """sum_{i>=1} P_i(a_p) psi^(i)(a_p) / psi'(a_p), one component per root."""
    res = np.zeros(roots.shape, dtype=complex)
    for p, deriv in zip(p_list[1:], derivs[1:]):
        if p.size:
            res += _at(p, roots) * _at(deriv, roots)
    return res / _at(derivs[1], roots)


def _scaled_bae(p_list, roots: np.ndarray, derivs) -> np.ndarray:
    """Scaled magnitude of the pole-residue components per root set.

    Meaningful only for pairwise-separated roots (`_MIN_SEPARATION`): the
    caller checks that first.
    """
    res = _pole_residues(p_list, roots, derivs)
    scale = np.zeros(roots.shape)
    for p, deriv in zip(p_list[1:], derivs[1:]):
        if p.size:
            scale += _magnitudes(p, roots) * _magnitudes(deriv, roots)
    dvals = np.abs(_at(derivs[1], roots))
    return np.max(np.abs(res) / np.maximum(scale / np.maximum(dvals, 1e-300), 1.0), axis=1)


# ----------------------------------------------------------------------
# residual forms

@_quiet
def bethe_residuals(op: DiffOpForm, roots,
                    min_separation: float = _MIN_SEPARATION) -> np.ndarray:
    """Pole-residue components, one per root, via derivatives of psi.

    Component p is  sum_{i=1..M} P_i(a_p) psi^(i)(a_p) / psi'(a_p), which
    equals the nested subset sum over the other roots; all components
    vanish exactly when every a_p is a removable singularity of
    (H psi)/psi.  Requires pairwise separations above `min_separation`
    relative to the root scale.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    if _has_close_pair(roots, min_separation):
        raise ValueError("coincident roots: use the robust residual form")
    stack = roots[None]
    return _pole_residues(_float_polys(op), stack, _derivatives(stack, op.order))[0]


@_quiet
def robust_residuals(op: DiffOpForm, roots) -> np.ndarray:
    """(H psi)(a_p) for the monic psi built from the roots.

    Vanishing of all components, together with the automatic degree bound
    deg(H psi) <= N, is equivalent to psi being an eigenfunction: a
    ratio (H psi)/psi with no poles and no growth at infinity is constant.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    stack = roots[None]
    return _at(_apply_float(_float_polys(op), _derivatives(stack, op.order)), stack)[0]


# ----------------------------------------------------------------------
# root extraction and bookkeeping

def roots_from_eigenvector(coeffs, deflation_tol: float = 0.0):
    """Roots of the eigenpolynomial sum_n coeffs[n] z^n.

    Uses companion-matrix eigenvalues (balanced internally), which stay
    accurate enough to pass as-is even when the leading coefficient sits
    twenty orders of magnitude below the largest one -- strongly localized
    levels genuinely look like that in the monomial basis.  Only when
    |coeffs[N]| <= deflation_tol * max|coeffs| (default: an exact zero,
    the g = 0 situation) are trailing coefficients trimmed and `reduced`
    returned True.
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
    return _energy(hop_a, hop_b, sector.n_top, roots, imag_tol)


def _energy(hop_a, hop_b, n_top: int, roots, imag_tol: float):
    """E = B(N) - A(N-1) * sum(alpha) from the sector's hop polynomials."""
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


class _HopTerms:
    """One sector's hop values A(0..N-1), B(0..N), C(1..N), evaluated once.

    Both forms are built on first use, so a sector whose levels all pass
    on extraction pays for neither: `floats` feeds the float64 recurrence,
    `working` the high-precision route.
    """

    def __init__(self, op: DiffOpForm):
        self.op = op
        self.n_top = op.n_top

    @functools.cached_property
    def _values(self):
        op, n = self.op, self.n_top
        return ([op.hop_a(m) for m in range(n)], [op.hop_b(m) for m in range(n + 1)],
                [op.hop_c(m) for m in range(1, n + 1)])

    @functools.cached_property
    def floats(self):
        """The hop values as floats."""
        return tuple([float(x) for x in values] for values in self._values)

    @functools.cached_property
    def working(self):
        """(context, A, B, C, A(m-1)C(m)) at the route's working precision.

        Digits scale with the block size so the coefficient span never
        eats the precision; the exponent range is unbounded, like
        arbitrary-precision binary floats.  Fractions are divided at
        working precision, every other value enters through float.
        """
        context = decimal.Context(prec=max(50, 30 + 4 * self.n_top),
                                  Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

        def convert(x):
            if isinstance(x, Fraction):
                return decimal.Decimal(x.numerator) / x.denominator
            return decimal.Decimal(float(x))

        with decimal.localcontext(context):
            hop_a, hop_b, hop_c = ([convert(x) for x in values] for values in self._values)
            off = [a * c for a, c in zip(hop_a, hop_c)]
        return context, hop_a, hop_b, hop_c, off


def _coefficients_at_energy(terms: _HopTerms, energy: float) -> np.ndarray:
    """Eigenpolynomial coefficients rebuilt from the three-term recurrence.

    For an eigenvalue E of the monomial block the coefficients satisfy
    C(m+1) c_{m+1} = (E - B(m)) c_m - A(m-1) c_{m-1} with c_0 = 1, which
    is structurally nonzero.  This route survives the exact-zero flushing
    dense eigensolvers apply to negligible vector components.  Its float64
    roundoff can be too large for the roots to pass as-is; then the
    high-precision recurrence is the next candidate.
    """
    hop_a, hop_b, hop_c = terms.floats
    n = terms.n_top
    c = np.zeros(n + 1, dtype=complex)
    c[0] = 1.0
    for m in range(n):
        rhs = (energy - hop_b[m]) * c[m]
        if m > 0:
            rhs -= hop_a[m - 1] * c[m - 1]
        c[m + 1] = rhs / hop_c[m]
        peak = np.max(np.abs(c[: m + 2]))
        if peak > 1e200:  # only coefficient ratios matter for the roots
            c[: m + 2] /= peak
    return c


def _high_precision_coefficients(terms: _HopTerms, energy: float) -> np.ndarray:
    """Eigenpolynomial coefficients from the recurrence at high precision.

    Working precision is the honest cure for hard levels: the eigenvalue
    is polished on the characteristic-polynomial recurrence of the
    monomial block, then the coefficients follow from the same three-term
    recurrence as `_coefficients_at_energy`, run at the working precision.
    That resolves every coefficient -- including components far below
    float64 visibility -- before the peak-normalized vector is rounded
    back to float64.  The arithmetic is the standard library's `decimal`
    on the sector's hop values, converted once per sector (see
    `_HopTerms.working`).  A vanishing C(m) raises ZeroDivisionError: the
    interaction is off and there is no recurrence.
    """
    context, hop_a, hop_b, hop_c, off = terms.working
    if not all(hop_c):   # decimal signals 0/0 as InvalidOperation: test first
        raise ZeroDivisionError("C(m) vanishes: no recurrence")
    n = terms.n_top
    with decimal.localcontext(context):
        one = decimal.Decimal(1)
        e_val = decimal.Decimal(energy)
        stop = decimal.Decimal(10) ** (8 - context.prec) * max(one, abs(e_val))
        for _ in range(80):
            # det(M - E) and its E-derivative via the minor recurrence
            p_prev, p_cur = one, hop_b[0] - e_val
            d_prev, d_cur = decimal.Decimal(0), -one
            for m in range(1, n + 1):
                diag = hop_b[m] - e_val
                p_new = diag * p_cur - off[m - 1] * p_prev
                d_new = -p_cur + diag * d_cur - off[m - 1] * d_prev
                p_prev, p_cur, d_prev, d_cur = p_cur, p_new, d_cur, d_new
            if d_cur == 0:
                break
            step = p_cur / d_cur
            e_val -= step
            if abs(step) <= stop:
                break
        vec = [one]
        for m in range(n):
            rhs = (e_val - hop_b[m]) * vec[m]
            if m > 0:
                rhs -= hop_a[m - 1] * vec[m - 1]
            vec.append(rhs / hop_c[m])
        peak = max(abs(x) for x in vec)
        return np.array([float(x / peak) for x in vec])


def _closed_form_energy(op: DiffOpForm, roots, cfg) -> float:
    try:
        return float(_energy(op.hop_a, op.hop_b, op.n_top, roots,
                             imag_tol=math.sqrt(cfg.energy_tol)))
    except ValueError:
        return math.nan


@_quiet
def _solve_levels(op, p_list, vectors, oracles, cfg):
    """Root pipeline for all levels of a sector, in one pass down the ladder.

    Candidate full-degree root sets come in rungs of increasing cost --
    eigenvector extraction, the float64 coefficient recurrence, and the
    same recurrence at high working precision.  Extracted root sets are
    judged level by level; at each recurrence rung the levels still
    unresolved are judged together, as one stack.  Each root set is judged
    once, as-is: the first whose scaled residual meets `cfg.tol` and whose
    closed-form energy agrees with the oracle eigenvalue to
    `cfg.energy_tol` is accepted, and later candidates of that level are
    never built.  When none passes, the level is unconverged and keeps the
    attempt whose energy agrees, the smaller residual breaking ties: the
    energy depends on the roots only through their sum, so an agreeing
    candidate carries the right physics even when its roots are too coarse
    for the residual.

    An eigenvector whose leading coefficient is exactly zero usually means
    the eigensolver flushed a negligible component (exact reduction cannot
    happen for a nonzero interaction), so the recurrence candidates still
    run at full degree; the trimmed reduced-degree interpretation is kept
    only when every full-degree attempt fails, with the energy then taken
    from the oracle and validated through the robust form alone.
    """
    n_full = op.n_top
    if n_full == 0:
        return [BetheSolution(
            level=level, roots=(), energy=_closed_form_energy(op, (), cfg),
            oracle_energy=oracle, residual_bae=0.0, residual_robust=0.0,
            source="extracted", degenerate=False, reduced=False, converged=True)
            for level, oracle in enumerate(oracles)]
    terms = _HopTerms(op)
    extracted = []
    for vector in vectors.T:
        v_roots, v_reduced = roots_from_eigenvector(vector)
        if v_roots.size and not np.all(np.isfinite(v_roots)):
            # leading coefficient at underflow scale: retreat to the trimmed set
            v_roots, v_reduced = roots_from_eigenvector(vector, 1e-12)
        extracted.append((v_roots, v_reduced))

    # per level: (rank, resid, roots, tag, energy, derivs) of the best
    # attempt; the rank puts a pass first, then an agreeing energy, then
    # the smaller residual
    best = [None] * len(oracles)

    def judge(tag, candidates):
        rows = [(level, roots) for level, roots in candidates
                if roots.size == n_full and np.all(np.isfinite(roots))]
        if not rows:
            return
        stack = np.array([roots for _, roots in rows], dtype=complex)
        derivs = _derivatives(stack, op.order)
        resids = _scaled_robust(p_list, stack, derivs).tolist()
        for row, ((level, roots), resid) in enumerate(zip(rows, resids)):
            oracle = oracles[level]
            energy = _closed_form_energy(op, roots, cfg)
            agrees = (math.isfinite(energy)
                      and abs(energy - oracle) <= cfg.energy_tol * max(1.0, abs(oracle)))
            rank = (resid <= cfg.tol and agrees, agrees, -resid)
            if best[level] is None or rank > best[level][0]:
                best[level] = (rank, resid, roots, tag, energy, [d[row] for d in derivs])

    def unresolved(levels):
        return [level for level in levels if best[level] is None or not best[level][0][0]]

    # The extraction rung judges each level as a stack of one.  Stacking it
    # too is faster still, but the benchmark keeps every solution a run
    # returns, so its peak RSS grows with throughput and then passes its
    # 10% bound on `small_sectors` (ROADMAP item 3).
    for level, (v_roots, v_reduced) in enumerate(extracted):
        if not v_reduced:
            judge("extracted", [(level, v_roots)])
    live = unresolved(range(len(oracles)))
    for build in (_coefficients_at_energy, _high_precision_coefficients):
        rung, live, candidates = live, [], []
        for level in rung:
            try:
                coeffs = build(terms, oracles[level])
            except ZeroDivisionError:   # vanishing interaction: no recurrence
                continue
            live.append(level)
            if np.all(np.isfinite(coeffs)) and abs(coeffs[-1]) > 0:
                candidates.append((level, np.roots(coeffs[::-1])))
        judge("refined", candidates)
        live = unresolved(live)

    solutions, separated = [], []
    for level, ((v_roots, v_reduced), attempt, oracle) in enumerate(
            zip(extracted, best, oracles)):
        if attempt is not None and (attempt[0][0] or not v_reduced):
            (converged, _, _), r_robust, roots, source, energy, derivs = attempt
            reduced = False
            if not math.isfinite(energy):
                energy, converged = oracle, False
        else:
            # reduced-degree fallback: trimmed roots, oracle energy
            roots, reduced, source, energy = v_roots, True, "extracted", oracle
            stack = v_roots[None]
            r_robust = float(_scaled_robust(p_list, stack, _derivatives(stack, op.order))[0])
            converged = r_robust <= cfg.tol
        degenerate = _has_close_pair(roots, _DEGENERATE_TOL)
        if not (degenerate or reduced):
            separated.append((level, roots, derivs))
        solutions.append(BetheSolution(
            level=level, roots=canonicalize_roots(roots), energy=energy, oracle_energy=oracle,
            residual_bae=math.nan, residual_robust=r_robust, source=source,
            degenerate=degenerate, reduced=reduced, converged=converged))
    if separated:
        # pairwise separated at _DEGENERATE_TOL, so the pole-residue form applies
        stack = np.array([roots for _, roots, _ in separated], dtype=complex)
        derivs = [np.array(rows) for rows in zip(*(d for _, _, d in separated))]
        for (level, _, _), r_bae in zip(separated, _scaled_bae(p_list, stack, derivs).tolist()):
            solutions[level] = replace(solutions[level], residual_bae=r_bae)
    return solutions


def solve_bethe(model: ModelSpec, sector: Sector, config: SolverConfig | None = None):
    """Solve for all N+1 levels of a sector through the root pipeline.

    Pipeline: diagonalize the monomial block, take the roots of each
    level's eigenpolynomial from the first candidate that passes as-is
    (the attempt whose energy agrees when none does), evaluate the
    pole-residue residuals where the roots are distinct, and recompute the
    energy from the closed form.  Each recurrence rung of the candidate
    ladder judges all of the sector's unresolved levels at once, as one
    stack of root sets, and the pole-residue residuals of the kept sets
    are evaluated as one stack.  Levels whose eigenpolynomial has
    near-multiple roots are flagged degenerate and validated only through
    the robust form.
    With ``config.direct`` the independent multi-start search runs as well,
    on the same operator, and its solutions are appended (tagged 'direct').
    """
    cfg = config or SolverConfig()
    spec = diagonalize(build_monomial_matrix(model, sector))
    op = expand_diffop(model, sector)
    p_list = _float_polys(op)
    solutions = _solve_levels(op, p_list, spec.vectors,
                              [float(e) for e in spec.energies], cfg)
    if cfg.direct:
        solutions.extend(_direct_search(op, p_list, cfg))
    return solutions


def direct_search(model: ModelSpec, sector: Sector, config: SolverConfig | None = None):
    """Multi-start Newton on the pole-residue equations, no oracle input.

    Draws random root sets, iterates Newton with a forward-difference
    Jacobian of the pole-residue components, keeps converged distinct
    solutions, and deduplicates by canonical ordering.  The result is a
    subset of the spectrum; completeness is not guaranteed.
    """
    op = expand_diffop(model, sector)
    return _direct_search(op, _float_polys(op), config or SolverConfig())


@_quiet
def _direct_search(op: DiffOpForm, p_list, cfg: SolverConfig):
    """`direct_search` on a built operator and its float form."""

    def energy(roots):
        return float(_energy(op.hop_a, op.hop_b, op.n_top, roots, imag_tol=1e-8))

    n = op.n_top
    if n == 0:
        return [BetheSolution(level=0, roots=(), energy=energy(()),
                              oracle_energy=math.nan, residual_bae=0.0, residual_robust=0.0,
                              source="direct", degenerate=False, reduced=False, converged=True)]

    def residues(roots):
        """Pole-residue components, or None for coincident roots."""
        if _has_close_pair(roots, _MIN_SEPARATION):
            return None
        stack = roots[None]
        return _pole_residues(p_list, stack, _derivatives(stack, op.order))[0]

    rng = np.random.default_rng(cfg.seed)
    found = []
    for _ in range(cfg.starts):
        roots = _START_RADIUS * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        ok = False
        for _ in range(cfg.max_iter):
            f = residues(roots)
            if f is None:
                break
            if np.max(np.abs(f)) < 1e-30:
                ok = True
                break
            h = 1e-7 * max(1.0, float(np.max(np.abs(roots))))
            jac = np.zeros((n, n), dtype=complex)
            for q in range(n):
                shifted = roots.copy()
                shifted[q] += h
                column = residues(shifted)
                jac[:, q] = np.inf if column is None else (column - f) / h
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
        stack = roots[None]
        if _scaled_robust(p_list, stack, _derivatives(stack, op.order))[0] > max(cfg.tol, 1e-10):
            continue
        canon = canonicalize_roots(roots)
        scale = max(1.0, max(abs(a) for a in canon))
        if any(max(abs(x - y) for x, y in zip(canon, prev.roots)) < _DEDUP_TOL * scale
               for prev in found if len(prev.roots) == len(canon)):
            continue
        stack = np.asarray(canon)[None]
        derivs = _derivatives(stack, op.order)
        # snapping conjugate pairs onto the axis can make two roots coincide
        r_bae = (math.nan if _has_close_pair(stack[0], _MIN_SEPARATION)
                 else float(_scaled_bae(p_list, stack, derivs)[0]))
        found.append(BetheSolution(
            level=-1, roots=canon,
            energy=energy(canon),
            oracle_energy=math.nan, residual_bae=r_bae,
            residual_robust=float(_scaled_robust(p_list, stack, derivs)[0]),
            source="direct", degenerate=False, reduced=False, converged=True))
    found.sort(key=lambda sol: sol.energy)
    return found


def cross_validate(model: ModelSpec, sector: Sector, tol: float = 1e-8,
                   residual_tol: float = 1e-10,
                   config: SolverConfig | None = None) -> ValidationReport:
    """Three-way check: Fock spectrum, monomial spectrum, root energies.

    One `solve_bethe` pass, with ``config.direct`` off, gives the level
    solutions and, as their oracle energies, the monomial spectrum.  Never
    raises on disagreement; the report carries per-level records and an
    overall pass flag.  Energy errors are measured relative to the
    spectral scale max(1, max |E|).
    """
    cfg = config or SolverConfig()
    fock_spec = diagonalize(build_sector_matrix(model, sector))
    solutions = solve_bethe(model, sector, replace(cfg, direct=False))

    scale = max(1.0, float(np.max(np.abs(fock_spec.energies))))
    records = []
    worst = 0.0
    for level in range(sector.dim):
        sol = solutions[level]
        e_f = float(fock_spec.energies[level])
        e_m, e_b = sol.oracle_energy, sol.energy
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

#!/usr/bin/env python3
"""Full solve of one sector: matrices, operator polynomials, roots, energies.

A three-mode atomic-molecular model (powers (1,1,2)) with generic
couplings.  The sector Hamiltonian is built twice -- symmetric Fock basis
and non-symmetric monomial basis -- then solved a third way through the
root equations, and all three spectra are compared.
"""

import numpy as np

from multiboson import (build_monomial_matrix, build_sector_matrix, cross_validate,
                        diagonalize, expand_diffop, make_model, sector_from_occupations,
                        solve_bethe)

model = make_model(r=2, s=1, k=(1, 1, 2), w=[0.4, -0.3, 0.2],
                   wq={(0, 1): 0.5, (2, 2): -0.15}, g=0.8)
sector = sector_from_occupations(model, (2, 1, 8))
print(f"Sector anchored at (2,1,8): dimension {sector.dim}, base {sector.base_occupations}")

fock = build_sector_matrix(model, sector)
mono = build_monomial_matrix(model, sector)
print("\nFock-basis block (symmetric):")
print(f"  diag  = {np.array2string(fock.diag, precision=4)}")
print(f"  upper = {np.array2string(fock.upper, precision=4)}")
print("Monomial-basis block (same spectrum, different balance):")
print(f"  upper A(n) = {np.array2string(mono.upper, precision=4)}")
print(f"  lower C(n) = {np.array2string(mono.lower, precision=4)}")

op = expand_diffop(model, sector)
print(f"\nDifferential operator of order {op.order}; P_i coefficients (ascending):")
for i, poly in enumerate(op.p):
    print(f"  P_{i}: {[float(c) for c in poly.coeffs]}")

print("\nPer-level roots and energies:")
oracle = diagonalize(fock)
for sol in solve_bethe(model, sector):
    roots = ", ".join(f"{a.real:+.4f}{a.imag:+.4f}j" for a in sol.roots)
    print(f"  level {sol.level}: E = {sol.energy:+.10f}  "
          f"(oracle {sol.oracle_energy:+.10f}, residual {sol.residual_robust:.1e})")
    print(f"           roots: {roots}")

report = cross_validate(model, sector)
print(f"\nThree-way validation: {'PASS' if report.passed else 'FAIL'} "
      f"(max energy error {report.max_energy_error:.2e})")

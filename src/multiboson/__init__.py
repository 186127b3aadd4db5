"""Exact spectra of multi-mode boson Hamiltonians.

Pipeline: occupation vectors are mapped to invariant sectors (`fock`),
each sector carries a finite representation of a polynomial deformation of
sl(2) (`polyalg`), the sector Hamiltonian is realized both as tridiagonal
matrices (`hamiltonian`) and as a single-variable differential operator
(`diffop`), and the spectrum is recovered from polynomial root equations
(`bethe`) cross-checked against direct diagonalization.  `models` holds
the closed-form tables for the three condensate-type special cases.
"""

from .bethe import (BetheSolution, ValidationReport, bethe_residuals, canonicalize_roots,
                    cross_validate, direct_search, energy_from_roots, robust_residuals,
                    solve_bethe)
from .diffop import (DiffOpForm, Polynomial, apply_to_polynomial, expand_diffop,
                     falling_factorial_coefficients, hop_values)
from .fock import (ModeLabel, ModelSpec, Sector, base_number_values, label_t, make_model,
                   occupations_at, q_from_occupation, sector_from_occupations)
from .hamiltonian import (ConditioningWarning, SpectrumResult, TridiagonalBlock,
                          build_monomial_matrix, build_sector_matrix, diagonalize,
                          transition_element)
from .models import (KNOWN_DISCREPANCIES, discrepancy_delta, preset,
                     tabulated_bae_residuals, tabulated_coefficients, tabulated_energy,
                     tabulated_operator_polys, verify_case)
from .polyalg import (LadderCoefficients, TruncatedGeneratorSet, boson_generators,
                      casimir_value, ladder_coefficients, lowering_amplitude,
                      phi_polynomial, raising_amplitude, verify_single_mode_algebra)

__version__ = "0.1.0"

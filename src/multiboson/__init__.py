"""Exact spectra of multi-mode boson Hamiltonians.

Pipeline: occupation vectors are mapped to invariant sectors (`fock`),
each sector carries a finite representation of a polynomial deformation of
sl(2) (`polyalg`), the sector Hamiltonian is realized both as tridiagonal
matrices (`hamiltonian`) and as a single-variable differential operator
(`diffop`), and the spectrum is recovered from polynomial root equations
(`bethe`) cross-checked against direct diagonalization.  `models` holds
the closed-form tables for the three condensate-type special cases.

`import multiboson` loads the solver modules (`fock`, `diffop`,
`hamiltonian`, `bethe`) and numpy.  `models` and `polyalg`, which no
solve uses, load on first use: their exports resolve through the
package's `__getattr__` on every access.  The `multiboson` command
(`cli.console_main`) calls `gc.freeze()` once its command has returned,
so the interpreter's final collections at exit skip every object then
alive.
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

__version__ = "0.1.0"

# Exports of the modules loaded on first use, by module.
_LAZY = {
    "models": ("KNOWN_DISCREPANCIES", "discrepancy_delta", "preset", "tabulated_bae_residuals",
               "tabulated_coefficients", "tabulated_energy", "tabulated_operator_polys",
               "verify_case"),
    "polyalg": ("LadderCoefficients", "TruncatedGeneratorSet", "boson_generators",
                "casimir_value", "ladder_coefficients", "lowering_amplitude",
                "phi_polynomial", "raising_amplitude", "verify_single_mode_algebra"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# what `from multiboson import *` gives: every public name, loaded or not
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY, *_HOME})


def __getattr__(name):
    # read from the module each time, never bound here, so that a function
    # patched on the module is the one the package gives
    if name in _LAZY or name in _HOME:
        from importlib import import_module

        module = import_module(f"{__name__}.{_HOME.get(name, name)}")
        return module if name in _LAZY else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

"""Spans around the package's public functions, installed from outside.

`Tracer.install` replaces each listed function by a wrapper in every
``multiboson`` module attribute that holds the same function object, so
calls through names imported with ``from .x import f`` are caught too.
Each call records a span (name, start, end, parent, operation id) in
memory; self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Public functions of each module, as defined in that module.
TRACED = {
    "fock": ("make_model", "q_from_occupation", "label_t", "sector_from_occupations",
             "occupations_at", "base_number_values"),
    "polyalg": ("casimir_value", "phi_polynomial", "boson_generators",
                "verify_single_mode_algebra", "raising_amplitude", "lowering_amplitude",
                "ladder_coefficients"),
    "hamiltonian": ("transition_element", "build_sector_matrix", "build_monomial_matrix",
                    "diagonalize"),
    "diffop": ("falling_factorial_coefficients", "hop_coefficients", "expand_diffop",
               "apply_to_polynomial"),
    "bethe": ("bethe_residuals", "robust_residuals", "roots_from_eigenvector",
              "canonicalize_roots", "energy_from_roots", "solve_bethe", "direct_search",
              "cross_validate"),
    "models": ("preset", "tabulated_coefficients", "tabulated_operator_polys",
               "tabulated_bae_residuals", "tabulated_energy", "discrepancy_delta",
               "random_case_inputs", "verify_case"),
    "cli": ("build_parser", "main", "console_main"),
}

# The benchmark's own span around each operation; its self time is the
# benchmark code between the package calls.
OP_SPAN = "bench.op"


def traced_names():
    return [f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs]


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self._stack = []
        self._op = -1
        self._active = True
        self._patches = []     # (module, attribute, original, wrapper)

    def install(self):
        if not self._patches:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _find_patches(self):
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "multiboson" or name.startswith("multiboson."))]
        patches = []
        for module_name, funcs in TRACED.items():
            home = importlib.import_module(f"multiboson.{module_name}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:    # removed since; reported as zero
                    continue
                wrapper = self._wrap(f"{module_name}.{func}", original)
                patches += [(mod, attr, original, wrapper) for mod in modules
                            for attr, value in vars(mod).items() if value is original]
        return patches

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._active:
                return func(*args, **kwargs)
            idx = self._enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapper

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation."""
        self._op += 1
        idx = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(idx)

    @contextlib.contextmanager
    def suspended(self):
        """Calls inside run untraced (the benchmark's own output checks)."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def totals(self):
        """{name: (calls, self seconds)} and the summed root-span wall."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            if parent < 0:
                wall += end - start
        return {name: (calls[name], self_s[name]) for name in calls}, wall

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

"""Truncated Fock-space simulator for mixed-state logical qubits encoded in
the parity of two qumodes: exact operator algebra, thermal initialisation
and entropy accounting, ancilla-mediated universal gates, pure/mixed
equivalence runs, pulse-level interaction engineering, open-system dynamics,
and noiseless-subsystem verification.

Submodules are imported lazily so the command-line entry point can configure
threading before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = ("fock", "thermal", "msuqc", "pulses", "opensys", "nsverify", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))

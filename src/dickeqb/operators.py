"""Joint spin-boson Hilbert space: dimensions and states.

Basis convention (part of the external contract, e.g. for CSV state dumps):
the joint index is ``spin_index * boson_dim + photon_number``.  The spin
index is the big-endian bit string over sites 1..N, bit value 1 = excited
|e>, bit value 0 = ground |g>; site 1 owns the most significant bit.  With
this ordering a joint state is a row-major (spin, Fock) array, the layout
the stepper and the recorder work on.  States live in the full joint
space, and so do the model's operators, which are plain real CSR matrices
(``dickeqb.model``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from dickeqb.errors import ContractError, DomainError

NORM_ATOL = 1e-10


def require_int(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a Python or NumPy integer.  A
    bool is rejected, although Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def require_float_fields(obj) -> None:
    """Raise DomainError unless every field of the dataclass ``obj``
    annotated ``float`` holds a finite real number, and every field annotated
    ``float | None`` holds one or None.  A real number is a Python or NumPy
    integer or float, an int of any size included, but not a bool.  The
    annotations are read as the strings ``from __future__ import annotations``
    leaves."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float" or (f.type == "float | None" and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{f.name} must be a real number, got {value!r}")
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class HilbertDims:
    """Sizes of the joint Hilbert space of N two-level atoms and one mode."""

    n_atoms: int
    n_photon_max: int

    def __post_init__(self):
        require_int("n_atoms", self.n_atoms)
        require_int("n_photon_max", self.n_photon_max)
        if self.n_atoms < 1:
            raise DomainError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_photon_max < 0:
            raise DomainError(f"n_photon_max must be >= 0, got {self.n_photon_max}")

    @property
    def spin_dim(self) -> int:
        return 2**self.n_atoms

    @property
    def boson_dim(self) -> int:
        return self.n_photon_max + 1

    @property
    def total_dim(self) -> int:
        return self.spin_dim * self.boson_dim


class StateVector:
    """Normalized complex amplitude vector over the joint basis."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims: HilbertDims, amplitudes, norm_atol: float = NORM_ATOL):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (dims.total_dim,):
            raise DomainError(
                f"amplitude vector length {amps.shape} does not match "
                f"total_dim {dims.total_dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= norm_atol:
            raise ContractError(f"state norm {nrm!r} deviates from 1 beyond {norm_atol}")
        self.dims = dims
        self.amplitudes = amps


"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SimulationError, ValueError):
    """Input outside the documented domain (site index, grid bounds, signs)."""


class ContractError(SimulationError):
    """A precondition was violated (non-Hermitian operator, unnormalized state)."""


class NumericalError(SimulationError):
    """A numerical guarantee failed (imaginary residue, non-convergence)."""


class IntegrationError(NumericalError):
    """Propagation lost unitarity beyond the allowed drift.

    The drift comes from the Taylor kernel's truncation and grows with ||H||
    and the run length, not with dt, which sets only the sample spacing:
    lower the photon cutoff N_ph or shorten t_max.
    """


class ResourceError(SimulationError):
    """Requested problem size exceeds the configured memory bound."""


class ConfigError(SimulationError, ValueError):
    """Malformed configuration file or unknown configuration keys."""

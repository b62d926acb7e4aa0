"""Exception types shared across the package."""


class QottoError(Exception):
    """Base class for package-specific failures."""


class SingularGeneratorError(QottoError):
    """The dynamical map is not invertible at the requested instant (cos F = 0)."""


class IntegrationFailureError(QottoError, RuntimeError):
    """The reference ODE integrator could not reach the requested time."""


class PositivityError(QottoError):
    """A state that must be a density operator violates positivity or trace."""


class SupportViolationError(QottoError, ValueError):
    """Relative entropy diverges: the first state has support outside the second's."""


class ConfigError(QottoError, ValueError):
    """Invalid cycle or run configuration; ``problems`` lists every offending entry."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class so that the CLI can echo a module-qualified name and tests can
assert on the exact condition.
"""


class SemiperError(Exception):
    """Base class for all package errors."""


# ---- configs ----

class ConfigError(ValueError):
    """A config the CLI refuses: not JSON, against the schema, or a key
    or section its task, builder or forcing kind does not read."""


# ---- state space / model construction ----

class NonHermitian(SemiperError):
    pass


class NotPositiveDefinite(SemiperError):
    pass


class NonFiniteInput(SemiperError):
    pass


class InvalidGrid(SemiperError):
    pass


class ZeroDamping(SemiperError):
    pass


class NonAxisymmetricDamping(SemiperError):
    pass


class QuadratureUnderResolved(SemiperError):
    pass


# ---- propagation / spectral calculus ----

class BackwardGrowthExcessive(SemiperError):
    pass


class OnSpectrum(SemiperError):
    pass


class SpectrumOnCut(SemiperError):
    pass


# ---- periodic solves ----

class SlowConvergence(SemiperError):
    pass


class KernelObstruction(SemiperError):
    pass


class SingularMonodromy(SemiperError):
    pass


class ResonantHarmonic(SemiperError):
    pass


class Diverged(SemiperError):
    pass


# ---- scans and fits ----

class PoorFit(SemiperError):
    pass


class NonMonotone(SemiperError):
    pass


# ---- input/output ----

class IoError(SemiperError):
    pass

"""Exception types shared across the package."""


class LathomError(Exception):
    """Base class for all package errors."""


class ZeroDeterminant(LathomError):
    """Pattern matrix is singular."""


class LengthMismatch(LathomError):
    """Sequence length does not match the pattern size m."""


class DegenerateClass(LathomError):
    """A frequency class has vanishing bracket sum (translates dependent)."""

    def __init__(self, h):
        self.h = tuple(int(x) for x in h)
        super().__init__(f"degenerate frequency class {self.h}")


class NoInterpolant(LathomError):
    """Fundamental interpolant does not exist (a class sum vanishes)."""

    def __init__(self, h):
        self.h = tuple(int(x) for x in h)
        super().__init__(f"vanishing class sum at {self.h}")


class InvalidSpec(LathomError):
    """Kernel specification is malformed or inadmissible.

    `parameter` names the KernelSpec argument at fault ("alpha", "xi" or
    "radius"), or is None.
    """

    def __init__(self, message, parameter=None):
        self.parameter = parameter
        super().__init__(message)


class InvalidMaterial(LathomError):
    """Material parameters outside the physical range."""


class ShapeMismatch(LathomError):
    """Array shape does not match the expected layout."""


class NotConverged(LathomError):
    """Solver iteration exhausted max_iter.

    Carries the partial report so callers can inspect the residual history.
    """

    def __init__(self, iterations, report=None, message=None):
        self.iterations = int(iterations)
        self.report = report
        super().__init__(message or f"no convergence after {self.iterations} iterations")


class Diverged(NotConverged):
    """Solver iteration produced a non-finite residual norm.

    The partial report holds the last iterate whose norms were finite.
    """


class NonElliptic(LathomError):
    """Stiffness field is not uniformly elliptic."""


class InvalidGeometry(LathomError):
    """Benchmark geometry parameters are inconsistent."""


class PatternMismatch(LathomError):
    """Fields live on incompatible patterns."""


class ParseError(LathomError):
    """Manifest syntax error."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class ValidationError(LathomError):
    """Manifest is syntactically fine but semantically invalid."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")

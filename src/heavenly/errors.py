"""Exception types shared across the package."""


class HeavenlyError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(HeavenlyError):
    """Jet operands differ in variable count, order or stack depth, or a
    stacked jet was stacked again."""


class DivisionBySingularJet(HeavenlyError):
    """Constant term of the divisor jet is below the singularity threshold."""


class BranchCutViolation(HeavenlyError):
    """Constant term lies on the principal branch cut (closed negative real axis)."""


class DomainError(HeavenlyError):
    """Evaluation requested outside the admissible domain; message names the condition."""


class OrderExceeded(HeavenlyError):
    """Requested derivative order exceeds the jet order."""


class ArityMismatch(HeavenlyError):
    """Number of evaluation points does not match the declared variable count."""


class ParseError(HeavenlyError):
    """Expression text rejected by the grammar."""

    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message


class FamilyParamMismatch(HeavenlyError):
    """Solution-family parameters are malformed or inconsistent with kappa."""


class EtaVanishes(HeavenlyError):
    """eta = 0 at the point, so lambda/lambda_bar and the Y operators are undefined."""


class FVanishes(HeavenlyError):
    """F = 0 at the resolving point; the resolving equations are singular there."""


class SingularMap(HeavenlyError):
    """Conformal map has vanishing derivative at the requested point."""


class ConstraintViolation(HeavenlyError):
    """Theorem-case constants violate the case's constraint set."""


#: errors that exclude one grid point from a suite instead of ending the run;
#: an OverflowError is cmath's, such as an exp that overflows at the point
POINT_EXCLUSIONS = (DomainError, DivisionBySingularJet, BranchCutViolation, SingularMap,
                    OverflowError)

#: what a stacked pass over several points can raise where one of them is
#: bad; a pass that raises one of these leaves its points to run one by one
SWEEP_FALLBACK = (HeavenlyError, ArithmeticError, ValueError)

"""Exception hierarchy shared across the package."""


class HomLabError(Exception):
    """Base class for every error raised by homlab."""


class StructureError(HomLabError):
    """Invalid finite carrier data."""


class IndexOutOfRange(StructureError):
    pass


class UnitLawViolation(StructureError):
    pass


class ZeroLawViolation(StructureError):
    pass


class SkewViolation(StructureError):
    pass


class UnitVectorViolation(StructureError):
    pass


class ConflictingRelation(StructureError):
    pass


class RelationSyntaxError(StructureError):
    pass


class IdentitySyntaxError(HomLabError):
    """Bad identity source text; carries the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariable(IdentitySyntaxError):
    pass


class NotSApplicable(HomLabError):
    """The twist/id exchange needs every twist applied directly to a variable."""


class EvaluationError(HomLabError):
    pass


class CyclicNotSupportedOnMagma(EvaluationError):
    pass


class UnitRequired(EvaluationError):
    """Identity mentions the unit constant but the carrier has no unit."""


class NonMultilinearIdentity(EvaluationError):
    """Basis-triple checking is only complete for a multilinear identity:
    in an equation each variable occurs once in each side or in neither,
    and a cyclic term holds x, y and z once each, or no variable."""


class HypothesisNotMet(HomLabError):
    pass


class InvariantViolation(HomLabError):
    """An independent re-check contradicts a computed result: a bug in
    homlab, not in its input."""


class NotWeaklyUnital(HomLabError):
    pass


class AlphaNotInvertible(HomLabError):
    pass

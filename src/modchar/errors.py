"""Domain error types shared by all modules.

Every error raised on bad mathematical input derives from ModcharError so the
CLI can map them to exit code 2 uniformly.
"""


class ModcharError(Exception):
    pass


class SelfCheckFailed(ModcharError):
    """A result failed a check that every right answer passes (an idempotent
    squares to itself, irreducible characters are orthonormal, ...), so
    returning it would give a silently wrong answer."""


# finite fields / linear algebra
class CompositeCharacteristic(ModcharError):
    pass


class FieldTooLarge(ModcharError):
    pass


class ShapeMismatch(ModcharError):
    pass


class FieldMismatch(ModcharError):
    pass


class NotSquare(ModcharError):
    pass


class NotPrimitive(ModcharError):
    pass


# modules over matrix algebras
class NotInvariant(ModcharError):
    pass


class ZeroModule(ModcharError):
    pass


class GeneratorCountMismatch(ModcharError):
    pass


class SingularGenerator(ModcharError):
    pass


class IncompleteSimplesList(ModcharError):
    pass


class Undecided(ModcharError):
    pass


# permutation groups
class GroupTooLarge(ModcharError):
    pass


class NotSubgroup(ModcharError):
    pass


class TooLarge(ModcharError):
    pass


# cyclotomic arithmetic
class NonUnitGaloisExponent(ModcharError):
    pass


class PRegularViolation(ModcharError):
    pass


class NotSquarefree(ModcharError):
    pass


# character tables
class FusionIncomplete(ModcharError):
    pass


class IdealChoiceFailure(ModcharError):
    pass


class NotExpandable(ModcharError):
    pass


class NotInSpan(ModcharError):
    pass


class NonIntegral(ModcharError):
    pass


class ActionNotInvolution(ModcharError):
    pass


class FusionDegreeMismatch(ModcharError):
    pass


# condensation
class OrderDivisibleByP(ModcharError):
    pass


class NotAGroup(ModcharError):
    pass


class NotInImage(ModcharError):
    pass


# decomposition-matrix engine
class SingularA(ModcharError):
    pass


class NonIntegralAtoms(ModcharError):
    pass


class NoAdmissibleMatching(ModcharError):
    pass


class NoInferencePossible(ModcharError):
    pass


class Infeasible(ModcharError):
    pass


class AllEliminated(ModcharError):
    pass


class NoConsistentSigns(ModcharError):
    pass


class AmbiguousCase(ModcharError):
    pass


class FormatError(ModcharError):
    """Bad file contents; the CLI maps this one to exit code 3."""

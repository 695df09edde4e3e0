"""Exception hierarchy shared by the library and the command line front end.

The CLI maps these onto exit codes: ValidationError -> 2,
SearchBoundExceeded -> 4, and every other GammaFormsError (an
InvariantError, say) -> 1.  Every level has its reduced forms, so no
error is tied to a level.
"""


class GammaFormsError(Exception):
    """Base class for all library errors."""


class ValidationError(GammaFormsError):
    """Malformed or out-of-domain input (bad discriminant, non-form, ...)."""


class DiscriminantMismatch(ValidationError):
    """Two forms that were required to share a discriminant do not."""


class CompositionError(ValidationError):
    """The gcd precondition of Dirichlet composition is violated."""


class SearchBoundExceeded(GammaFormsError):
    """A bounded search ran past its safety limit.

    The limit can be raised via the GAMMA_FORMS_MAX_SEARCH environment
    variable; hitting it normally indicates a violated precondition.
    """


class InvariantError(GammaFormsError):
    """A computed result contradicts what the theory guarantees: a bug."""

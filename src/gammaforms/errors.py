"""Exception hierarchy shared by the library and the command line front end.

The CLI maps these onto exit codes: ValidationError -> 2,
UnsupportedLevelError -> 3, SearchBoundExceeded -> 4, and every other
GammaFormsError (an InvariantError, say) -> 1.
"""


class GammaFormsError(Exception):
    """Base class for all library errors."""


class ValidationError(GammaFormsError):
    """Malformed or out-of-domain input (bad discriminant, non-form, ...)."""


class DiscriminantMismatch(ValidationError):
    """Two forms that were required to share a discriminant do not."""


class CompositionError(ValidationError):
    """The gcd precondition of Dirichlet composition is violated."""


class UnsupportedLevelError(GammaFormsError):
    """No reduced-form predicate exists for this level (composite N > 3)."""


class SearchBoundExceeded(GammaFormsError):
    """A bounded search ran past its safety limit.

    The limit can be raised via the GAMMA_FORMS_MAX_SEARCH environment
    variable; hitting it normally indicates a violated precondition.
    """


class InvariantError(GammaFormsError):
    """A computed result contradicts what the theory guarantees: a bug."""

"""Exception hierarchy for the dsvision package."""


class DSVisionError(Exception):
    """Base class for all dsvision errors."""


# --- frame / clause construction ---

class DuplicateAtomError(DSVisionError):
    pass


class TooManyAtomsError(DSVisionError):
    pass


class EmptyNameError(DSVisionError):
    pass


class UnknownAtomError(DSVisionError):
    pass


class ContradictionError(DSVisionError):
    """A conjunction contains both polarities of one atom (denotes the empty set)."""


class FrameMismatchError(DSVisionError):
    pass


# --- mass functions / combination ---

class NormalizationError(DSVisionError):
    pass


class TotalConflictError(DSVisionError):
    """Dempster combination with conflict K >= 1 - 1e-12."""


# --- parsing / config ---

class ParseError(DSVisionError):
    pass


class NegativeLiteralInKnowledgeError(DSVisionError):
    pass


# --- parameters and measurements ---

class InvalidParamsError(DSVisionError):
    pass


class OutOfRangeError(DSVisionError):
    pass


# --- pyramid ---

class BadDimensionsError(DSVisionError):
    pass


class RectOutOfBoundsError(DSVisionError):
    pass


# --- image I/O ---

class UnsupportedFormatError(DSVisionError):
    pass


class CorruptHeaderError(DSVisionError):
    pass


class TruncatedDataError(DSVisionError):
    pass

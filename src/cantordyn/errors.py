"""Exception types shared across the package."""


class CantorDynError(RuntimeError):
    pass


class DepthExceeded(CantorDynError):
    """A word is longer than the working depth of the table it was fed to."""


class ModulusExhausted(CantorDynError):
    """No modulus witness within the depth covers the requested output length."""

    def __init__(self, length, detail=""):
        super().__init__(f"no modulus witness for output length {length}" + (f" ({detail})" if detail else ""))
        self.length = length


class HorizonExhausted(CantorDynError):
    """A bounded search ran out of depth or stage budget.

    ``partial`` carries whatever the construction had produced so far.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EmptyClassError(CantorDynError):
    """The class has no word of full depth."""


class NotMinimal(CantorDynError):
    """A proper subsystem candidate survived; ``witness`` is a full-depth member."""

    def __init__(self, witness):
        super().__init__(f"avoidance tree survives to depth; witness {witness!r}")
        self.witness = witness


class UndecidedAtDepth(CantorDynError):
    """The answer is not determined by the stored horizon."""


class InconsistentDepth(CantorDynError):
    """A carve-out emptied that the underlying argument says must be nonempty;
    the working depth is too small for the instance."""


class SpecFormatError(ValueError):
    """A spec or request file failed to parse; ``location`` names the field."""

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location

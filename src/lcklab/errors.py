"""Exception types shared across the package.

Each class carries the exit code the command line returns for it and the
label it prints on stderr before the message: ``GalleryError`` 2
("error"), ``NumericalError`` 3 ("numerical failure"), ``InadmissibleInput``
4 ("inadmissible input").
"""

from __future__ import annotations


class GalleryError(ValueError):
    """Unknown fixture id or invalid fixture parameters."""

    exit_code, label = 2, "error"


class NumericalError(RuntimeError):
    """A pointwise solve failed."""

    exit_code, label = 3, "numerical failure"


class InadmissibleInput(ValueError):
    """Input violates a documented precondition (e.g. f <= -1 somewhere)."""

    exit_code, label = 4, "inadmissible input"


# the errors the command line turns into their exit codes
EXIT_ERRORS = (GalleryError, NumericalError, InadmissibleInput)

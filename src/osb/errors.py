"""Exception types shared across the package, the reader of input files
that reports an undecodable file as a FormatError, the JSON decoder that
reports an undecodable text as one, and the parser of integer settings."""

import json


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


class FormatError(ValueError):
    """A matrix, family, or corpus file does not match its schema."""


class ResourceError(RuntimeError):
    """Exact enumeration was requested for a family above the size cap."""


class HypothesisError(RuntimeError):
    """A map family fails the uniform-marginal hypothesis required by a check;
    ``certificate`` is the family's measure certificate."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


def read_input_text(path: str) -> str:
    """The text of an input file, which must be UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path} is not UTF-8 text: {e}") from e


def parse_json(text: str):
    """The value of a JSON text."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, a too-long int, deep nesting
        raise FormatError(f"invalid JSON: {e}") from e


def parse_int_setting(raw: str, name: str, source: str) -> int:
    """The value of the integer setting ``name``, read as ``raw`` from ``source``."""
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} from {source} must be an integer, got {raw!r}") from None

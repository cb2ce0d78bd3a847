"""Exception and warning types, the file and value rules that raise them, and the seeded generators.

Every error the package raises on purpose derives from VeritasError so the
CLI can map them to a single exit code. ``read_text``, ``read_json`` and
``write_text`` are the only code that opens a file, ``csv_line`` quotes
the cells of the records, timeline and curve CSV files, ``check_value``
and ``check_fields`` hold the config value rules, and ``make_rng`` and
``child_rng`` make every random stream the package draws from.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
import re

import numpy as np


class VeritasError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VeritasError):
    """Invalid configuration value or unusable argument combination."""


class DataError(VeritasError):
    """Malformed dataset, fold file, checkpoint or record payload."""


class ShapeError(VeritasError):
    """Array dimensions do not line up."""


class InvalidInput(VeritasError):
    """Numerically unusable input, e.g. non-finite logits."""


class DataWarning(UserWarning):
    """Recoverable data irregularity that was repaired or defaulted."""


# ---------------------------------------------------------------------------
# files


def read_text(path, what: str) -> str:
    """The file as UTF-8 with its line ends as they are; a failed read is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, what: str):
    """``read_text`` parsed as JSON; text that is no JSON or nests too deep is a DataError naming the file."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path, text: str, what: str) -> None:
    """Write the text as UTF-8; a failed write is a DataError naming the file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def csv_line(cells) -> str:
    r"""One CSV line of the cells' text, ending in "\n".

    A cell holding a ",", a '"', a "\n" or a "\r" is quoted and its quotes
    doubled. That is ``csv.writer``'s minimal quoting with a "\n" line end,
    except that the writer leaves a lone "\r" bare, where a reader ends the
    line, so the row could not be read back.
    """
    return ",".join(_csv_cell(str(cell)) for cell in cells) + "\n"


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


_CSV_QUOTED = re.compile('[,"\r\n]')


# ---------------------------------------------------------------------------
# config values and random streams


def is_integer(value) -> bool:
    """Whether ``operator.index`` takes the value, as it does numpy integers, and it is no bool."""
    try:
        return not isinstance(value, (bool, np.bool_)) and operator.index(value) is not None
    except TypeError:
        return False


def finite_number(value) -> bool:
    """Whether the value is a real number, no bool, that is finite as a float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def seed_int(seed) -> int:
    """``operator.index(seed)``; a bool, a non-integer or a negative number is a ConfigError."""
    if not is_integer(seed):
        raise ConfigError(f"random seeds must be integers, got {seed!r}")
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError(f"random seeds must be nonnegative, got {seed}")
    return seed


def check_value(name: str, value, kind: str, bound: str | None = None) -> None:
    """A ConfigError naming the value unless it is of its kind and within its bound.

    An "int" or a "seed" is an ``is_integer``, a "float" a real number and no bool, and a "bool" a bool;
    an "int" or a "float" is also finite as a float. A bound is an interval such as "[0, 1)", "(0, inf)"
    or "[0, 2**64)": each end is closed, open or absent, and a float holds it exactly.
    """
    if kind in ("int", "seed") and not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if kind in ("int", "float") and not finite_number(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    if bound is not None:
        ends = bound[1:-1].split(", ")
        lo, hi = (float(base) ** float(power or 1) for base, _, power in (end.partition("**") for end in ends))
        x = operator.index(value) if kind in ("int", "seed") else value  # exact, a numpy uint64 too
        closed_lo, closed_hi = bound[0] == "[", bound[-1] == "]"
        if not ((lo <= x if closed_lo else lo < x) and (x <= hi if closed_hi else x < hi)):
            rule = f"{'>=' if closed_lo else '>'} {ends[0]}" if hi == math.inf else f"in {bound}"
            raise ConfigError(f"{name} must be {rule}, got {value}")


def check_fields(config, **bounds: str) -> None:
    """``check_value`` on each field of a config dataclass in order, of its annotated type or, named seed, a seed."""
    for field in dataclasses.fields(config):
        kind = "seed" if field.name == "seed" else field.type
        check_value(field.name, getattr(config, field.name), kind, bounds.get(field.name))


def make_rng(seed: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` gives; a negative or non-integer seed is a ConfigError."""
    return np.random.default_rng(seed_int(seed))


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator ``np.random.default_rng([seed, *stream])`` gives; a negative or non-integer key is a ConfigError.

    Derived streams do not depend on draw order elsewhere, so per-tree or
    per-fold work stays deterministic under any scheduling. The generators
    are not all distinct: numpy pads a key of fewer than four uint32 words
    with zero words, so keys of up to four words that differ only in
    trailing zeros give one stream (``child_rng(5)``, ``child_rng(5, 0)``
    and ``child_rng(5, 0, 0)`` are the same generator).
    """
    return np.random.default_rng([seed_int(n) for n in (seed, *stream)])

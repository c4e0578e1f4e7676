"""argparse ``type`` callables shared by the command-line front doors.

A value out of range is an argparse usage error (exit 2, ``argument --X:
expected …``), never a traceback from deeper in the program.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable


def _checked(convert: Callable, accept: Callable, what: str) -> Callable:
    """An argparse ``type``: ``convert`` the text, reject what ``accept`` refuses."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


positive_int = _checked(int, lambda v: v > 0, "a positive integer")
non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
positive_seconds = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a positive number of seconds"
)

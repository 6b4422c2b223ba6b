"""Message envelopes and reduction operations for minimpi."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import reduce as _functools_reduce
from typing import Any, Callable

from repro.transport.frames import encoded_size

__all__ = [
    "BAND",
    "BOR",
    "Envelope",
    "LAND",
    "LOR",
    "MAX",
    "MIN",
    "PROD",
    "ReduceOp",
    "SUM",
]

_envelope_ids = itertools.count(1)


@dataclass
class Envelope:
    """One point-to-point message in flight."""

    source: int
    dest: int
    tag: int
    payload: Any
    envelope_id: int = field(default_factory=lambda: next(_envelope_ids))

    def wire_size(self) -> int:
        """Bytes the payload occupies when serialised for a channel.

        Traffic accounting for a same-site delivery, which hands the
        object over without serialising it; a tunnel crossing counts the
        blob it actually encodes instead.
        """
        return encoded_size(self.payload)


class ReduceOp:
    """A named, associative reduction operation."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def reduce_all(self, values: list) -> Any:
        if not values:
            raise ValueError(f"reduce {self.name} over empty sequence")
        return _functools_reduce(self.fn, values)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


SUM = ReduceOp("sum", operator.add)
PROD = ReduceOp("prod", operator.mul)
MAX = ReduceOp("max", max)
MIN = ReduceOp("min", min)
LAND = ReduceOp("land", lambda a, b: bool(a) and bool(b))
LOR = ReduceOp("lor", lambda a, b: bool(a) or bool(b))
BAND = ReduceOp("band", operator.and_)
BOR = ReduceOp("bor", operator.or_)

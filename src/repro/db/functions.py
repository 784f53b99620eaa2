"""Scalar SQL functions.

The registry is built per server because time functions must read the
*instance's local clock* — that is the heart of the paper's replication
delay measurement: the master inserts ``USEC_NOW()`` into the heartbeat
table, the statement replicates as text and each slave re-evaluates
``USEC_NOW()`` against its own (drifting, NTP-disciplined) clock.

``NOW()`` truncates to whole seconds, mirroring MySQL's one-second
resolution that the paper found unacceptable; ``USEC_NOW()`` is the
microsecond-resolution user-defined function the authors built as a
workaround for MySQL bug #8523.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional

from ..sql.expressions import sql_mod

__all__ = ["standard_functions"]


def standard_functions(wall_clock: Callable[[], float],
                       rand: Optional[Callable[[], float]] = None
                       ) -> Mapping[str, Callable]:
    """Build the scalar-function registry for one server.

    ``wall_clock`` returns the server's local wall-clock time in
    seconds; ``rand`` (optional) returns uniform [0, 1) floats.
    """

    def sql_now() -> float:
        # MySQL's native time functions have one-second resolution.
        return float(math.floor(wall_clock()))

    def sql_usec_now() -> float:
        # The paper's UDF: microsecond resolution.
        return round(wall_clock(), 6)

    def sql_unix_timestamp(value: Optional[float] = None) -> int:
        return int(math.floor(wall_clock() if value is None else value))

    def sql_concat(*args: Any) -> Optional[str]:
        if any(a is None for a in args):
            return None
        return "".join(str(a) for a in args)

    def sql_substring(value: Optional[str], start: int,
                      length: Optional[int] = None) -> Optional[str]:
        if value is None:
            return None
        begin = max(start - 1, 0)  # SQL is 1-based
        if length is None:
            return value[begin:]
        return value[begin:begin + length]

    def sql_coalesce(*args: Any) -> Any:
        for arg in args:
            if arg is not None:
                return arg
        return None

    def sql_ifnull(value: Any, fallback: Any) -> Any:
        return fallback if value is None else value

    def sql_rand() -> float:
        if rand is None:
            raise ValueError("RAND() requires a seeded generator; "
                             "this server was built without one")
        return rand()

    def nullsafe(fn: Callable) -> Callable:
        def wrapped(value, *rest):
            if value is None:
                return None
            return fn(value, *rest)
        return wrapped

    return {
        "NOW": sql_now,
        "CURRENT_TIMESTAMP": sql_now,
        "USEC_NOW": sql_usec_now,
        "UNIX_TIMESTAMP": sql_unix_timestamp,
        "LOWER": nullsafe(lambda v: str(v).lower()),
        "UPPER": nullsafe(lambda v: str(v).upper()),
        "LENGTH": nullsafe(lambda v: len(str(v))),
        "ABS": nullsafe(abs),
        "ROUND": nullsafe(lambda v, digits=0: round(v, int(digits))),
        "FLOOR": nullsafe(lambda v: math.floor(v)),
        "CEILING": nullsafe(lambda v: math.ceil(v)),
        "MOD": sql_mod,
        "CONCAT": sql_concat,
        "SUBSTRING": sql_substring,
        "COALESCE": sql_coalesce,
        "IFNULL": sql_ifnull,
        "RAND": sql_rand,
    }

"""Payload-volume accounting shared by the simulation kernels.

Message *counts* hide the real cost of full-information protocols: one
flooding message can carry an entire learned view.  Both kernels
(:mod:`repro.sync.kernel` and :mod:`repro.amp.network`) therefore also
meter **payload units** — the number of scalar leaves a message carries:

* scalars (numbers, strings, bytes, booleans, ``None``) count 1;
* containers (dict, list, tuple, set, frozenset) count the sum of their
  leaves (dicts count keys and values);
* a message object may declare its own weight via a
  ``__payload_units__()`` method — used by compact wire formats such as
  :class:`repro.sync.algorithms.flooding.DeltaMessage`, whose integer
  digest bitmask is one machine word no matter how many pids it encodes.

The unit is deliberately machine-independent (like rounds and Δ): two
runs with the same message trace report identical volume on any host.

Metering runs on every send of every kernel, so :func:`payload_units`
dispatches on the *concrete* type first, in this order:

1. the exact scalar types (``int``, ``float``, ``complex``, ``str``,
   ``bytes``, ``bool``, ``NoneType``) — :data:`EXACT_SCALAR_TYPES`,
   which a sizer may also test itself to count its scalar fields inline
   (``DeltaMessage`` does);
2. ``tuple``, ``list``, ``set``, ``frozenset`` — the shape of nearly
   every protocol message; their scalar leaves are counted inline,
   without a call per leaf;
3. ``dict``.

Anything else — subclasses of those types (namedtuples, ``IntEnum``
members, the sanitizer's ``FrozenList``/``FrozenDict``/
``FrozenSetView``), sizer objects, non-dict mappings, opaque objects —
takes the general ``isinstance`` walk, which is the definition of the
unit.  The fast path only answers for types whose answer the walk
would give anyway (none of them can carry a ``__payload_units__``), so
counts are **exact**: a subclass still goes through its sizer and the
sizer's validation, and a scalar subclass still counts 1 whatever it
declares.
"""

from __future__ import annotations

from typing import Mapping, Set, Tuple

from .exceptions import ModelViolation

_SCALARS = (int, float, complex, str, bytes, bool, type(None))
#: The exact scalar types: a value whose ``type()`` is in this set weighs
#: 1 unit.  Public so that a sizer can count such values inline and call
#: :func:`payload_units` only for the rest.
EXACT_SCALAR_TYPES = frozenset(_SCALARS)
_EXACT_COLLECTIONS = frozenset((tuple, list, set, frozenset))


def payload_units(message: object) -> int:
    """Number of payload units (scalar leaves) ``message`` carries.

    An empty container costs 1 unit (the envelope is not free), so a
    pure signal message ("decide", ``()``) is never accounted as zero.

    ``__payload_units__()`` overrides must return a non-negative ``int``
    (``bool`` does not count); anything else raises
    :class:`~repro.core.exceptions.ModelViolation` — a bad weight would
    silently skew every volume metric downstream.

    >>> payload_units(("fwd", (0, 3), {"k": [1, 2]}, None))
    7
    """
    cls = type(message)
    if cls in EXACT_SCALAR_TYPES:
        return 1
    if cls in _EXACT_COLLECTIONS:
        total = 0
        for item in message:
            if type(item) in EXACT_SCALAR_TYPES:
                total += 1
            else:
                total += payload_units(item)
        return total or 1
    if cls is dict:
        return sum(
            payload_units(k) + payload_units(v) for k, v in message.items()
        ) or 1
    # The general rule, by isinstance: the definition the fast path agrees with.
    if isinstance(message, _SCALARS):
        return 1
    sizer = getattr(message, "__payload_units__", None)
    if sizer is not None:
        units = sizer()
        if isinstance(units, bool) or not isinstance(units, int):
            raise ModelViolation(
                f"__payload_units__ on {type(message).__name__} returned "
                f"{units!r} ({type(units).__name__}); it must return a "
                f"non-negative int"
            )
        if units < 0:
            raise ModelViolation(
                f"__payload_units__ on {type(message).__name__} returned "
                f"negative weight {units}; payload volume cannot shrink "
                f"a run's total"
            )
        return units
    if isinstance(message, Mapping):
        return sum(
            payload_units(k) + payload_units(v) for k, v in message.items()
        ) or 1
    if isinstance(message, (list, tuple, set, frozenset)):
        return sum(payload_units(item) for item in message) or 1
    return 1

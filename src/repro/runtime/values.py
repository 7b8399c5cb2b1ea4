"""Runtime representation of Lime values.

- Primitives are plain Python ``bool``/``int``/``float``. Integer
  arithmetic wraps to Java widths at operation boundaries (see
  :func:`to_int32` and friends); floats compute in double precision and
  round to ``float32`` when stored into ``float`` arrays, matching how
  the simulated device behaves.
- Arrays are NumPy ``ndarray`` objects whose dtype follows the element
  type. *Value* arrays are marked read-only (``writeable=False``); the
  freeze cast copies and locks.
- Objects are :class:`LimeObject` instances holding a field dict.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RuntimeFault
from repro.frontend.types import ArrayType, PrimKind, PrimType

_DTYPES = {
    PrimKind.BOOLEAN: np.bool_,
    PrimKind.BYTE: np.int8,
    PrimKind.INT: np.int32,
    PrimKind.LONG: np.int64,
    PrimKind.FLOAT: np.float32,
    PrimKind.DOUBLE: np.float64,
}

# Stores into integer arrays wrap rather than warn.
np.seterr(over="ignore")


def dtype_for(prim):
    """NumPy dtype for a primitive element type."""
    if not isinstance(prim, PrimType) or prim.kind not in _DTYPES:
        raise RuntimeFault("no array dtype for type {}".format(prim))
    return _DTYPES[prim.kind]


def elem_size_bytes(prim):
    """Byte width of a primitive element (used by marshalling/timing)."""
    return np.dtype(dtype_for(prim)).itemsize


def new_array(array_type, dims):
    """Allocate a zeroed mutable array for ``new T[d0][d1]...``.

    ``dims`` supplies the sized leading dimensions; trailing omitted
    dimensions must be absent (rectangular primitive arrays only, as in
    the paper's OpenCL backend).
    """
    base = array_type
    rank = 0
    while isinstance(base, ArrayType):
        rank += 1
        base = base.elem
    if len(dims) != rank:
        raise RuntimeFault(
            "partial array allocation is not supported (expected {} "
            "dimensions, got {})".format(rank, len(dims))
        )
    for dim in dims:
        if dim < 0:
            raise RuntimeFault("negative array size {}".format(dim))
    return np.zeros(tuple(dims), dtype=dtype_for(base))


def freeze_array(arr):
    """Deep-copy ``arr`` and mark the copy immutable (the freeze cast)."""
    frozen = np.array(arr, copy=True)
    frozen.setflags(write=False)
    return frozen


def thaw_array(arr):
    """Deep-copy a value array into a mutable one (the thaw cast)."""
    thawed = np.array(arr, copy=True)
    thawed.setflags(write=True)
    return thawed


def iota(n):
    """``Lime.iota(n)`` — the immutable index array ``[0, 1, ..., n-1]``."""
    arr = np.arange(n, dtype=np.int32)
    arr.setflags(write=False)
    return arr


class LimeObject:
    """An instance of a user class: a field dictionary plus its class."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name, fields):
        self.class_name = class_name
        self.fields = fields

    def __repr__(self):
        return "<{} {}>".format(self.class_name, self.fields)


# -- Java integer semantics ---------------------------------------------------

_INT32_MASK = (1 << 32) - 1
_INT64_MASK = (1 << 64) - 1


def to_int32(x):
    """Wrap an unbounded int to Java's signed 32-bit range."""
    x &= _INT32_MASK
    return x - (1 << 32) if x >= (1 << 31) else x


def to_int64(x):
    x &= _INT64_MASK
    return x - (1 << 64) if x >= (1 << 63) else x


def to_int8(x):
    x &= 0xFF
    return x - 256 if x >= 128 else x


def java_div(a, b):
    """Integer division truncating toward zero, as in Java (and C)."""
    if b == 0:
        raise RuntimeFault("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def java_rem(a, b):
    if b == 0:
        raise RuntimeFault("integer remainder by zero")
    return a - java_div(a, b) * b


def float32_round(x):
    """Round a double to the nearest float32 value (the (float) cast)."""
    return float(np.float32(x))


def wrap_for(kind, x):
    """Wrap an integer result to the width of ``kind``."""
    if kind is PrimKind.INT:
        return to_int32(x)
    if kind is PrimKind.LONG:
        return to_int64(x)
    if kind is PrimKind.BYTE:
        return to_int8(x)
    return x

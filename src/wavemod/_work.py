"""Work areas: the arrays a chunk job writes, kept for the life of the process.

A work area holds named flat buffers, each grown to the largest request and
then kept, so a chunk after the first touches no fresh pages.  Areas sit on
one process-wide free list.  :func:`borrowed` lends the calling thread an
area for one chunk job and hands it back after, so the process keeps one
area per job that ever ran at the same time, each sized to the largest chunk
seen, whatever threads ran them.  :func:`area` is the area lent to the
calling thread; outside a job it is a fresh one, so a call made there gets
fresh arrays and keeps nothing.

A module that takes buffers from an area names each one with its own
module name as prefix (``sim.frames``, ``gfdm.gemm_in``), so no module can
overwrite another's.  :meth:`WorkArea.get` hands out the named buffer and
overwrites what it held: the module that owns a name keeps the buffer live
only until a later stage of its own has read it.  A module that takes no
buffers keeps no arrays: its per-chunk helpers work through their input
:data:`BLOCK` elements at a time.
"""

import math
import threading
from contextlib import contextmanager

import numpy as np

# Elements per pass of the helpers that keep no arrays: their temporaries
# stay under 128 KB, a size the allocator reuses from its heap instead of
# mapping fresh pages for each call.
BLOCK = 8192

_free = []  # areas not lent to a job; list.pop and append are atomic
_lent = threading.local()


class WorkArea:
    """Named buffers; :meth:`get` views one as an array, overwriting what it held."""

    def __init__(self):
        self._flat = {}

    def get(self, name: str, shape, dtype=complex) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = math.prod(shape) * dtype.itemsize
        flat = self._flat.get(name)
        if flat is None or flat.size < nbytes:
            flat = self._flat[name] = np.empty(nbytes, dtype=np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)


def area() -> WorkArea:
    """The area lent to the calling thread's chunk job; a fresh one outside any job."""
    held = getattr(_lent, "area", None)
    return WorkArea() if held is None else held


@contextmanager
def borrowed():
    """Lend the calling thread an area from the free list until the block ends."""
    try:
        held = _free.pop()
    except IndexError:
        held = WorkArea()
    _lent.area = held
    try:
        yield held
    finally:
        _lent.area = None
        _free.append(held)

"""Work areas: the arrays a chunk job writes, kept for the life of the process.

A work area holds named flat buffers, each grown to the largest request and
then kept, so a chunk after the first touches no fresh pages.  Areas sit on
one process-wide free list.  :func:`borrowed` lends the calling thread an
area for one chunk job and hands it back after, so the process keeps one
area per job that ever ran at the same time, each sized to the largest chunk
seen, whatever threads ran them.  :func:`area` is the area lent to the
calling thread; outside a job it is a fresh one, so a call made there gets
fresh arrays and keeps nothing.

Two modules take buffers from an area, each under names prefixed with its
own module name, so neither can overwrite the other's:

- ``sim`` owns a chunk's stages, from the noise draw to the decided and
  sent labels, and hands its buffers to the library through ``out=`` and
  ``hf=`` arguments.  Each holds one stage's output until a later stage has
  read it.  The scaled noise is written straight into the leading columns
  of ``sim.equalized``, where zero forcing transforms it in place, and
  ``sim.response`` ends the chunk holding the inverse channel response; the
  demodulator writes its estimates over the sent symbols, which the frames
  have replaced by then.
- ``gfdm`` keeps the OQAM modem's two GEMM operands, which live only
  within one call.  The modulator's subsymbol transform, (M, frames, K),
  shares ``gfdm.gemm_out``: it sits there until the (K, 2M, frames)
  ``gfdm.gemm_in`` has copied it, and the GEMM then writes its block-major
  (blocks, K, frames) product there, which is copied into the frames one
  block at a time.  The demodulator reads the frames block-major into
  ``gfdm.gemm_in``, (blocks, K, frames), has the GEMM write the
  subsymbol-major (2M, K, frames) correlations to ``gfdm.gemm_out``, folds
  their mirrored half into the spent ``gfdm.gemm_in`` and copies that into
  its output rows one subsymbol at a time.

The other modules keep no arrays: their per-chunk helpers work through
their input :data:`BLOCK` elements at a time.
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

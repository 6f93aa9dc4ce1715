"""Scratch float arrays that the chunks of one cubature share.

Its one consumer is a weight's jet (`WeightFn._jet`, `WeightSum._jet`), which
writes the value, gradient and Hessian columns and its temporaries into arrays
taken from a `Workspace` with numpy `out=` arguments. `futaki_numeric`'s
integrand opens one frame per chunk of nodes around the Abreu kernel, which
hands the workspace on to `v._jet`, so each chunk takes the same arrays in the
same order as the first: after the first chunk the jet allocates nothing, and
frees nothing for the C allocator to hand back to the system and fault in again.
"""

from __future__ import annotations

from math import prod

import numpy as np


class Workspace:
    """A stack of float buffers handed out as uninitialised arrays.

    `take(*shape)` returns a view of the next buffer in line, allocated when
    first asked for and replaced by a larger one only if it is too small.
    `with work.frame():` hands back, on exit, every array taken inside it for
    the next take to reuse. Until that take such an array stays intact, so a
    frame may return one to a caller that reads it before taking again; what
    must outlive later takes is taken before the frame opens. A caller taking
    the same shapes in the same order, with no more nodes than the first
    time, allocates nothing. A fresh `Workspace()` serves one evaluation.
    """

    __slots__ = ("_buffers", "_top", "_marks")

    def __init__(self):
        self._buffers, self._top, self._marks = [], 0, []

    def take(self, *shape):
        top, buffers = self._top, self._buffers
        self._top = top + 1
        if top < len(buffers):
            buffer = buffers[top]
            if buffer.shape == shape:
                return buffer
            if buffer.size >= prod(shape):
                return buffer.reshape(-1)[:prod(shape)].reshape(shape)
        buffers[top:top + 1] = [np.empty(shape)]  # a new buffer, or a larger one in its place
        return buffers[top]

    def frame(self):
        self._marks.append(self._top)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._top = self._marks.pop()

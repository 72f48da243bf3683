"""The channel's RNG stream: ``random.Random`` plus one vector draw.

Every fixed-seed golden and committed counter (frames, drops, collisions,
delivery, coverage) is downstream of the channel drawing CPython's Mersenne
Twister stream one scalar ``random()`` per receiver, in attach order.  The
vectorized fan-out keeps that stream by drawing the same doubles in the same
order and handing them over as one array: :meth:`CompatRng.random_vector`.
Everything else is the stdlib generator itself, so seeding, doubles and
integers are bit-identical by construction.

Equivalence is pinned by ``tests/test_rng_shim.py`` (mixed
``randint``/``random``/vector interleavings against ``random.Random``) and,
end-to-end, by the delivery hypothesis property and the fixed-seed goldens.
"""

from __future__ import annotations

from random import Random

from repro.radio._np import np


class CompatRng(Random):
    """A ``random.Random`` whose only addition is :meth:`random_vector`.

    ``random``, ``randint`` and ``getrandbits`` are named in the class body
    so that per-call wrappers can be installed on (and removed from) this
    class alone.  Naming ``getrandbits`` also keeps ``Random``'s subclass hook
    from switching ``randint`` to its ``random()``-based fallback, which would
    draw a different stream.
    """

    getrandbits = Random.getrandbits
    random = Random.random
    randint = Random.randint

    def random_vector(self, count: int) -> "np.ndarray":
        """``count`` doubles in one array, consuming the stream exactly like
        ``count`` successive :meth:`random` calls.

        This is the fan-out contract: the delivery path orders receivers by
        attach sequence and draws one vector, so element ``i`` is the very
        double receiver ``i`` would have drawn from the scalar loop.  The
        stdlib ``random`` is bound directly, so a wrapper installed on
        :meth:`random` does not see these draws.
        """
        draw = Random.random.__get__(self)
        return np.fromiter(iter(draw, None), float, count)

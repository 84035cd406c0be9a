"""Weight initialisers used by the neural-network layers."""

from __future__ import annotations

import numpy as np

from repro.utils import make_rng, prod


def kaiming_normal(shape: tuple[int, ...], *, fan_in: int | None = None,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """He-normal initialisation suited to ReLU networks.

    ``fan_in`` defaults to the product of all but the first dimension, which
    matches the convention for both conv weights ``(C_out, C_in, KH, KW)``
    and linear weights ``(out, in)``.
    """
    rng = rng or make_rng()
    if fan_in is None:
        fan_in = prod(shape[1:]) if len(shape) > 1 else shape[0]
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


class NormalStream:
    """The standard-normal draws of ``make_rng(seed)``, drawn once and replayed.

    ``Generator.normal(0, std, n)`` equals ``std * standard_normal(n)`` bit
    for bit, and a generator's consecutive draws are the leading values of
    one longer draw.  So the object :meth:`replay` returns stands in for a
    fresh ``make_rng(seed)`` as far as ``normal`` draws go: a module built
    with it gets exactly the weights that generator would give, as scaled
    slices of one array instead of new draws.  The array is extended with
    the same generator's next draws when a replay reads past its end.

    Example::

        stream = NormalStream(0)
        conv = Conv2d(16, 16, 3, rng=stream.replay())  # same as rng=make_rng(0)
    """

    def __init__(self, seed: int):
        self._generator = make_rng(seed)
        self._values = np.empty(0)

    def take(self, start: int, count: int) -> np.ndarray:
        """Draws ``start`` to ``start + count`` of the seed's stream."""
        end = start + count
        if end > self._values.size:
            extra = self._generator.standard_normal(end - self._values.size)
            # ``normal`` computes ``loc + std * z``: at loc 0 that is
            # ``std * z`` except for z = -0.0, whose sum is +0.0.
            extra += 0.0
            self._values = np.concatenate((self._values, extra))
        return self._values[start:end]

    def replay(self) -> "ReplayedNormals":
        """A stand-in for a fresh ``make_rng(seed)``, starting at the first draw."""
        return ReplayedNormals(self)


class ReplayedNormals:
    """The ``normal`` draws of a fresh ``make_rng(seed)``, read from a :class:`NormalStream`.

    Example::

        weights = NormalStream(0).replay().normal(0.0, 0.1, size=(8, 4))
    """

    def __init__(self, stream: NormalStream):
        self._stream = stream
        self._position = 0

    def normal(self, loc: float, scale: float, size: int | tuple[int, ...]) -> np.ndarray:
        """The generator's next ``normal(loc, scale, size)`` draw.

        Bit for bit at ``loc == 0``, the mean every initialiser draws with.
        """
        shape = (size,) if isinstance(size, int) else tuple(size)
        count = prod(shape)
        values = scale * self._stream.take(self._position, count)
        self._position += count
        if loc:
            values += loc
        return values.reshape(shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)

"""The seeded call stream of the ``call_stream`` workload.

The stream calls the small functions of ``stream.m`` from one client.
After a fixed priming segment it is built from segments of 100 operations
with a fixed mix, shuffled by the seed, so every seed does the same kinds
of work in a different order and with different values:

* ``repeat``: the same argument objects every time (one hot tuple per
  function);
* ``vary``: a fresh real scalar on every call;
* ``shape``: arguments drawn from a per-function pool that covers real,
  integer-valued, logical and complex arrays from 1x1 up to 8x8 (see
  ``POOL``);
* one redefinition of ``poly2`` per segment (1% of operations); ``poly2``
  only ever sees scalars, so each redefinition costs a few recompiles.

Redefinitions toggle ``poly2`` between two constant terms and a pass has an
even number of segments, so a pass ends with the sources it started with
and can be replayed: the interpreter reference of one pass holds for
every pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.runtime.values import from_python

from programs import derive

SOURCE = (Path(__file__).parent / "stream.m").read_text()
SEGMENTS = 40
#: The functions called and, per function, its calls in one segment:
#: (repeat, vary, shape).  With the redefinition that makes 100 operations.
MIX = {
    "axpy": (9, 7, 4),
    "sumsq": (9, 7, 4),
    "combo": (9, 7, 4),
    "count": (9, 7, 4),
    "poly2": (10, 9, 0),
}
#: The (class, shape) pairs of every function's ``shape`` pool: real,
#: integer-valued, logical and complex, from 1x1 up to 8x8.  The same for
#: every seed, so the versions compiled are too; only values change.
#: Complex values are never 1x1: a 1x1 complex operand takes the JIT's
#: raw-scalar path, whose complex arithmetic differs from the
#: interpreter's NumPy arithmetic in the last ulp (a known defect, also
#: skipped by tests/test_native.py), and every run would fail its output
#: check on it.
POOL = (
    ("real", (1, 1)), ("real", (8, 8)),
    ("int", (1, 1)), ("int", (3, 1)),
    ("bool", (2, 2)), ("bool", (1, 8)),
    ("complex", (4, 4)), ("complex", (2, 2)),
)


def poly2_source(constant: int) -> str:
    """``poly2`` with the given constant term (the redefinition text)."""
    return (
        "function z = poly2(x)\n"
        f"z = 3 * x .* x - 2 * x + {constant};\n"
    )


@dataclass(frozen=True)
class Op:
    """One stream operation: a call (``args`` boxed) or a redefinition."""

    kind: str                  # "repeat", "vary", "shape" or "define"
    name: str
    args: tuple = ()
    source: str = ""


def _array(rng, klass: str, shape: tuple) -> np.ndarray:
    if klass == "real":
        return rng.standard_normal(shape)
    if klass == "int":
        return rng.integers(-9, 10, shape).astype(np.float64)
    if klass == "bool":
        return rng.random(shape) > 0.5
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _host_args(name: str, x) -> list:
    """The argument list of one call: ``x`` plus fixed scalar companions."""
    if name == "axpy":
        return [3.0, x, 1.5]
    if name == "combo":
        return [x, 2.0]
    if name == "count":
        return [x, 0.5]
    return [x]


def _boxed(values) -> tuple:
    return tuple(from_python(v) for v in values)


def build_stream(seed: int) -> list[Op]:
    """One pass of the stream for ``seed``.

    The pass opens with a priming segment in a fixed order: per function
    its hot call, its pool and two ``vary`` calls (which make the
    repository widen the scalar's range).  The first pass of a session
    therefore compiles the same versions whatever the seed, and the
    seeded segments after it only reuse them (``poly2`` aside)."""
    rng = np.random.default_rng(derive(seed, "stream"))
    hot = {name: _boxed(_host_args(name, 2.5)) for name in MIX}
    pool = {
        name: [_boxed(_host_args(name, _array(rng, klass, shape)))
               for klass, shape in POOL]
        for name in MIX
    }

    def vary(name):
        return Op("vary", name, _boxed(_host_args(name, float(rng.standard_normal()))))

    ops: list[Op] = []
    for name, (_, _, shape) in MIX.items():
        ops.append(Op("repeat", name, hot[name]))
        ops += [Op("shape", name, args) for args in pool[name][: len(POOL) if shape else 0]]
        ops += [vary(name), vary(name)]
    constant = 1
    for index in range(SEGMENTS):
        segment: list[Op] = []
        for name, (repeat, varied, shape) in MIX.items():
            segment += [Op("repeat", name, hot[name])] * repeat
            segment += [vary(name) for _ in range(varied)]
            segment += [
                Op("shape", name, pool[name][int(rng.integers(len(POOL)))])
                for _ in range(shape)
            ]
        order = rng.permutation(len(segment))
        segment = [segment[i] for i in order]
        constant = 3 - constant
        # The last redefinition ends the pass, so every pass ends with the
        # same versions held (``code_kb`` is measured there).
        last = index == SEGMENTS - 1
        at = len(segment) if last else int(rng.integers(len(segment) + 1))
        segment.insert(at, Op("define", "poly2", source=poly2_source(constant)))
        ops += segment
    if constant != 1:
        raise ValueError("a pass must end with the sources it started with")
    return ops

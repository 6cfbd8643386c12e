"""Seeded inputs for the Table 1 programs.

A run's seed picks the program order, the right-hand sides of the linear
solvers, and the MATLAB random stream (``rand``) that ``fractal`` starts
from.  Problem sizes never depend on the seed, so the work a run does is
the same for every seed and only the data changes.

Two scales are used.  ``default`` is the registry's own problem size
(``steady_run``).  ``small`` shrinks every problem until the compile phases
are most of a first call (``cold_start`` and ``warm_start``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.benchsuite.registry import benchmark, benchmark_names, source_of
from repro.benchsuite.workloads import workload_for

#: Problem sizes at which compiling is most of a first call.  Only sizes,
#: iteration counts and step lengths shrink; every program keeps the
#: classes and the array-ness of its default arguments.
SMALL_SCALE = {
    "adapt": (6, 1e-3),
    "cgopt": (20, 1e-10, 40),
    "crnich": (8, 8, 1.0),
    "dirich": (6, 0.5, 4),
    "finedif": (8, 8, 1.0),
    "galrkn": (20,),
    "icn": (8,),
    "mei": (6, 4),
    "orbec": (50, 0.0005),
    "orbrk": (30, 0.002),
    "qmr": (20, 1e-10, 40),
    "sor": (16, 1.5, 1e-6, 40),
    "ackermann": (2, 2),
    "fractal": (100,),
    "mandel": (8, 6),
    "fibonacci": (8,),
}


@dataclass(frozen=True)
class ProgramCall:
    """One Table 1 call: the sources it needs and its seeded inputs."""

    name: str
    sources: tuple[str, ...]
    args: tuple            # host values (numpy arrays and floats)
    rng_seed: int          # GLOBAL_RANDOM seed set before every call (0
                           # unless the program draws random numbers)


def derive(seed: int, *labels) -> int:
    """A stable 32-bit sub-seed for one labelled use of the run seed."""
    text = ":".join([str(seed), *map(str, labels)]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def _args(name: str, scale: tuple, seed: int) -> list:
    """The registry's arguments, with a seeded right-hand side for the
    three solvers.  The other matrix inputs stay the registry's: at
    default size the interpreter needs about 11 s to check icn and mei, too
    long to repeat for every seed."""
    args = workload_for(name, scale)
    if name in ("cgopt", "qmr", "sor"):
        n = int(scale[0])
        args[1] = np.random.default_rng(derive(seed, "rhs", name)).random((n, 1))
    return args


def program_calls(scale: str, seed: int) -> list[ProgramCall]:
    """Every Table 1 program at ``scale`` ("small" or "default"), in the
    order the seed picks."""
    names = list(benchmark_names())
    np.random.default_rng(derive(seed, "order", scale)).shuffle(names)
    calls = []
    for name in names:
        spec = benchmark(name)
        size = SMALL_SCALE[name] if scale == "small" else spec.default_scale
        calls.append(ProgramCall(
            name=name,
            sources=(source_of(name),) + tuple(source_of(h) for h in spec.helpers),
            args=tuple(_args(name, tuple(size), seed)),
            rng_seed=derive(seed, "rand", name) % 100_000 if spec.randomized else 0,
        ))
    return calls

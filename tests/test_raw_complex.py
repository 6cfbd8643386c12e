"""The JIT's raw complex-capable scalar helpers match the interpreter.

Compiled code keeps 1x1 values as host scalars and runs ``sqrt``, ``log``,
``exp``, ``abs``, products, quotients and powers through the ``c_*``
helpers of ``codegen.runtime_support``.  The interpreter runs the same
operations as NumPy loops over 1x1 arrays.  Both must give the same bits,
the same NaN signs and the same real/complex class.
"""

from __future__ import annotations

import itertools
import random
import warnings

import numpy as np
import pytest

from repro import MajicSession
from repro.codegen import runtime_support as rs
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.runtime.display import OutputSink
from repro.runtime.values import from_python

SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.5, 3.0, -7.0,
            float("nan"), -float("nan"), float("inf"), -float("inf")]
_rng = random.Random(20020617)
COMPLEX = ([complex(a, b) for a in SPECIALS for b in SPECIALS]
           + [complex(_rng.uniform(-9, 9), _rng.uniform(-9, 9))
              for _ in range(300)])
REALS = SPECIALS + [_rng.uniform(-9, 9) for _ in range(40)]


def _array(x) -> np.ndarray:
    return np.array([[x]], dtype=complex if isinstance(x, complex) else float)


def _same(got, want) -> bool:
    """Equal bits and equal real/complex class."""
    return (isinstance(got, complex) == np.iscomplexobj(want)
            and np.complex128(got).tobytes() == np.complex128(want).tobytes())


@pytest.mark.parametrize("name", ["sqrt", "log", "exp", "abs"])
def test_unary_helpers_match_numpy_loops(name):
    helper = getattr(rs, f"c_{name}")
    ufunc = {"sqrt": np.sqrt, "log": np.log, "exp": np.exp,
             "abs": np.abs}[name]
    operands = COMPLEX if name == "exp" else COMPLEX + REALS
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for x in operands:
            view = _array(x)
            if name in ("sqrt", "log") and not isinstance(x, complex) \
                    and x < 0.0:
                view = view.astype(np.complex128)
            want = ufunc(view)[0, 0]
            assert _same(helper(x), want), (name, x, helper(x), want)


@pytest.mark.parametrize("name", ["mul", "div", "pow"])
def test_binary_helpers_match_elementwise(name):
    from repro.runtime import elementwise as ew

    helper = getattr(rs, f"c_{name}")
    runtime = {"mul": ew.mlf_times, "div": ew.mlf_rdivide,
               "pow": ew.mlf_power}[name]
    pairs = list(itertools.product(COMPLEX[:169], COMPLEX[:169] + REALS[:13]))
    pairs += [(x, y) for x, y in itertools.product(REALS, COMPLEX)]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for x, y in pairs:
            got = helper(x, y)
            want = runtime(from_python(_array(x)),
                           from_python(_array(y))).view()[0, 0]
            if name == "mul" and np.isfinite(want):
                # Finite products may differ in the last bit where NumPy
                # fuses the multiply-add; exact operands never do.
                if got != want:
                    assert abs(got - want) <= 4e-16 * abs(want), (x, y)
                continue
            assert _same(got, want), (name, x, y, got, want)


def test_log_of_nan_stays_real_through_compiled_code():
    source = "function y = f(a, b, c)\ny = log(abs(a) + 1.0) .* b - c;\n"
    args = [from_python(np.array([[v]])) for v in (float("nan"), 0.0, 0.0)]
    table = {fn.name: fn for fn in parse(source).functions}
    interp = Interpreter(function_lookup=table.get, sink=OutputSink())
    truth = interp.call_function(table["f"], list(args), 1)[0]
    session = MajicSession()
    session.add_source(source)
    compiled = session.call_boxed("f", list(args), nargout=1)[0]
    session.close()
    assert compiled.klass is truth.klass
    assert compiled.view().tobytes() == truth.view().tobytes()

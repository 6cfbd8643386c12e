"""The repository's single dispatch path (Section 2.2.1's locator behind a
per-function inline cache).

The inline cache must be invisible except in cost: a repeated call shape
skips the locator and builds no :class:`Signature`, while every version it
serves is one the locator's safety check accepts for that invocation, and
every result stays bit-identical to the interpreter across redefinitions,
speculative passes and tier switches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.typesys.signature as signature_module
from repro import MajicSession
from repro.errors import MatlabError
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.repository.repo import INLINE_CACHE_ENTRIES, CodeRepository
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import IntrinsicClass
from repro.runtime.values import from_python
from repro.tiering import TieringPolicy

INC = "function y = inc(x)\ny = x + 1;\n"
ADD = "function y = add(x, k)\ny = x + k;\n"


def _count_locates(repo) -> list:
    """Record every locator run of ``repo``; returns the growing log."""
    seen = []
    locate = repo.locate

    def counted(invocation):
        seen.append(invocation.name)
        return locate(invocation)

    repo.locate = counted
    return seen


def _count_type_of_value(monkeypatch) -> list:
    seen = []
    original = signature_module.type_of_value

    def counted(value):
        seen.append(value)
        return original(value)

    monkeypatch.setattr(signature_module, "type_of_value", counted)
    return seen


def _check_served_safely(repo) -> list:
    """Assert, for every version run (inline-cache hit or miss), the
    locator's safety check (``Qi ⊑ Ti`` after arity padding); returns the
    versions run."""
    served = []
    run = repo._guarded_invoke

    def checked(invocation, obj):
        assert len(obj.signature) >= len(invocation.args)
        padded = CodeRepository._pad_signature(
            invocation.signature, len(obj.signature)
        )
        assert obj.signature.accepts(padded), (
            f"{invocation.name} served {obj.signature} for {padded}"
        )
        served.append(obj)
        return run(invocation, obj)

    repo._guarded_invoke = checked
    if repo.tiering is None:
        repo._serve = checked  # a static session's inline-cache hit step
    return served


class TestInlineCache:
    def test_exact_range_version_serves_repeats_without_locate(self):
        session = MajicSession()
        session.add_source(INC)
        locates = _count_locates(session.repository)
        assert session.call("inc", 3.0) == 4.0
        assert len(locates) == 1
        for _ in range(5):
            assert session.call("inc", 3.0) == 4.0
        assert len(locates) == 1
        assert session.stats.jit_compiles == 1

    def test_alternating_repeated_and_varying_args_stop_locating(self):
        session = MajicSession()
        session.add_source(INC)
        locates = _count_locates(session.repository)
        for value in (3.0, 4.0, 3.0, 5.0):  # exact, then widened version
            assert session.call("inc", value) == value + 1
        warm = len(locates)
        for value in (3.0, 7.0, 3.0, 8.0, 3.0, 9.0):
            assert session.call("inc", value) == value + 1
        assert len(locates) == warm

    def test_signature_built_once_per_argument_on_compiling_miss(
        self, monkeypatch
    ):
        session = MajicSession()
        session.add_source(ADD)
        seen = _count_type_of_value(monkeypatch)
        assert session.call("add", 2.0, 3.0) == 5.0
        assert session.stats.jit_compiles == 1
        assert len(seen) == 2
        assert session.call("add", 2.0, 3.0) == 5.0
        assert len(seen) == 2

    def test_signature_built_once_per_argument_on_promoting_miss(
        self, monkeypatch
    ):
        session = MajicSession(
            adaptive=True, adaptive_sync=True,
            tiering=TieringPolicy(jit_threshold=1.0, spec_threshold=1e9),
        )
        session.add_source(ADD)
        seen = _count_type_of_value(monkeypatch)
        # Interpreted now, promoted to the JIT inline by the controller.
        assert session.call("add", 2.0, 3.0) == 5.0
        assert session.stats.jit_compiles == 1
        assert len(seen) == 2
        session.call("add", 2.0, 3.0)  # locates the promoted version
        seen.clear()
        assert session.call("add", 2.0, 3.0) == 5.0
        assert session.stats.calls_jit >= 1
        assert seen == []

    @pytest.mark.parametrize(
        "value", [5.0, -3.0, math.nan, math.inf, -math.inf, 3.5]
    )
    def test_values_outside_an_exact_range_miss(self, value):
        session = MajicSession()
        session.add_source(INC)
        served = _check_served_safely(session.repository)
        assert session.call("inc", 3.0) == 4.0
        exact = served[-1]
        result = session.call("inc", value)
        assert result == value + 1 or (math.isnan(value) and math.isnan(result))
        assert served[-1] is not exact

    @pytest.mark.parametrize("row", [
        [2.0, 2.5, 2.0],            # inside [1.5, 3]: the bounded version
        [0.5, 2.5, 9.5],            # outside
        [1.5, math.nan, 3.0],       # NaN: type_of_value gives top
        [1.5, math.inf, 2.0],
    ])
    def test_array_range_guard_uses_min_and_max(self, row):
        session = MajicSession()
        session.add_source("function y = sq(x)\ny = x .* x;\n")
        served = _check_served_safely(session.repository)
        session.call("sq", np.array([[1.5, 2.0, 3.0]]))
        (bounded,) = session.repository.versions_of("sq")
        out = session.call("sq", np.array([row]))
        np.testing.assert_array_equal(out, np.array([row]) ** 2)
        inside = all(1.5 <= v <= 3.0 for v in row)
        assert (served[-1] is bounded) == inside

    def test_entries_per_function_are_bounded(self):
        session = MajicSession()
        session.add_source(
            "function y = tot(x)\ny = x * 2;\n"
            "for i = 1:numel(x)\n  y(i) = x(i) + 1;\nend\n"
        )
        session.speculate_all()  # one version serves every shape below
        (spec,) = session.repository.versions_of("tot")
        locates = _count_locates(session.repository)
        for n in range(1, 3 * INLINE_CACHE_ENTRIES):
            session.call("tot", np.ones((1, n)))
        assert session.repository.versions_of("tot") == [spec]
        assert len(locates) == 3 * INLINE_CACHE_ENTRIES - 1
        assert len(session.repository._ic["tot"]) == INLINE_CACHE_ENTRIES

    def test_version_dropped_after_locate_is_never_cached(self):
        """A redefinition landing between the locator's answer and the
        cache fill (a background store, or another caller) must not leave
        the dropped version cached: later calls run the new body."""
        session = MajicSession()
        session.add_source(INC)
        session.speculate_all()
        repo = session.repository
        locate = repo.locate

        def locate_then_redefine(invocation):
            found = locate(invocation)
            repo.locate = locate
            session.add_source("function y = inc(x)\ny = x + 2;\n")
            return found

        repo.locate = locate_then_redefine
        assert session.call("inc", 3.0) == 4.0  # began before the change
        assert session.call("inc", 3.0) == 5.0
        assert session.call("inc", 3.0) == 5.0

    def test_close_reselects_the_run_step(self):
        session = MajicSession(run_deadline=5.0)
        session.add_source(INC)
        assert session.call("inc", 3.0) == 4.0
        session.close()
        assert session.repository.guard.run_deadline is None
        assert session.call("inc", 3.0) == 4.0


# ----------------------------------------------------------------------
# Sequence property: one long-lived session vs a fresh interpreter
# ----------------------------------------------------------------------
LIBRARY = {
    "f": (
        "function y = f(x)\ny = x + 1;\n",
        "function y = f(x)\ny = 2 .* x - 1;\n",
    ),
    "g": (
        "function y = g(x, k)\ny = x .* k + x;\n",
        "function y = g(x, k)\ny = k - x;\n",
    ),
    "h": (
        "function y = h(x)\ny = f(x) .* 3;\n",
        "function y = h(x)\ny = f(x) + f(2);\n",
    ),
}
ARITY = {"f": 1, "g": 2, "h": 1}

_reals = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([0.5, -2.25, math.nan, math.inf, -math.inf, -0.0]),
)
_scalars = st.one_of(
    _reals,
    st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
    st.booleans(),
)
_arrays = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.sampled_from([float, complex])
).flatmap(
    lambda shape: st.lists(
        _reals, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda xs: np.array(xs, dtype=shape[2]).reshape(shape[:2]))
)
_values = st.one_of(_scalars, _scalars, _arrays)
_ops = st.one_of(
    st.tuples(st.just("call"), st.sampled_from(sorted(LIBRARY)),
              st.lists(_values, min_size=2, max_size=2)),
    st.tuples(st.just("redefine"), st.sampled_from(sorted(LIBRARY)),
              st.integers(0, 1)),
    st.tuples(st.just("speculate"), st.none(), st.none()),
)


def _canon(outputs):
    """Bit-identity as the fuzz runner defines it: shape, dtype and raw
    bytes (NaN payloads and signed zeros included)."""
    canon = []
    for value in outputs:
        data = np.ascontiguousarray(value.view())
        canon.append((data.shape, str(data.dtype), data.tobytes()))
    return canon


def _raw_complex(value) -> bool:
    """A 1x1 complex operand takes the JIT's raw-scalar path, whose host
    complex arithmetic is a known defect (ROADMAP): it can differ from the
    interpreter's NumPy in the last ulp, or narrow a zero imaginary part
    to a real result.  Such calls still run and are safety-checked, but
    are not compared, as in tests/test_native.py."""
    return value.klass is IntrinsicClass.COMPLEX and value.is_scalar


def _reference(sources, name, args):
    table = {}
    for text in sources.values():
        for fn in parse(text).functions:
            table[fn.name] = fn
    interp = Interpreter(function_lookup=table.get, sink=OutputSink())
    try:
        return _canon(interp.call_function(table[name], args, 1))
    except MatlabError as exc:
        return str(exc)


def _served(session, name, args):
    try:
        return _canon(session.call_boxed(name, args))
    except MatlabError as exc:
        return str(exc)


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=st.lists(_ops, min_size=4, max_size=24))
def test_call_sequences_bit_identical_and_safely_served(adaptive, ops):
    kwargs = {}
    if adaptive:
        kwargs = dict(
            adaptive=True, adaptive_sync=True,
            tiering=TieringPolicy(jit_threshold=1.0, spec_threshold=3.0),
        )
    session = MajicSession(seed=None, **kwargs)
    sources = {name: variants[0] for name, variants in LIBRARY.items()}
    for text in sources.values():
        session.add_source(text)
    _check_served_safely(session.repository)
    try:
        for kind, name, payload in ops:
            if kind == "redefine":
                sources[name] = LIBRARY[name][payload]
                session.add_source(sources[name])
            elif kind == "speculate":
                session.speculate_all()
            else:
                values = payload[: ARITY[name]]
                if name == "g" and not np.isscalar(values[1]):
                    values[1] = 2.0  # k stays scalar: shapes must agree
                actual = _served(
                    session, name, [from_python(v) for v in values]
                )
                boxed = [from_python(v) for v in values]
                if any(_raw_complex(v) for v in boxed):
                    continue
                assert actual == _reference(sources, name, boxed), (
                    name, values
                )
    finally:
        session.close()

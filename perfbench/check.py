"""Interpreter references and the output check.

Every timed operation's outputs are compared with what the plain
interpreter (``repro.interp``) returns for the same call.  Two outputs
agree when their canonical forms agree: logical shape, dtype, the bytes
of the logical view, and the MATLAB display text.  The intrinsic-class
tag is left out, as in the repository's own differential tests: compiled
code boxes integer-valued results as ``INT`` where the interpreter keeps
``REAL``, with identical data and display.  A value that is not an
``MxArray`` falls back to ``repro.benchsuite.workloads.checksum``.

References are computed outside every timed phase and outside set-up, in
a child process (so the measured process's peak RSS never includes the
interpreter's), and stored under ``.perfbench_cache/refs`` in the
checkout, one file per program (keyed by its name, sources and inputs)
or per stream (keyed by the seed), together with a digest of the whole
``src/repro`` tree and the benchmark's own sources.  A change to any of
those files recomputes them; a program whose inputs do not depend on the
seed is interpreted once per checkout.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from repro.benchsuite.workloads import checksum
from repro.frontend.parser import parse
from repro.interp.interpreter import Interpreter
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink, format_value
from repro.runtime.mxarray import MxArray
from repro.runtime.values import from_python

ROOT = Path(__file__).resolve().parent.parent
REF_DIR = ROOT / ".perfbench_cache" / "refs"


def source_digest(*bases: Path) -> str:
    """SHA-256 over every file under ``bases`` (default ``src/repro``)."""
    digest = hashlib.sha256()
    for base in bases or (ROOT / "src" / "repro",):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def canonical(value) -> tuple:
    """The comparable form of one output."""
    if not isinstance(value, MxArray):
        return ("host", checksum(value))
    if value.is_string:
        return ("string", value.text)
    view = value.view()
    return ("array", value.rows, value.cols, view.dtype.str, view.tobytes())


class Checker:
    """Compares outputs with references and counts the verdicts.

    The display text is computed once per distinct canonical form.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._display: dict = {}

    def _display_of(self, form: tuple, value) -> str:
        text = self._display.get(form)
        if text is None:
            text = format_value(value) if isinstance(value, MxArray) else repr(value)
            self._display[form] = text
        return text

    def check(self, label: str, outputs, reference) -> bool:
        """One operation's outputs against its reference (a tuple of
        ``(canonical, display)`` pairs)."""
        self.attempted += 1
        got = tuple(
            (form, self._display_of(form, value))
            for form, value in ((canonical(v), v) for v in outputs)
        )
        if got == reference:
            return True
        self.fail(label, "output differs from the interpreter reference")
        return False

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")

    def count_error(self, label: str, exc: BaseException) -> None:
        """An operation that raised: attempted and failed."""
        self.attempted += 1
        self.fail(label, f"raised {type(exc).__name__}: {exc}")


def reference_of(outputs) -> tuple:
    return tuple(
        (canonical(v), format_value(v) if isinstance(v, MxArray) else repr(v))
        for v in outputs
    )


def interpreter_for(sources) -> tuple[Interpreter, dict]:
    """A bare interpreter over ``sources`` and its function table (which
    redefinitions update in place)."""
    table: dict = {}
    for text in sources:
        for fn in parse(text).functions:
            table[fn.name] = fn
    return Interpreter(function_lookup=table.get, sink=OutputSink()), table


def interpret(interp: Interpreter, table: dict, name: str, host_args,
              rng_seed: int | None = None) -> tuple:
    if rng_seed is not None:
        GLOBAL_RANDOM.seed(rng_seed)
    args = [from_python(a).copy() for a in host_args]
    return reference_of(interp.call_function(table[name], args, 1))


_CODE_DIGEST: list = []


def ref_key(*parts) -> str:
    """Cache key of one reference: ``parts`` plus the source digest of
    ``src/repro`` and of the benchmark itself."""
    if not _CODE_DIGEST:
        _CODE_DIGEST.append(source_digest(ROOT / "src" / "repro", Path(__file__).parent))
    digest = hashlib.sha256(_CODE_DIGEST[0].encode())
    digest.update(pickle.dumps(parts, protocol=4))
    return digest.hexdigest()[:32]


def load_ref(key: str):
    path = REF_DIR / f"{key}.pkl"
    if not path.exists():
        return None
    with path.open("rb") as handle:
        return pickle.load(handle)


def store_ref(key: str, value) -> None:
    REF_DIR.mkdir(parents=True, exist_ok=True)
    path = REF_DIR / f"{key}.pkl"
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as handle:
        pickle.dump(value, handle)
    tmp.replace(path)

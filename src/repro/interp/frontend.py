"""The MaJIC front end (Section 2).

Users interact with a MATLAB-compatible interpreter that executes top-level
code at roughly interpreter speed, but *defers computationally complex
tasks — function calls — to the code repository*: the front end builds an
:class:`Invocation` (function name + parameter values) and hands it to the
repository, which locates or compiles suitable code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.frontend.parser import parse
from repro.interp.environment import Environment
from repro.interp.interpreter import Interpreter
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.typesys.signature import Signature, signature_of_values


@dataclass
class Invocation:
    """A deferred function call passed from the front end to the
    repository (Section 2: "an invocation containing the name of a MATLAB
    function and the values of the parameters")."""

    name: str
    args: list[MxArray] = field(default_factory=list)
    nargout: int = 1

    @cached_property
    def signature(self) -> Signature:
        """Computed on first use, then reused by the locator, the JIT
        compile it triggers and the tier controller."""
        return signature_of_values(self.args)


class MajicFrontEnd:
    """Interactive front end: interprets top-level code, defers calls."""

    def __init__(self, repository, sink: OutputSink | None = None):
        self.repository = repository
        self.sink = sink if sink is not None else OutputSink()
        self.workspace = Environment()
        # Top-level calls of user functions defer to the repository.
        self.interpreter = Interpreter(
            function_lookup=repository.lookup_function,
            sink=self.sink,
            call_dispatcher=repository.dispatch,
        )

    # ------------------------------------------------------------------
    def eval(self, text: str) -> None:
        """Execute one chunk of top-level MATLAB code."""
        program = parse(text)
        if not program.is_script:
            raise ValueError(
                "function definitions belong in files on the path; "
                "use repository.add_source/add_path"
            )
        self.interpreter.run_statements(program.script, self.workspace)

    def call(self, name: str, args: list[MxArray], nargout: int = 1):
        """Invoke a function by name through the repository."""
        invocation = Invocation(name=name, args=list(args), nargout=nargout)
        return self.repository.execute(invocation)

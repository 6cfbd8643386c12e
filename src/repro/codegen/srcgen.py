"""The optimizing source-code generator (Section 2.6, "speculative mode").

Where the JIT emits three-address code through the vcode layer, this
generator builds *source* for the host toolchain — idiomatic, expression-
style code the host compiler optimizes further — and applies the expensive
optimizations the paper reserves for ahead-of-time compilation:

* expression-style emission (the "native compiler" quality effect);
* loop versioning: subscript checks hoisted into a single loop-entry guard
  (:mod:`repro.codegen.optimizations`) — the static counterpart of the
  JIT's range-based check removal;
* loop-invariant hoisting of pure scalar subexpressions and of array data
  pointers (enabled when the modelled native backend is strong, i.e.
  ``native_opt_level >= 2`` — the MIPS configuration);
* the shared selection rules: small-vector unrolling with pre-allocated
  temporaries and dgemv fusion (``majic_opts`` — disabled for the FALCON
  baseline, which relies on its backend instead).

Compilation through this pipeline is deliberately the slow path ("can take
several seconds" on the paper's machines): it runs several analysis passes
per loop and compiles a full source module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.disambiguate import DisambiguationResult, Disambiguator
from repro.analysis.symtab import SymbolKind
from repro.errors import CodegenError
from repro.frontend import ast_nodes as ast
from repro.inference.annotations import Annotations, SubscriptSafety
from repro.inference.engine import InferenceOptions, TypeInferenceEngine
from repro.codegen.jitgen import CompiledObject, PhaseTimes
from repro.codegen.runtime_support import COMPLEX_BINOPS, SCALAR_MATH
from repro.codegen.select import (
    BOXED,
    RAW_COMPLEX,
    RAW_INT,
    RAW_REAL,
    Selector,
    repr_of_type,
)
from repro.codegen.optimizations import (
    VersioningPlan,
    assigned_in,
    find_hoistable,
    plan_versioning,
)
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.signature import Signature
from repro.vcode.emit import EmittedFunction

_BINOP_PY = {
    "+": "+", "-": "-", "*": "*", ".*": "*",
    "/": "/", "./": "/", "^": "**", ".^": "**",
}
_CMP_PY = {"==": "==", "~=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_BINOP_HELPER = {
    "+": "g_add", "-": "g_sub", "*": "g_mul", ".*": "g_emul",
    "/": "g_div", "./": "g_ediv", "\\": "g_ldiv", ".\\": "g_eldiv",
    "^": "g_pow", ".^": "g_epow",
    "==": "g_eq", "~=": "g_ne", "<": "g_lt", "<=": "g_le",
    ">": "g_gt", ">=": "g_ge", "&": "g_and", "|": "g_or",
}


@dataclass
class SrcOptions:
    """Knobs distinguishing platforms and baselines."""

    native_opt_level: int = 1     # 1 = weak backend (SPARC), 2 = strong (MIPS)
    majic_opts: bool = True       # unrolling/prealloc/dgemv (off for FALCON)
    versioning: bool = True       # loop versioning of subscript checks
    inference: InferenceOptions = field(default_factory=InferenceOptions)
    # The paper's native toolchain spends seconds per compile; harnesses
    # may scale the *recorded* codegen time by this factor to model it.
    compile_cost_factor: float = 1.0


class SourceCompiler:
    """The ahead-of-time (speculative / FALCON-style) pipeline."""

    def __init__(
        self, options: SrcOptions | None = None, fault_plan=None, tracer=None
    ):
        from repro.obs.trace import NULL_TRACER

        self.options = options or SrcOptions()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def compile(
        self,
        fn: ast.FunctionDef,
        signature: Signature,
        disambiguation: DisambiguationResult | None = None,
        annotations: Annotations | None = None,
        mode: str = "spec",
        is_user_function=None,
        callee_oracle=None,
    ) -> CompiledObject:
        if self.fault_plan is not None:
            self.fault_plan.check("spec", fn.name)
        tracer = self.tracer
        times = PhaseTimes()
        start = time.perf_counter()
        if disambiguation is None:
            with tracer.span("disambiguation", "disambiguation",
                             function=fn.name, mode=mode):
                disambiguation = Disambiguator(
                    is_user_function or (lambda name: False)
                ).run_function(fn)
        times.disambiguation = time.perf_counter() - start

        start = time.perf_counter()
        if annotations is None:
            with tracer.span("type_inference", "type_inference",
                             function=fn.name, mode=mode):
                engine = TypeInferenceEngine(
                    options=self.options.inference, callee_oracle=callee_oracle
                )
                annotations = engine.infer(fn, signature, disambiguation)
        times.type_inference = time.perf_counter() - start

        start = time.perf_counter()
        with tracer.span("codegen", "codegen", function=fn.name, mode=mode):
            emitter = _SrcEmitter(fn, annotations, disambiguation, self.options)
            source = emitter.emit()
            namespace: dict = {}
            code = compile(source, f"<src:{fn.name}>", "exec")
            exec(code, namespace)
        times.codegen = (
            time.perf_counter() - start
        ) * self.options.compile_cost_factor

        emitted = EmittedFunction(
            name=emitter.fn_name,
            source=source,
            callable=namespace[emitter.fn_name],
            spill_count=0,
            instruction_count=source.count("\n"),
        )
        return CompiledObject(
            name=fn.name,
            signature=signature,
            emitted=emitted,
            annotations=annotations,
            param_reprs=emitter.param_reprs,
            output_reprs=emitter.output_reprs,
            mode=mode,
            phase_times=times,
        )


class _SrcEmitter:
    """Typed AST → expression-style Python source."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        options: SrcOptions,
    ):
        self.fn = fn
        self.ann = annotations
        self.dis = disambiguation
        self.options = options
        self.selector = Selector(
            fn, annotations,
            unroll_enabled=options.majic_opts,
            dgemv_enabled=options.majic_opts,
        )
        self.fn_name = f"src_{fn.name}"
        self.lines: list[str] = []
        self.depth = 1
        self.helpers: set[str] = set()
        self.var_kinds: dict[str, str] = {}
        self.forced_safe: set[int] = set()
        self.hoisted: dict[int, str] = {}
        self.data_alias: dict[str, str] = {}
        self.prologue: list[str] = []
        self._temp = 0
        self.param_reprs: list[str] = []
        self.output_reprs: list[str] = []
        self._int_counters = self._find_int_loop_counters()

    # ------------------------------------------------------------------
    def fresh(self, base: str = "t") -> str:
        self._temp += 1
        return f"_{base}{self._temp}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def helper(self, name: str) -> str:
        self.helpers.add(name)
        return f"_h_{name}"

    def var(self, name: str) -> str:
        return f"v_{name}"

    def var_kind(self, name: str) -> str:
        kind = self.var_kinds.get(name)
        if kind is None:
            if name in self._int_counters:
                kind = RAW_INT
            else:
                kind = self.selector.var_repr(name)
                info = self.dis.symbols.lookup(name)
                if info is not None and info.is_ambiguous:
                    kind = BOXED
            self.var_kinds[name] = kind
        return kind

    def _find_int_loop_counters(self) -> set[str]:
        loop_names: set[str] = set()
        other: set[str] = set()
        for stmt in ast.walk_stmts(self.fn.body):
            if isinstance(stmt, ast.For):
                var_type = self.ann.var_type(stmt.var)
                simple = isinstance(stmt.iterable, ast.Range) and (
                    stmt.iterable.step is None
                    or _const_int_step(self.ann, stmt.iterable.step) is not None
                )
                if simple and var_type.is_scalar and var_type.is_integer_like:
                    loop_names.add(stmt.var)
                else:
                    other.add(stmt.var)
            elif isinstance(stmt, ast.Assign):
                other.add(stmt.target.name)
            elif isinstance(stmt, ast.MultiAssign):
                other.update(t.name for t in stmt.targets)
        return loop_names - other - set(self.fn.params)

    # ------------------------------------------------------------------
    def coerce(self, code: str, src: str, dst: str) -> str:
        if src == dst or (src in "if" and dst in "if"):
            return code
        if dst == BOXED:
            return f"{self.helper('box')}({code})"
        if src == BOXED:
            if dst == RAW_INT:
                # 'i' promises a host int; unbox_real yields a float.
                return f"int({self.helper('unbox_real')}({code}))"
            helper = "unbox" if dst == RAW_COMPLEX else "unbox_real"
            return f"{self.helper(helper)}({code})"
        if src == RAW_COMPLEX and dst in (RAW_REAL, RAW_INT):
            return f"{self.helper('unbox_real')}({code})"
        return code

    def as_index(self, code: str, kind: str) -> str:
        if kind == RAW_INT:
            return code
        if kind == BOXED:
            return f"int({self.helper('unbox_real')}({code}))"
        return f"int({code})"

    # ------------------------------------------------------------------
    def emit(self) -> str:
        params = [f"p_{i}" for i in range(len(self.fn.params))]
        for name, pname in zip(self.fn.params, params):
            kind = self.var_kind(name)
            self.param_reprs.append(kind)
            if kind == BOXED and not self.selector.is_read_only(name):
                self.prologue.append(
                    f"    {self.var(name)} = "
                    f"{self.helper('copy_value')}({pname})"
                )
            else:
                self.prologue.append(f"    {self.var(name)} = {pname}")
        for name in self.fn.outputs:
            self.output_reprs.append(self.var_kind(name))
            if name not in self.fn.params:
                self.prologue.append(f"    {self.var(name)} = None")

        self.emit_stmts(self.fn.body)
        rets = ", ".join(self.var(n) for n in self.fn.outputs)
        tail = "," if len(self.fn.outputs) == 1 else ""
        self.line(f"return ({rets}{tail})")

        header = [f"def {self.fn_name}({', '.join(params + ['rt'])}):"]
        hoists = [f"    _h_{n} = rt.{n}" for n in sorted(self.helpers)]
        return "\n".join(header + hoists + self.prologue + self.lines) + "\n"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def emit_stmts(self, body: list[ast.Stmt]) -> None:
        if not body:
            self.line("pass")
            return
        for stmt in body:
            self.emit_stmt(stmt)

    def emit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.emit_assign(stmt)
        elif isinstance(stmt, ast.MultiAssign):
            self.emit_multi_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            code, kind = self.gen(stmt.value)
            if "ans" in self.ann.var_types or stmt.display:
                self.line(
                    f"{self.var('ans')} = "
                    f"{self.coerce(code, kind, self.var_kind('ans'))}"
                )
                if stmt.display:
                    self.line(
                        f"{self.helper('display_value')}('ans', "
                        f"{self.coerce(self.var('ans'), self.var_kind('ans'), BOXED)})"
                    )
            else:
                temp = self.fresh()
                self.line(f"{temp} = {code}")
        elif isinstance(stmt, ast.If):
            for index, (cond, branch) in enumerate(stmt.branches):
                word = "if" if index == 0 else "elif"
                self.line(f"{word} {self.gen_condition(cond)}:")
                self.depth += 1
                self.emit_stmts(branch)
                self.depth -= 1
            if stmt.orelse:
                self.line("else:")
                self.depth += 1
                self.emit_stmts(stmt.orelse)
                self.depth -= 1
        elif isinstance(stmt, ast.While):
            self.line(f"while {self.gen_condition(stmt.cond)}:")
            self.depth += 1
            self.emit_stmts(stmt.body)
            self.depth -= 1
        elif isinstance(stmt, ast.For):
            self.emit_for(stmt)
        elif isinstance(stmt, ast.Break):
            self.line("break")
        elif isinstance(stmt, ast.Continue):
            self.line("continue")
        elif isinstance(stmt, ast.Return):
            rets = ", ".join(self.var(n) for n in self.fn.outputs)
            tail = "," if len(self.fn.outputs) == 1 else ""
            self.line(f"return ({rets}{tail})")
        elif isinstance(stmt, ast.Clear):
            for name in stmt.names or list(self.var_kinds):
                self.line(f"{self.var(name)} = None")
        elif isinstance(stmt, ast.Global):
            raise CodegenError("global is not supported in compiled code")
        else:
            raise CodegenError(f"cannot compile {type(stmt).__name__}")

    def emit_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if not target.is_indexed:
            kind = self.var_kind(target.name)
            code, from_kind = self.gen(stmt.value)
            code = self.coerce(code, from_kind, kind)
            if (
                kind == BOXED
                and isinstance(stmt.value, ast.Ident)
                and (
                    target.name in self.selector.mutated_names
                    or stmt.value.name in self.selector.mutated_names
                )
            ):
                code = f"{self.helper('copy_value')}({code})"
            self.line(f"{self.var(target.name)} = {code}")
            if target.name in self.data_alias:
                # Wholesale reassignment invalidates the hoisted pointer.
                alias = self.data_alias.pop(target.name)
                self.line(f"{alias} = {self.var(target.name)}.data")
            if stmt.display:
                self.line(
                    f"{self.helper('display_value')}({target.name!r}, "
                    f"{self.coerce(self.var(target.name), kind, BOXED)})"
                )
            return
        self.emit_indexed_store(target, stmt.value)

    def emit_indexed_store(self, target: ast.LValue, value_expr: ast.Expr) -> None:
        value_code, value_kind = self.gen(value_expr)
        name = target.name
        arr = self.var(name)
        safety = self.ann.safety_of_store(target)
        if id(target) in self.forced_safe:
            safety = SubscriptSafety.SAFE
        indices = target.indices
        scalar_ok = (
            self.var_kind(name) == BOXED
            and value_kind in (RAW_REAL, RAW_INT, RAW_COMPLEX)
            and all(
                not isinstance(i, (ast.ColonAll, ast.Range))
                and self.ann.type_of(i).is_scalar
                for i in indices
            )
        )
        if scalar_ok and value_kind == RAW_COMPLEX:
            # Complex stores may need to widen the buffer; route through
            # the checked helper, which handles widening on raw complex.
            helper = self.helper(
                "checked_store1" if len(indices) == 1 else "checked_store2"
            )
            idx = [
                self.gen(i, end_array=name,
                         end_dim=(0 if len(indices) == 1 else p + 1))[0]
                for p, i in enumerate(indices)
            ]
            self.line(f"{helper}({arr}, {', '.join(idx)}, {value_code})")
            return
        if scalar_ok and safety is SubscriptSafety.SAFE:
            idx = [
                self.as_index(*self.gen(i, end_array=name,
                                        end_dim=(0 if len(indices) == 1 else p + 1)))
                for p, i in enumerate(indices)
            ]
            base = self.data_alias.get(name, f"{arr}.data")
            if len(idx) == 1:
                array_type = self.ann.var_type(name)
                if array_type.maxshape.rows == 1:
                    self.line(f"{base}[0, {idx[0]} - 1] = {value_code}")
                elif array_type.maxshape.cols == 1:
                    self.line(f"{base}[{idx[0]} - 1, 0] = {value_code}")
                else:
                    self.line(
                        f"{base}[divmod({idx[0]} - 1, {arr}.rows)[::-1]] "
                        f"= {value_code}"
                    )
            else:
                self.line(f"{base}[{idx[0]} - 1, {idx[1]} - 1] = {value_code}")
            return
        if scalar_ok and safety in (
            SubscriptSafety.GROW_ONLY, SubscriptSafety.CHECKED
        ):
            kind = "grow" if safety is SubscriptSafety.GROW_ONLY else "checked"
            helper = self.helper(
                f"{kind}_store1" if len(indices) == 1 else f"{kind}_store2"
            )
            idx = [
                self.gen(i, end_array=name,
                         end_dim=(0 if len(indices) == 1 else p + 1))[0]
                for p, i in enumerate(indices)
            ]
            self.line(f"{helper}({arr}, {', '.join(idx)}, {value_code})")
            return
        # Generic store.
        idx_codes = []
        for position, index in enumerate(indices):
            if isinstance(index, ast.ColonAll):
                idx_codes.append(f"{self.helper('colon_marker')}()")
            else:
                code, kind = self.gen(
                    index, end_array=name,
                    end_dim=(0 if len(indices) == 1 else position + 1),
                )
                idx_codes.append(code)
        helper = self.helper("g_store1" if len(indices) == 1 else "g_store2")
        boxed_value = self.coerce(value_code, value_kind, BOXED)
        self.line(f"{arr} = {helper}({arr}, {', '.join(idx_codes)}, {boxed_value})")
        if name in self.data_alias:
            alias = self.data_alias.pop(name)
            self.line(f"{alias} = {arr}.data")

    def emit_multi_assign(self, stmt: ast.MultiAssign) -> None:
        call = stmt.call
        if not isinstance(call, ast.Apply) or call.kind is ast.ApplyKind.INDEX:
            raise CodegenError("multi-assignment requires a function call")
        args = ", ".join(
            self.coerce(*self.gen(a), BOXED) for a in call.args
        )
        nargout = len(stmt.targets)
        if call.kind is ast.ApplyKind.BUILTIN:
            call_code = (
                f"{self.helper('builtin')}"
                f"({call.name!r}, {nargout}{', ' + args if args else ''})"
            )
        else:
            call_code = (
                f"{self.helper('call_user')}"
                f"({call.name!r}, {nargout}{', ' + args if args else ''})"
            )
        temp = self.fresh("m")
        self.line(f"{temp} = {call_code}")
        for position, target in enumerate(stmt.targets):
            element = f"{temp}[{position}]"
            if target.is_indexed:
                idx_codes = [
                    self.gen(i)[0] if not isinstance(i, ast.ColonAll)
                    else f"{self.helper('colon_marker')}()"
                    for i in target.indices
                ]
                helper = self.helper(
                    "g_store1" if len(target.indices) == 1 else "g_store2"
                )
                arr = self.var(target.name)
                self.line(f"{arr} = {helper}({arr}, {', '.join(idx_codes)}, {element})")
            else:
                kind = self.var_kind(target.name)
                self.line(
                    f"{self.var(target.name)} = "
                    f"{self.coerce(element, BOXED, kind)}"
                )

    # ------------------------------------------------------------------
    # Loops: hoisting + versioning
    # ------------------------------------------------------------------
    def emit_for(self, stmt: ast.For) -> None:
        var_kind = self.var_kind(stmt.var)
        iterable = stmt.iterable
        if not isinstance(iterable, ast.Range) or var_kind == BOXED:
            code, kind = self.gen(iterable)
            self.line(
                f"for {self.var(stmt.var)} in "
                f"{self.helper('columns')}({self.coerce(code, kind, BOXED)}):"
            )
            self.depth += 1
            self.emit_stmts(stmt.body)
            self.depth -= 1
            return

        start_temp, stop_temp = self.fresh("lo"), self.fresh("hi")
        self.line(f"{start_temp} = {self.coerce(*self.gen(iterable.start), RAW_REAL)}")
        self.line(f"{stop_temp} = {self.coerce(*self.gen(iterable.stop), RAW_REAL)}")
        step_temp = None
        if iterable.step is not None:
            step_temp = self.fresh("st")
            self.line(f"{step_temp} = {self.coerce(*self.gen(iterable.step), RAW_REAL)}")

        # Loop-invariant hoisting (strong native backend only).
        saved_hoisted = dict(self.hoisted)
        if self.options.native_opt_level >= 2:
            variant = assigned_in(stmt.body) | {stmt.var}
            for expr in find_hoistable(stmt.body, self.ann, variant):
                if id(expr) in self.hoisted:
                    continue
                code, _ = self.gen(expr)
                temp = self.fresh("inv")
                self.line(f"{temp} = {code}")
                self.hoisted[id(expr)] = temp

        plan = (
            plan_versioning(stmt, self.ann)
            if self.options.versioning
            else VersioningPlan()
        )
        if plan.worthwhile:
            descending = (
                iterable.step is not None
                and (_const_int_step(self.ann, iterable.step) or 1) < 0
            )
            lo_temp, hi_temp = (
                (stop_temp, start_temp) if descending
                else (start_temp, stop_temp)
            )
            guard = self._guard_code(plan, lo_temp, hi_temp)
            self.line(f"if {guard}:")
            self.depth += 1
            saved_forced = set(self.forced_safe)
            self.forced_safe |= plan.forced_safe
            self._emit_counted_loop(stmt, start_temp, stop_temp, step_temp)
            self.forced_safe = saved_forced
            self.depth -= 1
            self.line("else:")
            self.depth += 1
            self._emit_counted_loop(stmt, start_temp, stop_temp, step_temp)
            self.depth -= 1
        else:
            self._emit_counted_loop(stmt, start_temp, stop_temp, step_temp)
        self.hoisted = saved_hoisted

    def _emit_counted_loop(self, stmt, start_temp, stop_temp, step_temp) -> None:
        var = self.var(stmt.var)
        var_kind = self.var_kind(stmt.var)
        saved_alias = dict(self.data_alias)
        if self.options.native_opt_level >= 2:
            self._hoist_data_pointers(stmt)
        const_step = (
            _const_int_step(self.ann, stmt.iterable.step)
            if step_temp is not None and isinstance(stmt.iterable, ast.Range)
            else None
        )
        if step_temp is None and var_kind == RAW_INT:
            self.line(f"for {var} in range(int({start_temp}), int({stop_temp}) + 1):")
            self.depth += 1
            self.emit_stmts(stmt.body)
            self.depth -= 1
        elif const_step is not None and var_kind == RAW_INT:
            edge = 1 if const_step > 0 else -1
            self.line(
                f"for {var} in range(int({start_temp}), "
                f"int({stop_temp}) + {edge}, {const_step}):"
            )
            self.depth += 1
            self.emit_stmts(stmt.body)
            self.depth -= 1
        elif step_temp is None:
            self.line(f"{var} = {start_temp}")
            self.line(f"while {var} <= {stop_temp}:")
            self.depth += 1
            self.emit_stmts(stmt.body)
            self.line(f"{var} = {var} + 1.0")
            self.depth -= 1
        else:
            step_type = self.ann.type_of(stmt.iterable.step)
            if step_type.is_constant and step_type.constant_value != 0:
                compare = ">=" if step_type.constant_value < 0 else "<="
                self.line(f"{var} = {start_temp}")
                self.line(f"while {var} {compare} {stop_temp}:")
                self.depth += 1
                self.emit_stmts(stmt.body)
                self.line(f"{var} = {var} + {step_temp}")
                self.depth -= 1
            else:
                self.line(
                    f"for {var} in {self.helper('frange')}"
                    f"({start_temp}, {step_temp}, {stop_temp}):"
                )
                self.depth += 1
                self.emit_stmts(stmt.body)
                self.depth -= 1
        self.data_alias = saved_alias

    def _hoist_data_pointers(self, stmt: ast.For) -> None:
        """Bind ``_d_name = v_name.data`` for loop-stable arrays."""
        reassigned: set[str] = set()
        unstable: set[str] = set()
        accessed: set[str] = set()
        for inner in ast.walk_stmts(stmt.body):
            if isinstance(inner, ast.Assign):
                if inner.target.is_indexed:
                    safety = self.ann.safety_of_store(inner.target)
                    if id(inner.target) in self.forced_safe:
                        safety = SubscriptSafety.SAFE
                    if safety is not SubscriptSafety.SAFE:
                        unstable.add(inner.target.name)
                    else:
                        accessed.add(inner.target.name)
                else:
                    reassigned.add(inner.target.name)
            elif isinstance(inner, ast.MultiAssign):
                for target in inner.targets:
                    (unstable if target.is_indexed else reassigned).add(
                        target.name
                    )
            for expr in ast.stmt_exprs(inner):
                for node in ast.walk_expr(expr):
                    if (
                        isinstance(node, ast.Apply)
                        and node.kind is ast.ApplyKind.INDEX
                    ):
                        safety = self.ann.safety_of_load(node)
                        if id(node) in self.forced_safe:
                            safety = SubscriptSafety.SAFE
                        if safety is SubscriptSafety.SAFE:
                            accessed.add(node.name)
        for name in sorted(accessed - reassigned - unstable):
            if self.var_kind(name) != BOXED or name in self.data_alias:
                continue
            alias = self.fresh(f"d_{name}")
            self.line(f"{alias} = {self.var(name)}.data")
            self.data_alias[name] = alias

    def _guard_code(self, plan: VersioningPlan, start_temp: str, stop_temp: str) -> str:
        parts: list[str] = []
        for term in plan.guard_terms:
            arr = self.var(term.array)
            if term.dim == 0:
                extent = f"({arr}.rows * {arr}.cols)"
            elif term.dim == 1:
                extent = f"{arr}.rows"
            else:
                extent = f"{arr}.cols"
            affine = term.affine
            if affine.uses_var:
                if affine.offset_expr is None:
                    lo, hi = start_temp, stop_temp
                else:
                    offset, _ = self.gen(affine.offset_expr)
                    sign = "+" if affine.offset_sign > 0 else "-"
                    lo = f"({start_temp} {sign} ({offset}))"
                    hi = f"({stop_temp} {sign} ({offset}))"
            else:
                code, _ = self.gen(affine.invariant)
                lo = hi = f"({code})"
            parts.append(f"{lo} >= 1")
            parts.append(f"{hi} <= {extent}")
        return " and ".join(dict.fromkeys(parts)) or "False"

    # ------------------------------------------------------------------
    # Expressions → (code, kind)
    # ------------------------------------------------------------------
    def gen_condition(self, cond: ast.Expr) -> str:
        code, kind = self.gen(cond)
        if kind == BOXED:
            return f"{self.helper('truth')}({code})"
        return code

    def gen(
        self, expr: ast.Expr, end_array: str | None = None, end_dim: int = 0
    ) -> tuple[str, str]:
        temp = self.hoisted.get(id(expr))
        if temp is not None:
            return temp, RAW_REAL
        if isinstance(expr, ast.Number):
            value = expr.value
            if value == int(value) and abs(value) < 2**53:
                # Integral literals stay host ints: index arithmetic on
                # them avoids the int() conversion at every access.
                return repr(int(value)), RAW_INT
            return repr(value), RAW_REAL
        if isinstance(expr, ast.ImagNumber):
            return repr(complex(0.0, expr.value)), RAW_COMPLEX
        if isinstance(expr, ast.StringLit):
            return f"{self.helper('make_string')}({expr.text!r})", BOXED
        if isinstance(expr, ast.Ident):
            return self.gen_ident(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.gen_unary(expr, end_array, end_dim)
        if isinstance(expr, ast.BinaryOp):
            return self.gen_binary(expr, end_array, end_dim)
        if isinstance(expr, ast.Transpose):
            code, kind = self.gen(expr.operand)
            if kind in (RAW_REAL, RAW_INT):
                return code, kind
            helper = "g_ctranspose" if expr.conjugate else "g_transpose"
            return f"{self.helper(helper)}({code})", BOXED
        if isinstance(expr, ast.Range):
            parts = [
                self.coerce(*self.gen(p, end_array, end_dim), RAW_REAL)
                for p in (
                    [expr.start]
                    + ([expr.step] if expr.step is not None else [])
                    + [expr.stop]
                )
            ]
            helper = "colon3" if len(parts) == 3 else "colon2"
            return f"{self.helper(helper)}({', '.join(parts)})", BOXED
        if isinstance(expr, ast.MatrixLit):
            return self.gen_matrix(expr)
        if isinstance(expr, ast.EndMarker):
            arr = self.var(end_array) if end_array else "None"
            return f"{self.helper('end_dim')}({arr}, {end_dim})", RAW_INT
        if isinstance(expr, ast.Apply):
            return self.gen_apply(expr)
        raise CodegenError(f"cannot compile {type(expr).__name__}")

    def gen_ident(self, expr: ast.Ident) -> tuple[str, str]:
        kind = self.dis.kind_of(expr)
        if kind is SymbolKind.VARIABLE:
            return self.var(expr.name), self.var_kind(expr.name)
        if kind is SymbolKind.BUILTIN:
            mtype = self.ann.type_of(expr)
            if mtype.is_constant:
                return repr(mtype.constant_value), RAW_REAL
            if expr.name in ("i", "j"):
                return "1j", RAW_COMPLEX
            code = f"{self.helper('builtin1')}({expr.name!r})"
            return self._annotate(code, BOXED, expr)
        if kind is SymbolKind.USER_FUNCTION:
            code = f"{self.helper('call_user')}({expr.name!r}, 1)[0]"
            return self._annotate(code, BOXED, expr)
        info = self.dis.symbols.lookup(expr.name)
        current = (
            self.coerce(self.var(expr.name), self.var_kind(expr.name), BOXED)
            if info is not None and info.assigned
            else "None"
        )
        return f"{self.helper('ambiguous_lookup')}({expr.name!r}, {current})", BOXED

    def _annotate(self, code: str, kind: str, expr: ast.Expr) -> tuple[str, str]:
        target = repr_of_type(self.ann.type_of(expr))
        if target != kind:
            return self.coerce(code, kind, target), target
        return code, kind

    def gen_unary(self, expr, end_array, end_dim) -> tuple[str, str]:
        shape = self.selector.unroll_shape(expr)
        if shape is not None and expr.op is ast.UnaryKind.NEG:
            return self.gen_unrolled(expr, shape)
        code, kind = self.gen(expr.operand, end_array, end_dim)
        if kind != BOXED:
            if expr.op is ast.UnaryKind.NEG:
                return f"(-{code})", kind
            if expr.op is ast.UnaryKind.POS:
                return code, kind
            return f"(0.0 if {code} != 0 else 1.0)", RAW_REAL
        helper = {"-": "g_neg", "+": "box", "~": "g_not"}[expr.op.value]
        return f"{self.helper(helper)}({code})", BOXED

    def gen_binary(self, expr, end_array, end_dim) -> tuple[str, str]:
        if expr.op in ("&&", "||"):
            left = self.gen_condition(expr.left)
            right = self.gen_condition(expr.right)
            joiner = "and" if expr.op == "&&" else "or"
            return (
                f"(1.0 if (({left}) != 0 {joiner} ({right}) != 0) else 0.0)",
                RAW_REAL,
            )
        match = self.selector.match_dgemv(expr)
        if match is not None:
            return self.gen_dgemv(match)
        shape = self.selector.unroll_shape(expr)
        if shape is not None:
            return self.gen_unrolled(expr, shape)
        left, lkind = self.gen(expr.left, end_array, end_dim)
        right, rkind = self.gen(expr.right, end_array, end_dim)
        raw = lkind != BOXED and rkind != BOXED
        if raw and expr.op in _BINOP_PY:
            kind = RAW_COMPLEX if RAW_COMPLEX in (lkind, rkind) else RAW_REAL
            if (
                lkind == RAW_INT
                and rkind == RAW_INT
                and expr.op in ("+", "-", "*", ".*")
            ):
                kind = RAW_INT  # host int arithmetic stays int
            if self.ann.type_of(expr).is_complex:
                kind = RAW_COMPLEX
            if kind == RAW_COMPLEX and expr.op in COMPLEX_BINOPS:
                helper = self.helper(COMPLEX_BINOPS[expr.op])
                return f"{helper}({left}, {right})", kind
            return f"({left} {_BINOP_PY[expr.op]} {right})", kind
        if raw and expr.op in _CMP_PY:
            return (
                f"(1.0 if {left} {_CMP_PY[expr.op]} {right} else 0.0)",
                RAW_REAL,
            )
        if raw and expr.op in ("&", "|"):
            joiner = "and" if expr.op == "&" else "or"
            return (
                f"(1.0 if (({left}) != 0 {joiner} ({right}) != 0) else 0.0)",
                RAW_REAL,
            )
        if raw and expr.op in ("\\", ".\\"):
            if RAW_COMPLEX in (lkind, rkind):
                return f"{self.helper('c_div')}({right}, {left})", RAW_COMPLEX
            return f"({right} / {left})", RAW_REAL
        helper = self.helper(_BINOP_HELPER[expr.op])
        return self._annotate(f"{helper}({left}, {right})", BOXED, expr)

    def gen_dgemv(self, match) -> tuple[str, str]:
        alpha = (
            "1.0" if match.alpha is None
            else self.coerce(*self.gen(match.alpha), RAW_REAL)
        )
        matrix = self.coerce(*self.gen(match.matrix), BOXED)
        vector = self.coerce(*self.gen(match.vector), BOXED)
        if match.addend is None:
            beta, addend = "0.0", "None"
        else:
            beta = (
                "1.0" if match.beta is None
                else self.coerce(*self.gen(match.beta), RAW_REAL)
            )
            addend = self.coerce(*self.gen(match.addend), BOXED)
        helper = self.helper("dgemv")
        return f"{helper}({alpha}, {matrix}, {vector}, {beta}, {addend})", BOXED

    def gen_matrix(self, expr: ast.MatrixLit) -> tuple[str, str]:
        shape = self.selector.unroll_shape(expr)
        if shape is not None:
            return self.gen_unrolled(expr, shape)
        if not expr.rows:
            return f"{self.helper('empty_matrix')}()", BOXED
        rows = []
        for row in expr.rows:
            elems = ", ".join(self.gen(item)[0] for item in row)
            rows.append(f"{self.helper('hcat')}({elems})")
        if len(rows) == 1:
            return rows[0], BOXED
        return f"{self.helper('vcat')}({', '.join(rows)})", BOXED

    def gen_unrolled(self, expr: ast.Expr, shape: tuple[int, int]) -> tuple[str, str]:
        rows, cols = shape
        buffer = self.fresh("buf")
        self.prologue.append(
            f"    {buffer} = {self.helper('alloc')}({rows}, {cols})"
        )
        buffer_data = f"{buffer}.data"
        if isinstance(expr, ast.MatrixLit):
            values = []
            for r, row in enumerate(expr.rows):
                for c, item in enumerate(row):
                    values.append(
                        (r, c, self.coerce(*self.gen(item), RAW_REAL))
                    )
            temps = []
            for r, c, code in values:
                temp = self.fresh("e")
                self.line(f"{temp} = {code}")
                temps.append((r, c, temp))
            for r, c, temp in temps:
                self.line(f"{buffer_data}[{r}, {c}] = {temp}")
            return buffer, BOXED
        if isinstance(expr, ast.UnaryOp):
            operand = self._unroll_source(expr.operand)
            for r in range(rows):
                for c in range(cols):
                    self.line(
                        f"{buffer_data}[{r}, {c}] = "
                        f"(-{self._unroll_elem(operand, r, c)})"
                    )
            return buffer, BOXED
        left = self._unroll_source(expr.left)
        right = self._unroll_source(expr.right)
        op = _BINOP_PY[expr.op]
        for r in range(rows):
            for c in range(cols):
                a = self._unroll_elem(left, r, c)
                b = self._unroll_elem(right, r, c)
                self.line(f"{buffer_data}[{r}, {c}] = ({a} {op} {b})")
        return buffer, BOXED

    def _unroll_source(self, node: ast.Expr):
        mtype = self.ann.type_of(node)
        if mtype.is_scalar:
            code = self.coerce(*self.gen(node), RAW_REAL)
            if not _is_simple_code(code):
                temp = self.fresh("s")
                self.line(f"{temp} = {code}")
                code = temp
            return ("scalar", code)
        code = self.coerce(*self.gen(node), BOXED)
        if not _is_simple_code(code):
            temp = self.fresh("a")
            self.line(f"{temp} = {code}")
            code = temp
        return ("array", code)

    def _unroll_elem(self, source, r: int, c: int) -> str:
        tag, code = source
        if tag == "scalar":
            return code
        return f"{code}.data.item({r}, {c})"

    # ------------------------------------------------------------------
    def gen_apply(self, expr: ast.Apply) -> tuple[str, str]:
        if expr.kind is ast.ApplyKind.INDEX:
            return self.gen_index_load(expr)
        if expr.kind is ast.ApplyKind.BUILTIN:
            return self.gen_builtin(expr)
        args = ", ".join(
            self.coerce(*self.gen(a), BOXED) for a in expr.args
        )
        code = f"{self.helper('call_user')}({expr.name!r}, 1{', ' + args if args else ''})[0]"
        return self._annotate(code, BOXED, expr)

    def gen_index_load(self, expr: ast.Apply) -> tuple[str, str]:
        name = expr.name
        arr = self.var(name)
        element = self.ann.type_of(expr)
        target_kind = repr_of_type(element)
        indices = expr.args
        safety = self.ann.safety_of_load(expr)
        if id(expr) in self.forced_safe:
            safety = SubscriptSafety.SAFE
        scalar_ok = (
            self.var_kind(name) == BOXED
            and target_kind in (RAW_REAL, RAW_COMPLEX)
            and all(
                not isinstance(i, (ast.ColonAll, ast.Range))
                and self.ann.type_of(i).is_scalar
                for i in indices
            )
        )
        if scalar_ok:
            idx = [
                self.gen(i, end_array=name,
                         end_dim=(0 if len(indices) == 1 else p + 1))
                for p, i in enumerate(indices)
            ]
            if safety is SubscriptSafety.SAFE:
                base = self.data_alias.get(name, f"{arr}.data")
                ints = [self.as_index(c, k) for c, k in idx]
                if len(ints) == 1:
                    return f"{base}.item({ints[0]} - 1)", target_kind
                return (
                    f"{base}.item({ints[0]} - 1, {ints[1]} - 1)",
                    target_kind,
                )
            helper = self.helper(
                "checked_load1" if len(idx) == 1 else "checked_load2"
            )
            codes = ", ".join(c for c, _ in idx)
            return f"{helper}({arr}, {codes})", target_kind
        # Generic indexing.
        source = (
            arr
            if self.var_kind(name) == BOXED
            else self.coerce(arr, self.var_kind(name), BOXED)
        )
        colon = [
            position
            for position, index in enumerate(indices)
            if isinstance(index, ast.ColonAll)
        ]
        codes = [
            "None" if isinstance(i, ast.ColonAll)
            else self.gen(i, end_array=name,
                          end_dim=(0 if len(indices) == 1 else p + 1))[0]
            for p, i in enumerate(indices)
        ]
        if len(indices) == 1:
            if colon:
                code = f"{self.helper('index_all')}({source})"
            else:
                code = f"{self.helper('g_index1')}({source}, {codes[0]})"
        elif colon == [0]:
            code = f"{self.helper('index_col')}({source}, {codes[1]})"
        elif colon == [1]:
            code = f"{self.helper('index_row')}({source}, {codes[0]})"
        elif colon == [0, 1]:
            code = f"{self.helper('index_whole')}({source})"
        else:
            code = f"{self.helper('g_index2')}({source}, {codes[0]}, {codes[1]})"
        return self._annotate(code, BOXED, expr)

    def gen_builtin(self, expr: ast.Apply) -> tuple[str, str]:
        mtype = self.ann.type_of(expr)
        from repro.runtime.builtins import BUILTINS

        entry = BUILTINS.get(expr.name)
        if mtype.is_constant and entry is not None and entry.pure and not expr.args:
            return repr(mtype.constant_value), RAW_REAL
        fast = SCALAR_MATH.get(expr.name)
        if fast is not None and len(expr.args) == 1:
            arg_type = self.ann.type_of(expr.args[0])
            if arg_type.is_scalar and arg_type.is_real_like:
                code = self.coerce(*self.gen(expr.args[0]), RAW_REAL)
                if mtype.is_scalar and mtype.is_real_like:
                    if fast[0] == "abs":
                        return f"abs({code})", RAW_REAL
                    return f"{self.helper(fast[0])}({code})", RAW_REAL
                if fast[1] is not None and mtype.is_scalar:
                    return f"{self.helper(fast[1])}({code})", RAW_COMPLEX
            if (
                arg_type.is_scalar
                and arg_type.intrinsic is Intrinsic.COMPLEX
                and fast[1] is not None
            ):
                code = self.coerce(*self.gen(expr.args[0]), RAW_COMPLEX)
                kind = RAW_REAL if expr.name == "abs" else RAW_COMPLEX
                return f"{self.helper(fast[1])}({code})", kind
        if expr.name in ("mod", "rem") and len(expr.args) == 2:
            types = [self.ann.type_of(a) for a in expr.args]
            if all(t.is_scalar and t.is_real_like for t in types):
                codes = [
                    self.coerce(*self.gen(a), RAW_REAL) for a in expr.args
                ]
                helper = self.helper("m_mod" if expr.name == "mod" else "m_rem")
                return f"{helper}({', '.join(codes)})", RAW_REAL
        args = ", ".join(self.coerce(*self.gen(a), BOXED) for a in expr.args)
        code = (
            f"{self.helper('builtin1')}({expr.name!r}"
            f"{', ' + args if args else ''})"
        )
        return self._annotate(code, BOXED, expr)


def _const_int_step(annotations, step_expr) -> int | None:
    """The value of a constant integral nonzero loop step, else None."""
    if step_expr is None:
        return None
    step_type = annotations.type_of(step_expr)
    if (
        step_type.is_constant
        and step_type.constant_value == int(step_type.constant_value)
        and step_type.constant_value != 0
    ):
        return int(step_type.constant_value)
    return None


def _is_simple_code(code: str) -> bool:
    """True for a bare variable or literal (safe to repeat in unrolls)."""
    return code.replace("_", "a").replace(".", "0").isalnum()

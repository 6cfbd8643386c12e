"""The JIT code generator (Section 2.6).

One code-selection pass lowers the typed AST to ICODE; the linear-scan
allocator assigns registers; the emitter produces an in-memory host
function.  No loop optimizations, no common-subexpression elimination, no
instruction scheduling — compilation speed is the design point.

Representation discipline: every MATLAB variable has exactly one
representation for the whole compiled function, chosen from its inferred
type summary — a raw host float (real scalar), raw complex, or a boxed
MxArray.  Expression temporaries use the representation of their inferred
type.  The ``coerce`` helper mediates at the few boundaries.
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
from repro.codegen.select import (
    BOXED,
    RAW_COMPLEX,
    RAW_INT,
    RAW_REAL,
    Selector,
    repr_of_type,
)
from repro.codegen.runtime_support import COMPLEX_BINOPS, SCALAR_MATH
from repro.typesys.intrinsic import Intrinsic
from repro.typesys.mtype import MType
from repro.typesys.signature import Signature
from repro.vcode.emit import EmittedFunction, emit_python
from repro.vcode.icode import (
    Block,
    BreakRegion,
    ContinueRegion,
    ForEachRegion,
    ForRegion,
    FunctionIR,
    IfRegion,
    Instr,
    ReturnRegion,
    Seq,
    VRegAllocator,
    WhileRegion,
)
from repro.vcode.liveness import compute_intervals
from repro.vcode.regalloc import DEFAULT_NUM_REGISTERS, LinearScanAllocator

_BINOP_PY = {
    "+": "+", "-": "-", "*": "*", ".*": "*",
    "/": "/", "./": "/", "^": "**", ".^": "**",
    "==": "==", "~=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&": "&", "|": "|",
}

_BINOP_HELPER = {
    "+": "g_add", "-": "g_sub", "*": "g_mul", ".*": "g_emul",
    "/": "g_div", "./": "g_ediv", "\\": "g_ldiv", ".\\": "g_eldiv",
    "^": "g_pow", ".^": "g_epow",
    "==": "g_eq", "~=": "g_ne", "<": "g_lt", "<=": "g_le",
    ">": "g_gt", ">=": "g_ge", "&": "g_and", "|": "g_or",
}


@dataclass
class JitOptions:
    """Pipeline switches (Figure 7's "no regalloc" lives here)."""

    num_registers: int = DEFAULT_NUM_REGISTERS
    spill_everything: bool = False
    unroll_enabled: bool = True
    dgemv_enabled: bool = True
    fusion: bool = True
    inference: InferenceOptions = field(default_factory=InferenceOptions)


@dataclass
class PhaseTimes:
    """Per-phase compile times (drives Figure 6)."""

    disambiguation: float = 0.0
    type_inference: float = 0.0
    codegen: float = 0.0

    @property
    def total(self) -> float:
        return self.disambiguation + self.type_inference + self.codegen


@dataclass
class CompiledObject:
    """One entry in the code repository."""

    name: str
    signature: Signature
    emitted: EmittedFunction
    annotations: Annotations
    param_reprs: list[str]
    output_reprs: list[str]
    mode: str = "jit"
    phase_times: PhaseTimes = field(default_factory=PhaseTimes)
    #: Source of every fused kernel the emitted code references, keyed by
    #: kernel name — rides the pickle into the persistent cache so a
    #: fresh process can re-register them (``rt.kernel_<hash>`` dispatch
    #: must never miss for disk-revived objects).
    kernel_sources: dict = field(default_factory=dict)
    #: Canonical tree encoding of each referenced kernel (same keys as
    #: ``kernel_sources``) — the native tier decodes these to rebuild
    #: trees for disk-revived kernels, so warm sessions can still promote
    #: them to C.  Older pickles lack the field; revival tolerates that.
    kernel_keys: dict = field(default_factory=dict)

    @property
    def source(self) -> str:
        return self.emitted.source

    def invoke(self, arg_values, nargout: int, rt):
        """Execute with boxed arguments; returns boxed outputs."""
        from repro.codegen.runtime_support import box, unbox

        raw_args = []
        for value, kind in zip(arg_values, self.param_reprs):
            if kind in (RAW_REAL, RAW_INT, RAW_COMPLEX):
                raw_args.append(unbox(value))
            else:
                raw_args.append(value)
        results = self.emitted.callable(*raw_args, rt)
        outputs = []
        for value in results[: max(nargout, 1) if self.output_reprs else 0]:
            if value is None:
                raise CodegenError(
                    f"output of '{self.name}' was never assigned"
                )
            outputs.append(box(value))
        return outputs


class JitCompiler:
    """The fast compilation pipeline."""

    def __init__(
        self,
        options: JitOptions | None = None,
        callee_oracle=None,
        fault_plan=None,
        tracer=None,
        obs=None,
    ):
        from repro.obs.trace import NULL_TRACER

        self.options = options or JitOptions()
        self.callee_oracle = callee_oracle
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.obs = obs

    # ------------------------------------------------------------------
    def compile(
        self,
        fn: ast.FunctionDef,
        signature: Signature,
        disambiguation: DisambiguationResult | None = None,
        annotations: Annotations | None = None,
        mode: str = "jit",
        is_user_function=None,
    ) -> CompiledObject:
        if self.fault_plan is not None:
            self.fault_plan.check("jit", fn.name)
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
                    options=self.options.inference,
                    callee_oracle=self.callee_oracle,
                )
                annotations = engine.infer(fn, signature, disambiguation)
        times.type_inference = time.perf_counter() - start

        start = time.perf_counter()
        with tracer.span("codegen", "codegen", function=fn.name, mode=mode):
            lowerer = _Lowerer(
                fn, annotations, disambiguation, self.options,
                fault_plan=self.fault_plan, tracer=tracer, obs=self.obs,
            )
            ir = lowerer.lower()
            intervals = compute_intervals(ir)
            allocator = LinearScanAllocator(
                num_registers=self.options.num_registers,
                spill_everything=self.options.spill_everything,
            )
            assignment = allocator.allocate(intervals)
            emitted = emit_python(ir, assignment)
        times.codegen = time.perf_counter() - start

        return CompiledObject(
            name=fn.name,
            signature=signature,
            emitted=emitted,
            annotations=annotations,
            param_reprs=lowerer.param_reprs,
            output_reprs=lowerer.output_reprs,
            mode=mode,
            phase_times=times,
            kernel_sources=dict(lowerer.kernel_sources),
            kernel_keys=dict(lowerer.kernel_keys),
        )


class _Lowerer:
    """AST → ICODE, one pass."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        annotations: Annotations,
        disambiguation: DisambiguationResult,
        options: JitOptions,
        fault_plan=None,
        tracer=None,
        obs=None,
    ):
        from repro.obs.trace import NULL_TRACER

        self.fn = fn
        self.ann = annotations
        self.dis = disambiguation
        self.options = options
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.obs = obs
        self.kernel_sources: dict[str, str] = {}
        self.kernel_keys: dict[str, str] = {}
        self.selector = Selector(
            fn, annotations,
            unroll_enabled=options.unroll_enabled,
            dgemv_enabled=options.dgemv_enabled,
        )
        self.vregs = VRegAllocator()
        self.var_regs: dict[str, int] = {}
        self.var_kinds: dict[str, str] = {}
        self.reg_kinds: dict[int, str] = {}
        self.prologue = Block()
        self.block: Block | None = None
        self.seq: Seq | None = None
        self.param_reprs: list[str] = []
        self.output_reprs: list[str] = []
        self._buffer_regs: list[int] = []
        self._int_loop_names = self._find_int_loop_counters()

    # ------------------------------------------------------------------
    def fresh(self, kind: str) -> int:
        reg = self.vregs.fresh()
        self.reg_kinds[reg] = kind
        return reg

    def var_reg(self, name: str) -> int:
        reg = self.var_regs.get(name)
        if reg is None:
            kind = self.var_kind(name)
            reg = self.fresh(kind)
            self.var_regs[name] = reg
        return reg

    def var_kind(self, name: str) -> str:
        kind = self.var_kinds.get(name)
        if kind is None:
            if name in self._int_loop_names:
                kind = RAW_INT
            else:
                kind = self.selector.var_repr(name)
                info = self.dis.symbols.lookup(name)
                if info is not None and info.is_ambiguous:
                    kind = BOXED
            self.var_kinds[name] = kind
        return kind

    def _find_int_loop_counters(self) -> set[str]:
        """Names used only as for-loop counters over integer ranges."""
        loop_names: set[str] = set()
        other_defs: set[str] = set()
        for stmt in ast.walk_stmts(self.fn.body):
            if isinstance(stmt, ast.For):
                iterable_type = self.ann.type_of(stmt.iterable)
                var_type = self.ann.var_type(stmt.var)
                simple_range = isinstance(stmt.iterable, ast.Range) and (
                    stmt.iterable.step is None
                    or self._const_int_step(stmt.iterable.step) is not None
                )
                if (
                    simple_range
                    and var_type.is_scalar
                    and var_type.is_integer_like
                    and iterable_type.is_integer_like
                ):
                    loop_names.add(stmt.var)
                else:
                    other_defs.add(stmt.var)
            elif isinstance(stmt, ast.Assign):
                other_defs.add(stmt.target.name)
            elif isinstance(stmt, ast.MultiAssign):
                other_defs.update(t.name for t in stmt.targets)
        return loop_names - other_defs - set(self.fn.params)

    def _const_int_step(self, step_expr) -> int | None:
        if step_expr is None:
            return None
        step_type = self.ann.type_of(step_expr)
        if (
            step_type.is_constant
            and step_type.constant_value == int(step_type.constant_value)
            and step_type.constant_value != 0
        ):
            return int(step_type.constant_value)
        return None

    # ------------------------------------------------------------------
    def emit(self, op, dst=None, args=(), aux=None) -> int | None:
        self.block.emit(Instr(op, dst, tuple(args), aux))
        return dst

    def const(self, value, kind: str) -> int:
        reg = self.fresh(kind)
        self.emit("CONST", reg, (), value)
        return reg

    def callrt(self, helper: str, args, kind: str | None) -> int | None:
        dst = self.fresh(kind) if kind is not None else None
        self.emit("CALLRT", dst, args, helper)
        return dst

    def coerce(self, reg: int, src: str, dst: str) -> int:
        if src == dst or (src in "if" and dst in "if"):
            return reg
        if dst == BOXED:
            return self.callrt("box", [reg], BOXED)
        if src == BOXED:
            helper = "unbox" if dst == RAW_COMPLEX else "unbox_real"
            # unbox_real yields a host float; never claim RAW_INT for it
            # (the 'i' kind promises a value range() and .item() accept).
            honest = RAW_REAL if dst == RAW_INT else dst
            return self.callrt(helper, [reg], honest)
        if dst == RAW_COMPLEX:
            return reg  # raw real usable wherever complex is expected
        if src == RAW_COMPLEX and dst in (RAW_REAL, RAW_INT):
            # Annotation said real; enforce dynamically.
            return self.callrt("unbox_real", [reg], dst)
        return reg

    # ------------------------------------------------------------------
    def lower(self) -> FunctionIR:
        params: list[int] = []
        for name in self.fn.params:
            kind = self.var_kind(name)
            self.param_reprs.append(kind)
            params.append(self.var_reg(name))

        body = Seq(parts=[self.prologue])
        self.block = self.prologue
        # Call-by-value: copy boxed parameters that may be mutated
        # (read-only formals are not copied — Section 2.6.1).
        for name in self.fn.params:
            if self.var_kind(name) == BOXED and not self.selector.is_read_only(name):
                reg = self.var_reg(name)
                copied = self.callrt("copy_value", [reg], BOXED)
                self.emit("MOV", reg, (copied,))

        main = self.lower_stmts(self.fn.body)
        body.parts.append(main)

        outputs = []
        for name in self.fn.outputs:
            outputs.append(self.var_reg(name))
            self.output_reprs.append(self.var_kind(name))

        variable_regs = frozenset(self.var_regs.values()) | frozenset(
            self._buffer_regs
        )
        ir = FunctionIR(
            name=f"mjc_{self.fn.name}",
            params=params,
            param_names=list(self.fn.params),
            body=body,
            outputs=tuple(outputs),
            output_names=tuple(self.fn.outputs),
            nregs=self.vregs.count,
            variable_regs=variable_regs,
            reg_kinds=self.reg_kinds,
        )
        return ir

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def lower_stmts(self, stmts: list[ast.Stmt]) -> Seq:
        saved_block, saved_seq = self.block, self.seq
        seq = Seq(parts=[])
        self.seq = seq
        self.block = Block()
        seq.parts.append(self.block)
        for stmt in stmts:
            self.lower_stmt(stmt)
        self.block, self.seq = saved_block, saved_seq
        return seq

    def _new_block(self) -> Block:
        self.block = Block()
        self.seq.parts.append(self.block)
        return self.block

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, ast.MultiAssign):
            self.lower_multi_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            reg, kind = self.lower_expr(stmt.value)
            if "ans" in self.ann.var_types or stmt.display:
                ans = self.var_reg("ans")
                self.emit("MOV", ans, (self.coerce(reg, kind, self.var_kind("ans")),))
            if stmt.display:
                boxed = self.coerce(reg, kind, BOXED)
                name_reg = self.const("ans", BOXED)
                self.callrt("display_value", [name_reg, boxed], None)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            self.seq.parts.append(BreakRegion())
            self._new_block()
        elif isinstance(stmt, ast.Continue):
            self.seq.parts.append(ContinueRegion())
            self._new_block()
        elif isinstance(stmt, ast.Return):
            self.seq.parts.append(ReturnRegion())
            self._new_block()
        elif isinstance(stmt, ast.Clear):
            names = stmt.names or list(self.var_regs)
            for name in names:
                if name in self.var_regs:
                    none = self.const(None, self.var_kinds[name])
                    self.emit("MOV", self.var_regs[name], (none,))
        elif isinstance(stmt, ast.Global):
            raise CodegenError(
                "global variables are not supported in compiled code"
            )
        else:
            raise CodegenError(f"cannot compile {type(stmt).__name__}")

    def lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if not target.is_indexed:
            kind = self.var_kind(target.name)
            reg, from_kind = self.lower_expr(stmt.value)
            reg = self.coerce(reg, from_kind, kind)
            if (
                kind == BOXED
                and isinstance(stmt.value, ast.Ident)
                and (
                    target.name in self.selector.mutated_names
                    or stmt.value.name in self.selector.mutated_names
                )
            ):
                reg = self.callrt("copy_value", [reg], BOXED)
            self.emit("MOV", self.var_reg(target.name), (reg,))
            if stmt.display:
                boxed = self.coerce(self.var_reg(target.name), kind, BOXED)
                name_reg = self.const(target.name, BOXED)
                self.callrt("display_value", [name_reg, boxed], None)
            return
        self.lower_indexed_store(target, stmt.value)

    def lower_indexed_store(self, target: ast.LValue, value_expr: ast.Expr) -> None:
        value_reg, value_kind = self.lower_expr(value_expr)
        arr = self.var_reg(target.name)
        arr_kind = self.var_kind(target.name)
        safety = self.ann.safety_of_store(target)
        indices = target.indices
        has_colon = any(isinstance(i, ast.ColonAll) for i in indices)
        scalar_indices = all(
            not isinstance(i, (ast.ColonAll, ast.Range))
            and self.ann.type_of(i).is_scalar
            for i in indices
        )
        array_type = self.ann.var_type(target.name)

        if (
            arr_kind == BOXED
            and scalar_indices
            and value_kind in (RAW_REAL, RAW_INT, RAW_COMPLEX)
            and not has_colon
        ):
            index_regs = [
                self.lower_index_arg(i, target.name, pos, len(indices))
                for pos, i in enumerate(indices)
            ]
            if value_kind == RAW_COMPLEX:
                # Complex stores may need to widen the buffer; the checked
                # and grow helpers handle that, the direct path cannot.
                mode = (
                    "grow"
                    if safety is SubscriptSafety.GROW_ONLY
                    else "checked"
                )
            else:
                mode = {
                    SubscriptSafety.SAFE: "unchecked",
                    SubscriptSafety.GROW_ONLY: "grow",
                    SubscriptSafety.CHECKED: "checked",
                }[safety]
            if mode == "unchecked" and len(index_regs) == 1:
                # Orientation lets the emitter index without divmod.
                if array_type.maxshape.rows == 1:
                    mode = "unchecked_row"
                elif array_type.maxshape.cols == 1:
                    mode = "unchecked_col"
            op = "STORE1" if len(index_regs) == 1 else "STORE2"
            self.emit(op, None, (arr, *index_regs, value_reg), mode)
            return
        # Generic store: returns the (possibly reallocated/new) array.
        index_regs = []
        for pos, idx in enumerate(indices):
            if isinstance(idx, ast.ColonAll):
                index_regs.append(self.callrt("colon_marker", [], BOXED))
            else:
                index_regs.append(
                    self._lower_index_any(idx, target.name, pos, len(indices))
                )
        helper = "g_store1" if len(index_regs) == 1 else "g_store2"
        boxed_value = self.coerce(value_reg, value_kind, BOXED)
        result = self.callrt(helper, [arr, *index_regs, boxed_value], BOXED)
        self.emit("MOV", arr, (result,))

    def _lower_index_any(self, idx, name, pos, arity) -> int:
        reg, kind = self.lower_expr(
            idx, end_array=name, end_dim=(0 if arity == 1 else pos + 1)
        )
        return reg  # raw or boxed both accepted by g_store/g_index helpers

    def lower_index_arg(self, idx, name, pos, arity) -> int:
        reg, kind = self.lower_expr(
            idx, end_array=name, end_dim=(0 if arity == 1 else pos + 1)
        )
        if kind == BOXED:
            reg = self.callrt("unbox_real", [reg], RAW_REAL)
        return reg

    def lower_multi_assign(self, stmt: ast.MultiAssign) -> None:
        call = stmt.call
        nargout = len(stmt.targets)
        if not isinstance(call, ast.Apply) or call.kind is ast.ApplyKind.INDEX:
            raise CodegenError("multi-assignment requires a function call")
        arg_regs = [
            self.coerce(*self.lower_expr(arg), BOXED) for arg in call.args
        ]
        name_reg = self.const(call.name, BOXED)
        n_reg = self.const(nargout, RAW_INT)
        helper = (
            "builtin" if call.kind is ast.ApplyKind.BUILTIN else "call_user"
        )
        tuple_reg = self.callrt(helper, [name_reg, n_reg, *arg_regs], BOXED)
        for position, target in enumerate(stmt.targets):
            element = self.fresh(BOXED)
            self.emit("UNPACK", element, (tuple_reg,), position)
            if target.is_indexed:
                # Route through the generic store with the boxed element.
                arr = self.var_reg(target.name)
                index_regs = [
                    self._lower_index_any(i, target.name, pos, len(target.indices))
                    for pos, i in enumerate(target.indices)
                ]
                helper2 = "g_store1" if len(index_regs) == 1 else "g_store2"
                result = self.callrt(
                    helper2, [arr, *index_regs, element], BOXED
                )
                self.emit("MOV", arr, (result,))
            else:
                kind = self.var_kind(target.name)
                self.emit(
                    "MOV",
                    self.var_reg(target.name),
                    (self.coerce(element, BOXED, kind),),
                )

    def _lower_header(self, cond: ast.Expr) -> tuple[Seq, int]:
        """Lower a condition into its own region sequence.

        Conditions may contain short-circuit operators that expand into
        regions of their own; those must land inside the header, not in
        the enclosing statement sequence.
        """
        header = Seq(parts=[])
        saved_seq, saved_block = self.seq, self.block
        self.seq = header
        self.block = Block()
        header.parts.append(self.block)
        cond_reg = self.lower_condition(cond)
        self.seq, self.block = saved_seq, saved_block
        return header, cond_reg

    def lower_if(self, stmt: ast.If) -> None:
        def build(branches, orelse) -> Seq:
            if not branches:
                return self.lower_stmts(orelse)
            (cond, body), rest = branches[0], branches[1:]
            header, cond_reg = self._lower_header(cond)
            then = self.lower_stmts(body)
            else_seq = build(rest, orelse)
            return Seq(parts=[IfRegion(header=header, cond=cond_reg,
                                       then=then, orelse=else_seq)])

        self.seq.parts.append(build(stmt.branches, stmt.orelse))
        self._new_block()

    def lower_condition(self, cond: ast.Expr) -> int:
        reg, kind = self.lower_expr(cond)
        if kind == BOXED:
            return self.callrt("truth", [reg], RAW_REAL)
        return reg

    def lower_while(self, stmt: ast.While) -> None:
        header, cond_reg = self._lower_header(stmt.cond)
        body = self.lower_stmts(stmt.body)
        self.seq.parts.append(
            WhileRegion(header=header, cond=cond_reg, body=body)
        )
        self._new_block()

    def lower_for(self, stmt: ast.For) -> None:
        iterable = stmt.iterable
        var_kind = self.var_kind(stmt.var)
        if isinstance(iterable, ast.Range) and var_kind in (RAW_REAL, RAW_INT):
            init = Block()
            saved = self.block
            self.block = init
            start_reg, start_kind = self.lower_expr(iterable.start)
            start_reg = self.coerce(start_reg, start_kind, var_kind)
            stop_reg, stop_kind = self.lower_expr(iterable.stop)
            stop_reg = self.coerce(stop_reg, stop_kind, var_kind)
            step_reg = None
            descending = False
            if iterable.step is not None:
                const_step = self._const_int_step(iterable.step)
                step_type = self.ann.type_of(iterable.step)
                if not step_type.is_constant or step_type.constant_value == 0:
                    # Unknown step sign: generic iteration helper.
                    self.block = saved
                    self._lower_for_generic(stmt)
                    return
                descending = step_type.constant_value < 0
                if var_kind == RAW_INT and const_step is None:
                    # Integer counters need an integral step.
                    var_kind = RAW_REAL
                    self.var_kinds[stmt.var] = RAW_REAL
                    self.reg_kinds[self.var_regs.get(stmt.var, -1)] = RAW_REAL
                step_reg, step_kind = self.lower_expr(iterable.step)
                step_reg = self.coerce(step_reg, step_kind, var_kind)
                if var_kind == RAW_INT:
                    step_reg = self._to_int(step_reg)
            if var_kind == RAW_INT:
                start_reg = self._to_int(start_reg)
                stop_reg = self._to_int(stop_reg)
            self.block = saved
            body = self.lower_stmts(stmt.body)
            self.seq.parts.append(
                ForRegion(
                    init=init,
                    var=self.var_reg(stmt.var),
                    start=start_reg,
                    stop=stop_reg,
                    step=step_reg,
                    body=body,
                    descending=descending,
                )
            )
            self._new_block()
            return
        self._lower_for_generic(stmt)

    def _to_int(self, reg: int) -> int:
        if self.reg_kinds.get(reg) == RAW_INT:
            return reg
        return self.callrt("to_int", [reg], RAW_INT)

    def _lower_for_generic(self, stmt: ast.For) -> None:
        init = Block()
        saved = self.block
        self.block = init
        raw_iterable = False
        if (
            isinstance(stmt.iterable, ast.Range)
            and self.var_kind(stmt.var) in (RAW_REAL, RAW_INT)
        ):
            # Variable-step numeric loop through the frange helper.
            start_reg = self.coerce(*self.lower_expr(stmt.iterable.start), RAW_REAL)
            step_reg = (
                self.coerce(*self.lower_expr(stmt.iterable.step), RAW_REAL)
                if stmt.iterable.step is not None
                else self.const(1.0, RAW_REAL)
            )
            stop_reg = self.coerce(*self.lower_expr(stmt.iterable.stop), RAW_REAL)
            iterable_reg = self.callrt(
                "frange", [start_reg, step_reg, stop_reg], BOXED
            )
            raw_iterable = True
        else:
            iterable_reg = self.coerce(*self.lower_expr(stmt.iterable), BOXED)
        self.block = saved
        body = self.lower_stmts(stmt.body)
        self.seq.parts.append(
            ForEachRegion(
                init=init,
                var=self.var_reg(stmt.var),
                iterable=iterable_reg,
                body=body,
                raw_iterable=raw_iterable,
            )
        )
        self._new_block()

    # ------------------------------------------------------------------
    # Expressions: returns (register, kind)
    # ------------------------------------------------------------------
    def lower_expr(
        self,
        expr: ast.Expr,
        end_array: str | None = None,
        end_dim: int = 0,
    ) -> tuple[int, str]:
        if isinstance(expr, ast.Number):
            value = expr.value
            if value == int(value) and abs(value) < 2**53:
                # Integral literals stay host ints: index arithmetic on
                # them avoids the int() conversion at every access.
                return self.const(int(value), RAW_INT), RAW_INT
            return self.const(value, RAW_REAL), RAW_REAL
        if isinstance(expr, ast.ImagNumber):
            return self.const(complex(0.0, expr.value), RAW_COMPLEX), RAW_COMPLEX
        if isinstance(expr, ast.StringLit):
            text = self.const(expr.text, BOXED)
            return self.callrt("make_string", [text], BOXED), BOXED
        if isinstance(expr, ast.Ident):
            return self.lower_ident(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.lower_unary(expr, end_array, end_dim)
        if isinstance(expr, ast.BinaryOp):
            return self.lower_binary(expr, end_array, end_dim)
        if isinstance(expr, ast.Transpose):
            reg, kind = self.lower_expr(expr.operand)
            if kind in (RAW_REAL, RAW_INT):
                return reg, kind
            helper = "g_ctranspose" if expr.conjugate else "g_transpose"
            return self.callrt(helper, [reg], kind), kind
        if isinstance(expr, ast.Range):
            parts = [expr.start] + (
                [expr.step] if expr.step is not None else []
            ) + [expr.stop]
            regs = [
                self.coerce(*self.lower_expr(p, end_array, end_dim), RAW_REAL)
                for p in parts
            ]
            helper = "colon3" if len(regs) == 3 else "colon2"
            return self.callrt(helper, regs, BOXED), BOXED
        if isinstance(expr, ast.MatrixLit):
            return self.lower_matrix(expr)
        if isinstance(expr, ast.EndMarker):
            arr = self.var_reg(end_array) if end_array else self.const(None, BOXED)
            dim = self.const(end_dim, RAW_INT)
            return self.callrt("end_dim", [arr, dim], RAW_INT), RAW_INT
        if isinstance(expr, ast.Apply):
            return self.lower_apply(expr)
        if isinstance(expr, ast.ColonAll):
            raise CodegenError("':' subscript outside an index expression")
        raise CodegenError(f"cannot compile {type(expr).__name__}")

    def lower_ident(self, expr: ast.Ident) -> tuple[int, str]:
        kind = self.dis.kind_of(expr)
        if kind is SymbolKind.VARIABLE:
            return self.var_regs.get(expr.name, self.var_reg(expr.name)), self.var_kind(expr.name)
        if kind is SymbolKind.BUILTIN:
            mtype = self.ann.type_of(expr)
            if mtype.is_constant:
                return self.const(mtype.constant_value, RAW_REAL), RAW_REAL
            if expr.name in ("i", "j"):
                return self.const(1j, RAW_COMPLEX), RAW_COMPLEX
            name_reg = self.const(expr.name, BOXED)
            result = self.callrt("builtin1", [name_reg], BOXED)
            return self._coerce_to_annotation(result, BOXED, expr)
        if kind is SymbolKind.USER_FUNCTION:
            name_reg = self.const(expr.name, BOXED)
            n_reg = self.const(1, RAW_INT)
            tuple_reg = self.callrt("call_user", [name_reg, n_reg], BOXED)
            element = self.fresh(BOXED)
            self.emit("UNPACK", element, (tuple_reg,), 0)
            return self._coerce_to_annotation(element, BOXED, expr)
        # Ambiguous: resolved at runtime from the variable register if it
        # was assigned on the executed path, else by dynamic lookup.
        if expr.name in self.var_regs or self._maybe_assigned(expr.name):
            var = self.var_reg(expr.name)
            name_reg = self.const(expr.name, BOXED)
            boxed_var = self.coerce(var, self.var_kind(expr.name), BOXED) \
                if self.var_kind(expr.name) != BOXED else var
            result = self.callrt("ambiguous_lookup", [name_reg, boxed_var], BOXED)
            return result, BOXED
        name_reg = self.const(expr.name, BOXED)
        none_reg = self.const(None, BOXED)
        result = self.callrt("ambiguous_lookup", [name_reg, none_reg], BOXED)
        return result, BOXED

    def _maybe_assigned(self, name: str) -> bool:
        info = self.dis.symbols.lookup(name)
        return info is not None and info.assigned

    def _coerce_to_annotation(self, reg, kind, expr) -> tuple[int, str]:
        target = repr_of_type(self.ann.type_of(expr))
        if target != kind:
            return self.coerce(reg, kind, target), target
        return reg, kind

    # ------------------------------------------------------------------
    def lower_unary(self, expr, end_array, end_dim) -> tuple[int, str]:
        fused = self.try_fuse(expr, end_array, end_dim)
        if fused is not None:
            return fused
        shape = self.selector.unroll_shape(expr)
        if shape is not None and expr.op is ast.UnaryKind.NEG:
            return self.lower_unrolled(expr, shape)
        reg, kind = self.lower_expr(expr.operand, end_array, end_dim)
        if kind != BOXED:
            aux = {"-": "-", "+": "+", "~": "~"}[expr.op.value]
            dst = self.fresh(kind if expr.op is not ast.UnaryKind.NOT else RAW_REAL)
            self.emit("UN", dst, (reg,), aux)
            return dst, self.reg_kinds[dst]
        helper = {"-": "g_neg", "+": "box", "~": "g_not"}[expr.op.value]
        return self.callrt(helper, [reg], BOXED), BOXED

    # ------------------------------------------------------------------
    # Elementwise fusion: collapse a whole array-typed operator tree into
    # one content-addressed kernel call (repro.kernels).  Deep trees over
    # exactly-known small shapes stay with the unroller — per-element
    # host arithmetic beats a NumPy kernel below ~4 collapsed ops.
    _FUSE_OVER_UNROLL_OPS = 4

    def try_fuse(
        self, expr, end_array=None, end_dim=0
    ) -> tuple[int, str] | None:
        if not self.options.fusion:
            return None
        from repro.kernels import KERNEL_CACHE, match_typed

        plan = match_typed(expr, self.ann, self.dis)
        if plan is None:
            return None
        if (
            self.options.unroll_enabled
            and plan.op_count < self._FUSE_OVER_UNROLL_OPS
            and self.selector.unroll_shape(expr) is not None
        ):
            return None
        with self.tracer.span(
            "fusion", "fusion",
            function=self.fn.name, ops=plan.op_count,
        ):
            leaf_regs = []
            descs = []
            for leaf in plan.leaves:
                reg, kind = self.lower_expr(leaf, end_array, end_dim)
                descs.append("b" if kind == BOXED else "s")
                leaf_regs.append(reg)
            kernel = KERNEL_CACHE.get_or_compile(
                plan.root, tuple(descs),
                fault_plan=self.fault_plan, obs=self.obs,
            )
        self.kernel_sources[kernel.name] = kernel.source
        self.kernel_keys[kernel.name] = kernel.key
        result = self.callrt(kernel.name, leaf_regs, BOXED)
        return self._coerce_to_annotation(result, BOXED, expr)

    def lower_binary(self, expr, end_array, end_dim) -> tuple[int, str]:
        if expr.op in ("&&", "||"):
            return self.lower_short_circuit(expr)
        match = self.selector.match_dgemv(expr)
        if match is not None:
            return self.lower_dgemv(match)
        fused = self.try_fuse(expr, end_array, end_dim)
        if fused is not None:
            return fused
        shape = self.selector.unroll_shape(expr)
        if shape is not None:
            return self.lower_unrolled(expr, shape)
        left, lkind = self.lower_expr(expr.left, end_array, end_dim)
        right, rkind = self.lower_expr(expr.right, end_array, end_dim)
        raw = lkind != BOXED and rkind != BOXED
        if raw and expr.op in _BINOP_PY:
            result_kind = RAW_REAL
            if RAW_COMPLEX in (lkind, rkind):
                result_kind = RAW_COMPLEX
            elif (
                lkind == RAW_INT
                and rkind == RAW_INT
                and expr.op in ("+", "-", "*", ".*")
            ):
                result_kind = RAW_INT  # host int arithmetic stays int
            node_type = self.ann.type_of(expr)
            if node_type.is_complex:
                result_kind = RAW_COMPLEX
            if result_kind == RAW_COMPLEX and expr.op in COMPLEX_BINOPS:
                return self.callrt(COMPLEX_BINOPS[expr.op], [left, right],
                                   RAW_COMPLEX), RAW_COMPLEX
            dst = self.fresh(result_kind)
            self.emit("BIN", dst, (left, right), _BINOP_PY[expr.op])
            return dst, result_kind
        if raw and expr.op in ("\\", ".\\"):
            if RAW_COMPLEX in (lkind, rkind):
                return self.callrt("c_div", [right, left],
                                   RAW_COMPLEX), RAW_COMPLEX
            dst = self.fresh(RAW_REAL)
            self.emit("BIN", dst, (right, left), "/")
            return dst, RAW_REAL
        helper = _BINOP_HELPER[expr.op]
        result = self.callrt(helper, [left, right], BOXED)
        return self._coerce_to_annotation(result, BOXED, expr)

    def lower_short_circuit(self, expr) -> tuple[int, str]:
        """``a && b`` / ``a || b`` with lazy right-operand evaluation."""
        result = self.fresh(RAW_REAL)
        left = self.lower_condition(expr.left)

        def eval_right() -> Seq:
            seq = Seq(parts=[])
            saved_seq, saved_block = self.seq, self.block
            self.seq = seq
            self.block = Block()
            seq.parts.append(self.block)
            right = self.lower_condition(expr.right)
            one = self.const(1.0, RAW_REAL)
            zero = self.const(0.0, RAW_REAL)
            self.seq.parts.append(
                IfRegion(
                    header=Block(),
                    cond=right,
                    then=Seq(parts=[_mov_block(result, one)]),
                    orelse=Seq(parts=[_mov_block(result, zero)]),
                )
            )
            self.seq, self.block = saved_seq, saved_block
            return seq

        def const_result(value: float) -> Seq:
            block = Block()
            creg = self.fresh(RAW_REAL)
            block.emit(Instr("CONST", creg, (), value))
            block.emit(Instr("MOV", result, (creg,)))
            return Seq(parts=[block])

        if expr.op == "&&":
            region = IfRegion(
                header=Block(), cond=left,
                then=eval_right(), orelse=const_result(0.0),
            )
        else:
            region = IfRegion(
                header=Block(), cond=left,
                then=const_result(1.0), orelse=eval_right(),
            )
        self.seq.parts.append(region)
        self._new_block()
        return result, RAW_REAL

    def lower_matrix(self, expr: ast.MatrixLit) -> tuple[int, str]:
        shape = self.selector.unroll_shape(expr)
        if shape is not None:
            return self.lower_unrolled(expr, shape)
        if not expr.rows:
            return self.callrt("empty_matrix", [], BOXED), BOXED
        row_regs = []
        for row in expr.rows:
            elems = [self.lower_expr(item)[0] for item in row]
            row_regs.append(self.callrt("hcat", elems, BOXED))
        if len(row_regs) == 1:
            return row_regs[0], BOXED
        return self.callrt("vcat", row_regs, BOXED), BOXED

    def lower_dgemv(self, match) -> tuple[int, str]:
        alpha = (
            self.const(1.0, RAW_REAL)
            if match.alpha is None
            else self.coerce(*self.lower_expr(match.alpha), RAW_REAL)
        )
        matrix = self.coerce(*self.lower_expr(match.matrix), BOXED)
        vector = self.coerce(*self.lower_expr(match.vector), BOXED)
        if match.addend is None:
            beta = self.const(0.0, RAW_REAL)
            addend = self.const(None, BOXED)
        else:
            beta = (
                self.const(1.0, RAW_REAL)
                if match.beta is None
                else self.coerce(*self.lower_expr(match.beta), RAW_REAL)
            )
            addend = self.coerce(*self.lower_expr(match.addend), BOXED)
        result = self.callrt("dgemv", [alpha, matrix, vector, beta, addend], BOXED)
        return result, BOXED

    # ------------------------------------------------------------------
    # Unrolled small-vector operations with pre-allocated site buffers
    # ------------------------------------------------------------------
    def lower_unrolled(self, expr: ast.Expr, shape: tuple[int, int]) -> tuple[int, str]:
        rows, cols = shape
        buffer = self._site_buffer(rows, cols)
        if isinstance(expr, ast.MatrixLit):
            regs = []
            for r, row in enumerate(expr.rows):
                for c, item in enumerate(row):
                    value = self.coerce(*self.lower_expr(item), RAW_REAL)
                    regs.append((r, c, value))
            for r, c, value in regs:
                i = self.const(r + 1, RAW_INT)
                j = self.const(c + 1, RAW_INT)
                self.emit("STORE2", None, (buffer, i, j, value), "unchecked")
            return buffer, BOXED
        if isinstance(expr, ast.UnaryOp):
            operand = self._unroll_operand(expr.operand)
            for r in range(rows):
                for c in range(cols):
                    value = self._unroll_element(operand, r, c)
                    dst = self.fresh(RAW_REAL)
                    self.emit("UN", dst, (value,), "-")
                    self._unroll_store(buffer, r, c, dst)
            return buffer, BOXED
        # Binary elementwise / scalar-array op.
        left = self._unroll_operand(expr.left)
        right = self._unroll_operand(expr.right)
        py_op = _BINOP_PY[expr.op]
        for r in range(rows):
            for c in range(cols):
                a = self._unroll_element(left, r, c)
                b = self._unroll_element(right, r, c)
                dst = self.fresh(RAW_REAL)
                self.emit("BIN", dst, (a, b), py_op)
                self._unroll_store(buffer, r, c, dst)
        return buffer, BOXED

    def _site_buffer(self, rows: int, cols: int) -> int:
        """Per-site pre-allocated result buffer (allocated once at entry)."""
        buffer = self.fresh(BOXED)
        saved = self.block
        self.block = self.prologue
        r = self.const(rows, RAW_INT)
        c = self.const(cols, RAW_INT)
        self.emit("CALLRT", buffer, (r, c), "alloc")
        self.block = saved
        self._buffer_regs.append(buffer)
        return buffer

    def _unroll_operand(self, node: ast.Expr):
        """Either ('scalar', reg) or ('array', reg) for element access."""
        mtype = self.ann.type_of(node)
        if mtype.is_scalar:
            return ("scalar", self.coerce(*self.lower_expr(node), RAW_REAL))
        reg, kind = self.lower_expr(node)
        return ("array", self.coerce(reg, kind, BOXED))

    def _unroll_element(self, operand, r: int, c: int) -> int:
        tag, reg = operand
        if tag == "scalar":
            return reg
        i = self.const(r + 1, RAW_INT)
        j = self.const(c + 1, RAW_INT)
        dst = self.fresh(RAW_REAL)
        self.emit("LOAD2", dst, (reg, i, j), "unchecked")
        return dst

    def _unroll_store(self, buffer: int, r: int, c: int, value: int) -> None:
        i = self.const(r + 1, RAW_INT)
        j = self.const(c + 1, RAW_INT)
        self.emit("STORE2", None, (buffer, i, j, value), "unchecked")

    # ------------------------------------------------------------------
    def lower_apply(self, expr: ast.Apply) -> tuple[int, str]:
        if expr.kind is ast.ApplyKind.INDEX:
            return self.lower_index_load(expr)
        if expr.kind is ast.ApplyKind.BUILTIN:
            return self.lower_builtin_call(expr)
        # User function (or ambiguous call — resolved as late-bound user).
        arg_regs = [
            self.coerce(*self.lower_expr(arg), BOXED) for arg in expr.args
        ]
        name_reg = self.const(expr.name, BOXED)
        n_reg = self.const(1, RAW_INT)
        tuple_reg = self.callrt("call_user", [name_reg, n_reg, *arg_regs], BOXED)
        element = self.fresh(BOXED)
        self.emit("UNPACK", element, (tuple_reg,), 0)
        return self._coerce_to_annotation(element, BOXED, expr)

    def lower_index_load(self, expr: ast.Apply) -> tuple[int, str]:
        arr = self.var_reg(expr.name)
        arr_kind = self.var_kind(expr.name)
        element_type = self.ann.type_of(expr)
        target_kind = repr_of_type(element_type)
        indices = expr.args
        scalar_indices = (
            arr_kind == BOXED
            and all(
                not isinstance(i, (ast.ColonAll, ast.Range))
                and self.ann.type_of(i).is_scalar
                for i in indices
            )
        )
        if scalar_indices and target_kind in (RAW_REAL, RAW_COMPLEX):
            index_regs = [
                self.lower_index_arg(i, expr.name, pos, len(indices))
                for pos, i in enumerate(indices)
            ]
            safety = self.ann.safety_of_load(expr)
            mode = "unchecked" if safety is SubscriptSafety.SAFE else "checked"
            op = "LOAD1" if len(index_regs) == 1 else "LOAD2"
            dst = self.fresh(target_kind)
            self.emit(op, dst, (arr, *index_regs), mode)
            return dst, target_kind
        # Generic indexing through helpers (handles ':' and vector indices).
        if arr_kind != BOXED:
            # Indexing a raw scalar: A(1) of a scalar is the scalar itself;
            # route through the generic helper for full semantics.
            arr = self.coerce(arr, arr_kind, BOXED)
        index_regs = []
        colon_positions = []
        for pos, idx in enumerate(indices):
            if isinstance(idx, ast.ColonAll):
                colon_positions.append(pos)
                index_regs.append(None)
            else:
                index_regs.append(
                    self._lower_index_any(idx, expr.name, pos, len(indices))
                )
        if len(indices) == 1:
            if colon_positions:
                result = self.callrt("index_all", [arr], BOXED)
            else:
                result = self.callrt("g_index1", [arr, index_regs[0]], BOXED)
        else:
            if colon_positions == [0]:
                result = self.callrt("index_col", [arr, index_regs[1]], BOXED)
            elif colon_positions == [1]:
                result = self.callrt("index_row", [arr, index_regs[0]], BOXED)
            elif colon_positions == [0, 1]:
                result = self.callrt("index_whole", [arr], BOXED)
            else:
                result = self.callrt(
                    "g_index2", [arr, index_regs[0], index_regs[1]], BOXED
                )
        return self._coerce_to_annotation(result, BOXED, expr)

    def lower_builtin_call(self, expr: ast.Apply) -> tuple[int, str]:
        mtype = self.ann.type_of(expr)
        # Constant folding via range propagation: a builtin call whose
        # result is a known constant compiles to an immediate.
        from repro.runtime.builtins import BUILTINS

        entry = BUILTINS.get(expr.name)
        if (
            mtype.is_constant
            and entry is not None
            and entry.pure
            and not expr.args
        ):
            return self.const(mtype.constant_value, RAW_REAL), RAW_REAL
        # Builtin-rooted fused trees (e.g. ``exp(a .* b)``).
        fused = self.try_fuse(expr)
        if fused is not None:
            return fused
        # Scalar math fast path.
        fast = SCALAR_MATH.get(expr.name)
        if fast is not None and len(expr.args) == 1:
            arg_type = self.ann.type_of(expr.args[0])
            if arg_type.is_scalar and arg_type.is_real_like:
                reg = self.coerce(*self.lower_expr(expr.args[0]), RAW_REAL)
                real_helper, complex_helper = fast
                if mtype.is_scalar and mtype.is_real_like:
                    if real_helper == "abs":
                        dst = self.fresh(RAW_REAL)
                        self.emit("UN", dst, (reg,), "abs")
                        return dst, RAW_REAL
                    return self.callrt(real_helper, [reg], RAW_REAL), RAW_REAL
                if complex_helper is not None and mtype.is_scalar:
                    return (
                        self.callrt(complex_helper, [reg], RAW_COMPLEX),
                        RAW_COMPLEX,
                    )
            if (
                arg_type.is_scalar
                and arg_type.intrinsic is Intrinsic.COMPLEX
                and fast[1] is not None
            ):
                reg = self.coerce(*self.lower_expr(expr.args[0]), RAW_COMPLEX)
                kind = RAW_REAL if expr.name == "abs" else RAW_COMPLEX
                return self.callrt(fast[1], [reg], kind), kind
        if expr.name in ("mod", "rem") and len(expr.args) == 2:
            types = [self.ann.type_of(a) for a in expr.args]
            if all(t.is_scalar and t.is_real_like for t in types):
                regs = [
                    self.coerce(*self.lower_expr(a), RAW_REAL)
                    for a in expr.args
                ]
                helper = "m_mod" if expr.name == "mod" else "m_rem"
                return self.callrt(helper, regs, RAW_REAL), RAW_REAL
        # Generic builtin dispatch.
        arg_regs = [
            self.coerce(*self.lower_expr(arg), BOXED) for arg in expr.args
        ]
        name_reg = self.const(expr.name, BOXED)
        result = self.callrt("builtin1", [name_reg, *arg_regs], BOXED)
        return self._coerce_to_annotation(result, BOXED, expr)


def _mov_block(dst: int, src: int) -> Block:
    block = Block()
    block.emit(Instr("MOV", dst, (src,)))
    return block

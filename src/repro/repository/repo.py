"""The code repository proper (Sections 2 and 2.2.1).

Responsibilities:

* hold the table of known user functions (from snooped directories and
  directly added sources);
* hold, per function, the list of compiled versions differing only in
  their type-signature assumptions (paper Figure 3);
* the **function locator**: given an invocation, find a compiled version
  that is *safe* (``Qi ⊑ Ti`` for every parameter) and best by the
  Manhattan-like distance; a miss triggers JIT compilation ("since this
  typically happens during program execution, where time is at a premium,
  the JIT compiler is used in this situation");
* a per-function **inline cache** in front of the locator, whose guards
  (observed class and shape, plus bounded formal ranges) serve a repeated
  call shape without building a :class:`Signature`;
* speculative ahead-of-time compilation of everything it knows about
  (:meth:`CodeRepository.speculate_all`), whose compile time is *hidden*
  (performed before the user needs the code);
* recompilation triggers when snooped sources change.

Robustness layer (tiered execution)
-----------------------------------
Compiled code is an optimization, never a semantic requirement, so the
repository treats the interpreter as its safety net:

* **guarded deoptimization** — any non-:class:`~repro.errors.MatlabError`
  exception escaping a compiled object (a miscompile, an inference bug, a
  host ``TypeError`` in generated source) quarantines that version,
  records a deopt event and transparently re-executes the invocation
  through the interpreter; side effects of the half-run compiled call
  (random-stream draws, printed output) are rolled back first;
* **strike counter** — a function whose compiled versions keep failing is
  demoted to interpreter-only after ``max_strikes`` quarantines;
* **compile budgets** — :meth:`speculate_all` and :meth:`jit_compile`
  accept wall-clock budgets that skip-and-record instead of raising, so
  one pathological function cannot stall the "hidden" ahead-of-time pass;
* **diagnostics** — every degradation lands in :attr:`diagnostics` as a
  structured event.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

from repro.analysis.disambiguate import Disambiguator
from repro.errors import CodegenError, MatlabError, RepositoryError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.codegen.inline import Inliner
from repro.codegen.jitgen import CompiledObject, JitCompiler, JitOptions
from repro.codegen.runtime_support import RuntimeSupport
from repro.codegen.srcgen import SourceCompiler, SrcOptions
from repro.inference.speculation import Speculator
from repro.interp.frontend import Invocation
from repro.interp.interpreter import Interpreter
from repro.faults.plan import SITE_HANG, SITE_OOM
from repro.obs import DISABLED as DISABLED_OBS
from repro.obs import TIER_INTERPRETER
from repro.resilience import (
    DEFAULT_POLICY,
    ExecutionGuard,
    ResiliencePolicy,
    SandboxExecutor,
    SandboxFailure,
)
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.display import OutputSink
from repro.runtime.mxarray import MxArray
from repro.repository.depgraph import DependencyGraph
from repro.repository.cache import cache_key, function_source_text, options_fingerprint
from repro.repository.diagnostics import (
    BUDGET_SKIP,
    CACHE_EVICT,
    CACHE_HIT,
    CACHE_LOAD,
    CACHE_STORE,
    COMPILE_FAILURE,
    DEOPT,
    QUARANTINE,
    SANDBOX_FAILURE,
    SANDBOX_TRIAL,
    DiagnosticsLog,
)
from repro.repository.snoop import DirectorySnoop
from repro.typesys.mtype import MType
from repro.typesys.signature import Signature

#: Inline-cache entries kept per function (most recent first).
INLINE_CACHE_ENTRIES = 8

#: Fault sites probed in-process around a supervised compiled run.
_RUN_PROBES = (SITE_HANG, SITE_OOM)



@dataclass
class RepositoryStats:
    jit_compiles: int = 0
    speculative_compiles: int = 0
    fallback_interpreted: int = 0
    jit_compile_seconds: float = 0.0
    speculative_compile_seconds: float = 0.0
    # Robustness counters (mirrored by the diagnostics event log).
    deopts: int = 0
    quarantines: int = 0
    budget_skips: int = 0
    compile_failures: int = 0
    # Responsiveness counters (background speculation + persistent cache).
    background_compiles: int = 0
    cache_hits: int = 0
    cache_stores: int = 0
    # Observability: executions by tier (summary()/profiler cross-checks).
    calls_jit: int = 0
    calls_spec: int = 0
    calls_interpreted: int = 0


@dataclass(frozen=True)
class CompileBudget:
    """Wall-clock compile budgets (seconds; ``None`` = unlimited).

    ``per_pass`` bounds a whole :meth:`CodeRepository.speculate_all` sweep;
    ``per_function`` bounds one compile.  Compilation cannot be preempted
    mid-function, so both are enforced *between* compiles: a pass stops
    before the first function that would start past its budget (± one
    function), and a function whose compile overruns ``per_function`` is
    flagged so future speculative passes skip it up front.
    """

    per_pass: float | None = None
    per_function: float | None = None


def _as_budget(budget) -> CompileBudget:
    if budget is None:
        return CompileBudget()
    if isinstance(budget, CompileBudget):
        return budget
    return CompileBudget(per_pass=float(budget))


class SpeculationReport(list):
    """Names compiled by a speculative pass (list subclass for backward
    compatibility) plus what the pass *didn't* do and why."""

    def __init__(self):
        super().__init__()
        self.skipped: list[tuple[str, str]] = []  # (function, reason)
        self.failed: list[str] = []
        self.elapsed: float = 0.0


class CodeRepository:
    """Database of compiled code plus the machinery around it."""

    def __init__(
        self,
        jit_options: JitOptions | None = None,
        src_options: SrcOptions | None = None,
        sink: OutputSink | None = None,
        inline_enabled: bool = True,
        compile_budget: CompileBudget | None = None,
        max_strikes: int = 3,
        fault_plan=None,
        cache=None,
        obs=None,
        resilience: ResiliencePolicy | None = None,
        diagnostics_capacity: int | None = None,
        native=None,
    ):
        self.jit_options = jit_options or JitOptions()
        self.src_options = src_options or SrcOptions()
        self.sink = sink if sink is not None else OutputSink()
        self.inline_enabled = inline_enabled
        self.compile_budget = compile_budget or CompileBudget()
        self.max_strikes = max_strikes
        self.fault_plan = fault_plan
        # Observability switchboard (tracing + metrics; a shared null
        # facade when the session didn't ask for either).
        self.obs = obs if obs is not None else DISABLED_OBS
        # Optional disk persistence (a RepositoryCache); compiled objects
        # found there skip compilation entirely in warm sessions.
        self.cache = cache
        self.snoop = DirectorySnoop()
        self.depgraph = DependencyGraph()
        self.stats = RepositoryStats()
        self.diagnostics = DiagnosticsLog(
            capacity=diagnostics_capacity
            if diagnostics_capacity is not None else 10_000
        )
        # Robustness events mirror into the metrics registry and the
        # trace stream for free (deopts, quarantines, budget skips, ...).
        self.obs.bind_diagnostics(self.diagnostics)
        # Supervision tier (repro.resilience): watchdog deadlines around
        # compiles/runs, and optionally a sandbox for first runs.
        self.resilience = resilience if resilience is not None else DEFAULT_POLICY
        self.guard = ExecutionGuard(
            compile_deadline=self.resilience.compile_deadline,
            run_deadline=self.resilience.run_deadline,
            diagnostics=self.diagnostics,
            obs=self.obs,
        )
        self.sandbox = (
            SandboxExecutor(
                timeout=self.resilience.sandbox_timeout,
                fault_plan=fault_plan,
                diagnostics=self.diagnostics,
                obs=self.obs,
            )
            if self.resilience.sandbox else None
        )
        self._select_run_step()
        # The cache heals itself; give it the session's flight recorder.
        if cache is not None and getattr(cache, "diagnostics", None) is None:
            cache.diagnostics = self.diagnostics
        # name -> FunctionDef (raw, as parsed)
        self._functions: dict[str, ast.FunctionDef] = {}
        # name -> inlined FunctionDef cache
        self._inlined: dict[str, ast.FunctionDef] = {}
        # name -> list of compiled versions
        self._objects: dict[str, list[CompiledObject]] = {}
        # functions that failed to compile (fall back to interpretation)
        self._uncompilable: set[str] = set()
        # (function, mode, PhaseTimes) for every compile this repository ran
        self.compile_log: list[tuple[str, str, object]] = []
        # Inline cache: name -> ((guard facts, version), ...), most recent
        # first.  Read without the lock; entries are replaced, never
        # mutated, and cleared by every change to the version list.
        self._ic: dict[str, tuple] = {}
        # Adaptive-tiering controller (repro.tiering), attached through
        # attach_tiering() so neither module imports the other.  The miss
        # policy and the per-call hook are bound here, not tested per call.
        self.tiering = None
        self._on_miss = self._miss_compile
        self._serve = self._guarded_invoke
        # Deopt strike counts per function (quarantine at max_strikes).
        self._strikes: dict[str, int] = {}
        # Functions whose compile overran the per-function budget.
        self._budget_flagged: set[str] = set()
        # Thread safety: background speculation workers mutate the same
        # tables the foreground session reads.  ``_lock`` (reentrant)
        # guards every shared dict/set; compilation itself runs outside it
        # under a per-function lock (prepared ASTs are per-name clones, so
        # distinct names can compile in parallel, but two compiles of one
        # name share AST nodes the disambiguator annotates in place).
        self._lock = threading.RLock()
        self._compile_locks: dict[str, threading.Lock] = {}
        # Monotonic per-name redefinition counters: an in-flight background
        # compile captures the generation at enqueue time and its result is
        # dropped if the function was redefined (or removed) meanwhile.
        self._generations: dict[str, int] = {}
        # The native tier (repro.native): shared by both consumers so a
        # kernel promoted on the interpreter path serves JIT code too.
        self.native = native
        self._interpreter = Interpreter(
            function_lookup=self.lookup_function,
            sink=self.sink,
            call_dispatcher=self.dispatch,
            fusion=self.jit_options.fusion,
            native=native,
        )
        self._rt = RuntimeSupport(
            call_user=self._call_user, sink=self.sink, fault_plan=fault_plan,
            obs=self.obs, native=native,
        )

    # ------------------------------------------------------------------
    # Source management
    # ------------------------------------------------------------------
    def add_source(self, source: str | ast.Program) -> list[str]:
        """Register function definitions from source text or a parsed
        program; returns the names registered."""
        if isinstance(source, str):
            with self.obs.tracer.span("parse", "parse"):
                program = parse(source)
        else:
            program = source
        if program.is_script:
            raise RepositoryError("scripts cannot be added to the repository")
        names = []
        for fn in program.functions:
            self._register(fn)
            names.append(fn.name)
        return names

    def add_path(self, directory) -> list[str]:
        """Snoop a directory of .m files; returns newly seen functions."""
        self.snoop.add_path(directory)
        return self.rescan()

    def rescan(self) -> list[str]:
        """Re-scan snooped directories, invalidating changed functions."""
        report = self.snoop.scan()
        table = self.snoop.functions()
        touched: list[str] = []
        for name in report.added + report.changed:
            fn = table.get(name)
            if fn is not None:
                self._register(fn)
                touched.append(name)
        for name in report.removed:
            if name not in table:
                self._unregister(name)
        return touched

    def _register(self, fn: ast.FunctionDef) -> None:
        with self._lock:
            self._functions[fn.name] = fn
            # Invalidate the function itself and everything that inlined
            # it; each gets a new generation so in-flight background
            # compiles of the old source are dropped at store time.
            for stale in self.depgraph.dependents_of(fn.name):
                self._purge_compiled_state(stale)

    def _unregister(self, name: str) -> None:
        with self._lock:
            self._functions.pop(name, None)
            # Same purge as _register: a removed function must not keep
            # serving a stale cached object, stay wrongly blacklisted, or
            # carry strike and budget state over to an unrelated future
            # function of the same name — and neither may anything that
            # inlined it.
            for stale in self.depgraph.dependents_of(name):
                self._purge_compiled_state(stale)
            self.depgraph.drop(name)

    def _purge_compiled_state(self, name: str) -> None:
        """Forget every compilation artifact and verdict about ``name``
        (its source changed or vanished; old conclusions no longer hold)."""
        with self._lock:
            self._set_versions(name, ())
            self._inlined.pop(name, None)
            self._uncompilable.discard(name)
            self._strikes.pop(name, None)
            self._budget_flagged.discard(name)
            self._generations[name] = self._generations.get(name, 0) + 1

    def generation_of(self, name: str) -> int:
        """Redefinition counter for ``name`` (background-compile tokens)."""
        with self._lock:
            return self._generations.get(name, 0)

    def knows(self, name: str) -> bool:
        return name in self._functions

    def function_names(self) -> list[str]:
        with self._lock:
            return sorted(self._functions)

    def lookup_function(self, name: str) -> ast.FunctionDef | None:
        return self._functions.get(name)

    # ------------------------------------------------------------------
    # Inlining pass (Figure 1, pass 2)
    # ------------------------------------------------------------------
    def _prepared(self, name: str) -> ast.FunctionDef:
        with self._lock:
            fn = self._functions.get(name)
            if fn is None:
                raise RepositoryError(f"unknown function '{name}'")
            if not self.inline_enabled:
                return fn
            cached = self._inlined.get(name)
            if cached is not None:
                return cached
        # Inlining (a deep copy + transform) runs outside the state lock;
        # a concurrent redefinition simply wins the re-check below.
        inliner = Inliner(self.lookup_function)
        prepared = inliner.run(fn)
        with self._lock:
            if self._functions.get(name) is not fn:
                # Redefined mid-prepare: recurse onto the fresh source.
                return self._prepared(name)
            self._inlined[name] = prepared
            used = (
                inliner.inlined_names
                | (_called_names(prepared) & set(self._functions))
            )
            self.depgraph.set_dependencies(name, used - {name})
        return prepared

    def _compile_lock(self, name: str) -> threading.Lock:
        """Per-name compile lock: one compile of a given function at a
        time (its prepared AST is annotated in place by disambiguation),
        while distinct functions compile in parallel."""
        with self._lock:
            lock = self._compile_locks.get(name)
            if lock is None:
                lock = self._compile_locks[name] = threading.Lock()
            return lock

    # ------------------------------------------------------------------
    # The function locator (Section 2.2.1)
    # ------------------------------------------------------------------
    def locate(self, invocation) -> CompiledObject | None:
        """Find the best safe compiled version for an invocation."""
        versions = self._objects.get(invocation.name, ())
        if not versions:
            return None
        inv_sig = invocation.signature
        best: CompiledObject | None = None
        best_distance = float("inf")
        for version in versions:
            if len(version.signature) < len(invocation.args):
                continue
            padded = self._pad_signature(inv_sig, len(version.signature))
            if not version.signature.accepts(padded):
                continue
            distance = version.signature.distance(padded)
            if distance < best_distance:
                best, best_distance = version, distance
        return best

    @staticmethod
    def _pad_signature(signature: Signature, arity: int) -> Signature:
        if len(signature) == arity:
            return signature
        return Signature.of(
            list(signature.types)
            + [MType.bottom() for _ in range(arity - len(signature))]
        )

    def store(self, obj: CompiledObject) -> None:
        """Add (or replace) a compiled version in the database.

        A new object replaces an existing one with the identical signature
        ("the generated code can later be recompiled and replaced in the
        repository using a better compiler").
        """
        with self._lock:
            versions = list(self._objects.get(obj.name, ()))
            for index, existing in enumerate(versions):
                if existing.signature == obj.signature:
                    versions[index] = obj
                    break
            else:
                versions.append(obj)
            self._set_versions(obj.name, versions)

    def _set_versions(self, name: str, versions) -> None:
        """The one writer of a function's version list.  ``versions`` is
        a fresh list: stored lists are replaced, never mutated, so readers
        need no lock.  Also clears the function's inline cache, whose
        entries may name a version that is gone or that a newly stored
        one now beats."""
        with self._lock:
            if versions:
                self._objects[name] = versions
            else:
                self._objects.pop(name, None)
            self._ic.pop(name, None)

    def versions_of(self, name: str) -> list[CompiledObject]:
        with self._lock:
            return list(self._objects.get(name, ()))

    # ------------------------------------------------------------------
    # Persistent cache plumbing
    # ------------------------------------------------------------------
    def _options_fingerprint(self) -> str:
        fingerprint = getattr(self, "_options_fp", None)
        if fingerprint is None:
            fingerprint = options_fingerprint(self.jit_options, self.src_options)
            self._options_fp = fingerprint
        return fingerprint

    def _cache_key(self, fn: ast.FunctionDef, signature_tag) -> str | None:
        """Content address of one compile (None without a cache).

        ``signature_tag`` disambiguates versions of one source: the
        invocation signature for JIT compiles, the mode tag for
        speculative ones (whose signature is derived by the speculator).
        """
        if self.cache is None:
            return None
        return cache_key(
            function_source_text(fn), signature_tag, self._options_fingerprint()
        )

    def _cache_probe(self, name: str, key: str | None) -> CompiledObject | None:
        """Look one compile up in the disk cache; validate before trusting."""
        if key is None:
            return None
        with self.obs.tracer.span("cache.load", "cache", function=name):
            obj = self.cache.get(key)
        if obj is None:
            self.obs.record_cache("miss")
            return None
        if obj.name != name:
            # Hash collision or tampering: refuse the entry.
            self.obs.record_cache("miss")
            self.cache.evict(key)
            self.diagnostics.record(
                CACHE_LOAD, name,
                detail=f"rejected cache entry {key[:12]} naming '{obj.name}'",
            )
            return None
        self.obs.record_cache("hit")
        self.diagnostics.record(
            CACHE_LOAD, name,
            detail=f"loaded {obj.mode} version from cache entry {key[:12]}",
            signature=obj.signature,
        )
        return obj

    def _cache_store(self, key: str | None, obj: CompiledObject) -> None:
        if key is None:
            return
        with self.obs.tracer.span("cache.store", "cache", function=obj.name):
            stored = self.cache.put(key, obj)
        if stored:
            with self._lock:
                self.stats.cache_stores += 1
            self.diagnostics.record(
                CACHE_STORE, obj.name,
                detail=f"persisted {obj.mode} version as cache entry {key[:12]}",
                signature=obj.signature,
            )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def jit_compile(
        self,
        name: str,
        signature: Signature,
        budget: float | None = None,
    ) -> CompiledObject:
        """Compile one function for one signature with the JIT pipeline.

        ``budget`` (default: the repository-wide per-function budget) is a
        wall-clock target, not a hard deadline: the compile it bounds has
        already run by the time it can be measured, so an overrun stores
        and returns the object (this call needs it) but records the event
        and flags the function so speculative passes skip it up front.
        """
        with self.obs.tracer.span("jit_compile", "compile", function=name):
            return self._jit_compile(name, signature, budget)

    def _jit_compile(
        self,
        name: str,
        signature: Signature,
        budget: float | None = None,
    ) -> CompiledObject:
        fn = self._prepared(name)
        with self._compile_lock(name):
            if self._has_dynamic_calls(fn) or self._range_only_miss(name, signature):
                # Two situations call for range widening (paper Figure 3:
                # poly1_sig1 with limits(x) = top exists alongside the
                # constant-specialized sig0):
                #  * remaining dynamic calls (recursion past the inlining
                #    depth) would recompile for every distinct constant;
                #  * a repository miss whose only difference from an existing
                #    version is the value ranges — the same call site is being
                #    fed varying values, so stop specializing on them.
                signature = Signature.of(t.widen_range() for t in signature)
                existing = self._find_version(name, signature)
                if existing is not None:
                    return existing
            key = self._cache_key(fn, signature)
            cached = self._cache_probe(name, key)
            if cached is not None:
                with self._lock:
                    self.stats.cache_hits += 1
                self.diagnostics.record(
                    CACHE_HIT, name,
                    detail="jit compile served from the persistent cache",
                    signature=cached.signature,
                )
                self.store(cached)
                return cached
            compiler = JitCompiler(
                self.jit_options,
                fault_plan=self.fault_plan,
                tracer=self.obs.tracer,
                obs=self.obs,
            )
            start = time.perf_counter()
            with self.guard.compile_guard(name):
                obj = compiler.compile(
                    fn, signature, mode="jit", is_user_function=self.knows
                )
            duration = time.perf_counter() - start
            with self._lock:
                self.stats.jit_compiles += 1
                self.stats.jit_compile_seconds += duration
                self.compile_log.append((name, "jit", obj.phase_times))
            self.obs.record_compile("jit", obj.phase_times)
            self.store(obj)
            self._cache_store(key, obj)
        if budget is None:
            budget = self.compile_budget.per_function
        if budget is not None and duration > budget:
            with self._lock:
                self._budget_flagged.add(name)
                self.stats.budget_skips += 1
            self.diagnostics.record(
                BUDGET_SKIP, name,
                detail=f"jit compile took {duration:.4f}s "
                f"(budget {budget:.4f}s); flagged for speculative skips",
                signature=signature,
            )
        return obj

    def speculate(
        self, name: str, generation: int | None = None
    ) -> CompiledObject | None:
        """Speculatively compile one function ahead of time.

        ``generation`` is the invalidation token background workers pass:
        when it no longer matches the function's current generation (the
        source was redefined or removed mid-flight), the result is
        discarded instead of stored.
        """
        if generation is not None and self.generation_of(name) != generation:
            return None
        with self.obs.tracer.span("speculate", "compile", function=name):
            return self._speculate(name, generation)

    def _speculate(
        self, name: str, generation: int | None = None
    ) -> CompiledObject | None:
        fn = self._prepared(name)
        key = self._cache_key(fn, "spec")
        with self._compile_lock(name):
            cached = self._cache_probe(name, key)
            if cached is not None:
                with self._lock:
                    if (
                        generation is not None
                        and self._generations.get(name, 0) != generation
                    ):
                        return None
                    self.stats.cache_hits += 1
                self.diagnostics.record(
                    CACHE_HIT, name,
                    detail="speculative compile served from the persistent cache",
                    signature=cached.signature,
                )
                self.store(cached)
                return cached
            tracer = self.obs.tracer
            try:
                # One deadline covers the whole speculative pipeline: its
                # analysis phases (disambiguation, inference) can hang
                # just as hard as codegen.
                with self.guard.compile_guard(name):
                    phase_start = time.perf_counter()
                    with tracer.span("disambiguation", "disambiguation",
                                     function=name, mode="spec"):
                        disambiguation = Disambiguator(self.knows).run_function(fn)
                    disamb_elapsed = time.perf_counter() - phase_start
                    phase_start = time.perf_counter()
                    with tracer.span("type_inference", "type_inference",
                                     function=name, mode="spec"):
                        speculator = Speculator(options=self.src_options.inference)
                        result = speculator.speculate(fn, disambiguation)
                    inference_elapsed = time.perf_counter() - phase_start
                    compiler = SourceCompiler(
                        self.src_options, fault_plan=self.fault_plan,
                        tracer=tracer
                    )
                    start = time.perf_counter()
                    obj = compiler.compile(
                        fn,
                        result.signature,
                        disambiguation=disambiguation,
                        annotations=result.annotations,
                        mode="spec",
                    )
                    elapsed = time.perf_counter() - start
            except CodegenError as exc:
                # Expected "cannot compile this construct": interpreter-only.
                with self._lock:
                    self._uncompilable.add(name)
                self._record_compile_failure(name, "spec", exc)
                return None
            except Exception as exc:  # noqa: BLE001 - the AOT pass must survive
                # Unexpected compiler crash (inference bug, injected fault):
                # record it, but leave the function eligible for the JIT — the
                # concrete call-site types may well compile fine.
                self._record_compile_failure(name, "spec", exc)
                return None
            # Credit the repository-side analysis phases (the compiler
            # received them precomputed, so its own clocks read zero).
            obj.phase_times.disambiguation += disamb_elapsed
            obj.phase_times.type_inference += inference_elapsed
            with self._lock:
                if (
                    generation is not None
                    and self._generations.get(name, 0) != generation
                ):
                    # Redefined while compiling: the object describes dead
                    # source; drop it (the new source gets its own pass).
                    return None
                self.stats.speculative_compiles += 1
                self.stats.speculative_compile_seconds += elapsed
                self.compile_log.append((name, "spec", obj.phase_times))
                self.store(obj)
            self.obs.record_compile("spec", obj.phase_times)
            self._cache_store(key, obj)
        return obj

    def speculate_all(
        self, budget: float | CompileBudget | None = None
    ) -> SpeculationReport:
        """Ahead-of-time pass over every known function.

        ``budget`` (seconds, or a :class:`CompileBudget`) keeps the pass
        "hidden": once the per-pass budget is spent the remaining
        functions are skipped and recorded, never raised; a per-function
        budget discards (and flags) any single compile that overran it.
        Returns a list of the compiled names; the
        :class:`SpeculationReport` subclass also carries ``skipped``,
        ``failed`` and ``elapsed``.
        """
        with self.obs.tracer.span("speculate_all", "speculation"):
            return self._speculate_all(budget)

    def _speculate_all(
        self, budget: float | CompileBudget | None = None
    ) -> SpeculationReport:
        budget = _as_budget(budget) if budget is not None else self.compile_budget
        report = SpeculationReport()
        names = self.function_names()
        start = time.perf_counter()
        for position, name in enumerate(names):
            elapsed = time.perf_counter() - start
            if budget.per_pass is not None and elapsed >= budget.per_pass:
                for skipped in names[position:]:
                    report.skipped.append((skipped, "pass-budget"))
                    self.stats.budget_skips += 1
                    self.diagnostics.record(
                        BUDGET_SKIP, skipped,
                        detail=f"speculative pass budget "
                        f"({budget.per_pass:.4f}s) exhausted "
                        f"after {elapsed:.4f}s",
                    )
                break
            if name in self._budget_flagged:
                report.skipped.append((name, "function-budget"))
                self.stats.budget_skips += 1
                self.diagnostics.record(
                    BUDGET_SKIP, name,
                    detail="previously flagged as over the per-function "
                    "compile budget",
                )
                continue
            fn_start = time.perf_counter()
            obj = self.speculate(name)
            fn_elapsed = time.perf_counter() - fn_start
            if obj is None:
                report.failed.append(name)
                continue
            if (
                budget.per_function is not None
                and fn_elapsed > budget.per_function
            ):
                # The compile finished but proved pathological: drop the
                # object and flag the function so the pass stays cheap.
                self._drop_version(name, obj)
                self._budget_flagged.add(name)
                report.skipped.append((name, "function-budget"))
                self.stats.budget_skips += 1
                self.diagnostics.record(
                    BUDGET_SKIP, name,
                    detail=f"speculative compile took {fn_elapsed:.4f}s "
                    f"(budget {budget.per_function:.4f}s); discarded",
                    signature=obj.signature,
                )
                continue
            report.append(name)
        report.elapsed = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, invocation) -> list[MxArray]:
        """Serve one invocation: an inline-cache hit runs at once; a miss
        goes to the policy bound at construction (locate, then JIT-compile
        or interpret).

        Every compiled execution is *guarded*: an unexpected (non-MATLAB)
        exception deoptimizes — the failing version is quarantined and the
        invocation transparently re-executes through the interpreter.
        MATLAB-level errors (``error(...)``, subscript violations) are the
        program's own behaviour and propagate unchanged.
        """
        args = invocation.args
        for facts, obj in self._ic.get(invocation.name, ()):
            if _guard_holds(facts, args):
                return self._serve(invocation, obj)
        return self._on_miss(invocation)

    def attach_tiering(self, controller) -> None:
        """Serve through an adaptive tier controller from now on: a miss
        never compiles on the hot path — the call is interpreted *now*
        (responsiveness) and the controller promotes the function once it
        proves hot — and every served call is observed."""
        self.tiering = controller
        self._on_miss = self._miss_interpret
        self._serve = self._serve_observed

    def _miss_compile(self, invocation) -> list[MxArray]:
        """Static miss policy: locate, else JIT-compile, else interpret."""
        name = invocation.name
        if not self.knows(name):
            raise RepositoryError(f"unknown function '{name}'")
        if name in self._uncompilable:
            return self._interpret(invocation)
        obj = self.locate(invocation)
        if obj is None:
            if name in self._budget_flagged:
                # Over-budget function with no usable version: stay in the
                # interpreter rather than stall this call on a compile
                # known to be pathological.
                self.stats.budget_skips += 1
                self.diagnostics.record(
                    BUDGET_SKIP, name,
                    detail="jit skipped: function over compile budget",
                )
                return self._interpret(invocation)
            try:
                obj = self.jit_compile(name, invocation.signature)
            except Exception as exc:  # noqa: BLE001 - compiler crash
                # Interpret now.  An expected rejection (MatlabError: an
                # unsupported construct) blacklists the function; a crash
                # counts a strike (a deterministic crasher gets
                # quarantined, a transient fault is retried later).
                self._record_compile_failure(
                    name, "jit", exc, invocation.signature
                )
                if isinstance(exc, MatlabError):
                    self._uncompilable.add(name)
                else:
                    self._note_strike(name)
                return self._interpret(invocation)
        self._ic_fill(invocation, obj)
        return self._guarded_invoke(invocation, obj)

    def _miss_interpret(self, invocation) -> list[MxArray]:
        """Adaptive miss policy: locate, else interpret."""
        name = invocation.name
        if not self.knows(name):
            raise RepositoryError(f"unknown function '{name}'")
        controller = self.tiering
        obj = None
        if not controller.suppressed(name):
            # First dispatch restores any persisted profile inline, so a
            # warm session's first call already runs at its learned tier
            # (the restore compiles are disk-cache hits).
            controller.prepare(name)
            if name not in self._uncompilable:
                obj = self.locate(invocation)
                if obj is not None:
                    self._ic_fill(invocation, obj)
        return self._serve_observed(invocation, obj)

    def _serve_observed(self, invocation, obj) -> list[MxArray]:
        """Serve (``obj`` None interprets) and report tier plus wall time,
        the controller's entire input signal.  A demoted (suppressed)
        function is interpreted even on an inline-cache hit."""
        controller = self.tiering
        if obj is not None and controller.suppressed(invocation.name):
            obj = None
        deopts_before = self.stats.deopts
        start = time.perf_counter()
        if obj is not None:
            tier = obj.mode
            results = self._guarded_invoke(invocation, obj)
            if self.stats.deopts != deopts_before:
                # The compiled run failed mid-call and the interpreter
                # served the answer; attribute the observation honestly.
                tier = TIER_INTERPRETER
        else:
            tier = TIER_INTERPRETER
            results = self._interpret(invocation)
        controller.observe(invocation, tier, time.perf_counter() - start)
        return results

    def _ic_fill(self, invocation, obj: CompiledObject) -> None:
        """Cache ``obj`` for calls shaped like this one (most recent first,
        at most :data:`INLINE_CACHE_ENTRIES` per function)."""
        name = invocation.name
        entry = (_guard_facts(invocation.args, obj.signature), obj)
        with self._lock:
            # A version dropped since it was located must not be cached.
            if any(v is obj for v in self._objects.get(name, ())):
                entries = self._ic.get(name, ())
                self._ic[name] = (entry,) + entries[: INLINE_CACHE_ENTRIES - 1]

    # ------------------------------------------------------------------
    # Guarded deoptimization
    # ------------------------------------------------------------------
    def _guarded_invoke(self, invocation, obj: CompiledObject) -> list[MxArray]:
        """Run one compiled object with the deopt safety net armed."""
        tier = obj.mode
        if tier == "spec":
            self.stats.calls_spec += 1
        else:
            self.stats.calls_jit += 1
        self.obs.record_call(tier)
        rng_state = GLOBAL_RANDOM.snapshot()
        sink_mark = self.sink.mark()
        tracer = self.obs.tracer
        try:
            if not tracer.enabled:
                return self._run(invocation, obj)
            with tracer.span(invocation.name, "execution", tier=tier):
                return self._run(invocation, obj)
        except MatlabError:
            raise
        except Exception as exc:  # noqa: BLE001 - this is the safety net
            return self._deoptimize(invocation, obj, exc, rng_state, sink_mark)

    def _select_run_step(self) -> None:
        """Choose once how compiled versions run: plainly, under the
        watchdog, with in-process hang/oom chaos probes inside it (unless
        the sandbox policy checks those sites in a child), and, while a
        sandbox is up, as a sandbox trial until the version is promoted."""
        plan = self.fault_plan
        if (
            plan is not None
            and not self.resilience.sandbox
            and any(spec.site in _RUN_PROBES for spec in plan.specs)
        ):
            step = partial(self._run_supervised, probes=_RUN_PROBES)
        elif self.guard.run_deadline is not None:
            step = self._run_supervised
        else:
            step = self._run_plain
        if self.sandbox is not None:
            step = partial(self._run_sandboxed, step)
        self._run = step

    def disarm_supervision(self) -> None:
        """Drop watchdog deadlines and the sandbox (session close)."""
        self.guard.compile_deadline = None
        self.guard.run_deadline = None
        self.sandbox = None
        self._select_run_step()

    def _run_plain(self, invocation, obj: CompiledObject):
        return obj.invoke(invocation.args, invocation.nargout, self._rt)

    def _run_supervised(self, invocation, obj: CompiledObject, probes=()):
        """One compiled run under the watchdog deadline.

        The chaos probes live *inside* the guard: an injected hang must be
        cancelled by the watchdog exactly like a miscompiled infinite
        loop.  A fired :class:`~repro.resilience.DeadlineExceeded` lands
        in the caller's ``except Exception`` net and deoptimizes.
        """
        name = invocation.name
        with self.guard.run_guard(name):
            for site in probes:
                self.fault_plan.check(site, name)
            return obj.invoke(invocation.args, invocation.nargout, self._rt)

    def _run_sandboxed(self, promoted_step, invocation, obj: CompiledObject):
        """First run of a fresh compile, supervised in a forked child;
        promoted versions run through ``promoted_step``.

        Success applies the child's side effects (transcript, RNG
        advance) and promotes the object in-process; a sandbox death
        raises :class:`SandboxFailure` into the deopt net — the session
        never sees the crash.
        """
        if getattr(obj, "sandbox_promoted", False):
            return promoted_step(invocation, obj)
        name = invocation.name
        with self._lock:
            functions = dict(self._functions)
        with self.obs.tracer.span("sandbox_trial", "execution", function=name):
            verdict = self.sandbox.trial(
                obj, functions, invocation.args, invocation.nargout,
                GLOBAL_RANDOM.snapshot(),
            )
        if not verdict.ok:
            self.diagnostics.record(
                SANDBOX_FAILURE, name,
                detail=verdict.reason,
                signature=obj.signature,
            )
            raise SandboxFailure(verdict.reason)
        obj.sandbox_promoted = True
        self.diagnostics.record(
            SANDBOX_TRIAL, name,
            detail=verdict.reason
            or "first run succeeded in the sandbox; promoted in-process",
            signature=obj.signature,
        )
        if not verdict.executed:
            # No fork on this platform: promoted untried, run here.
            return promoted_step(invocation, obj)
        if verdict.rng_state is not None:
            GLOBAL_RANDOM.restore(verdict.rng_state)
        if verdict.sink_text:
            self.sink.write(verdict.sink_text)
        if verdict.matlab_error is not None:
            # The program's own error, replayed with its transcript.
            raise verdict.matlab_error
        return verdict.outputs

    def _deoptimize(
        self, invocation, obj: CompiledObject, exc, rng_state, sink_mark
    ) -> list[MxArray]:
        """Quarantine a failing compiled version and re-execute through
        the interpreter, rolling back observable side effects of the
        half-run compiled call first."""
        name = invocation.name
        self.stats.deopts += 1
        # Quarantine the version everywhere — memory *and* disk, so a
        # cached crasher can never resurrect in a later session.
        self._drop_version(name, obj)
        self._evict_cached(name, obj)
        self.diagnostics.record(
            DEOPT, name,
            detail=f"quarantined {obj.mode} version; re-executing "
            "through the interpreter",
            cause=exc,
            signature=obj.signature,
        )
        self._note_strike(name)
        GLOBAL_RANDOM.restore(rng_state)
        self.sink.truncate(sink_mark)
        return self._interpret(invocation)

    def _note_strike(self, name: str) -> None:
        with self._lock:
            strikes = self._strikes.get(name, 0) + 1
            self._strikes[name] = strikes
            quarantine = (
                strikes >= self.max_strikes and name not in self._uncompilable
            )
            dropped = ()
            if quarantine:
                self._uncompilable.add(name)
                dropped = tuple(self._objects.get(name, ()))
                self._set_versions(name, ())
                self.stats.quarantines += 1
        if quarantine:
            for obj in dropped:
                self._evict_cached(name, obj)
            self.diagnostics.record(
                QUARANTINE, name,
                detail=f"demoted to interpreter-only after {strikes} "
                "failed compiled executions",
            )

    def _drop_version(self, name: str, obj: CompiledObject) -> None:
        """Drop one stored version from memory (a budget discard keeps any
        persisted copy: it is not a failure, and cheap to reload)."""
        with self._lock:
            self._set_versions(
                name, [v for v in self._objects.get(name, ()) if v is not obj]
            )

    def _evict_cached(self, name: str, obj: CompiledObject) -> None:
        key = getattr(obj, "cache_key", None)
        if self.cache is None or key is None:
            return
        if self.cache.evict(key):
            self.diagnostics.record(
                CACHE_EVICT, name,
                detail=f"removed cache entry {key[:12]} (version quarantined)",
                signature=obj.signature,
            )

    def _record_compile_failure(
        self, name: str, mode: str, exc, signature=""
    ) -> None:
        self.stats.compile_failures += 1
        self.diagnostics.record(
            COMPILE_FAILURE, name,
            detail=f"{mode} compile failed",
            cause=exc,
            signature=signature,
        )

    def _range_only_miss(self, name: str, signature: Signature) -> bool:
        """True when an existing version matches this signature in every
        component except the value ranges."""
        for version in self.versions_of(name):
            if len(version.signature) != len(signature):
                continue
            if version.signature == signature:
                continue  # identical: the recompile replaces it instead
            if all(
                a.intrinsic is b.intrinsic
                and a.minshape == b.minshape
                and a.maxshape == b.maxshape
                for a, b in zip(signature.types, version.signature.types)
            ):
                return True
        return False

    def _has_dynamic_calls(self, fn: ast.FunctionDef) -> bool:
        with self._lock:
            known = set(self._functions)
        return bool(_called_names(fn) & known)

    def _find_version(self, name: str, signature: Signature):
        for version in self.versions_of(name):
            if version.signature == signature:
                return version
        return None

    def _interpret(self, invocation) -> list[MxArray]:
        self.stats.fallback_interpreted += 1
        self.stats.calls_interpreted += 1
        self.obs.record_call(TIER_INTERPRETER)
        fn = self._functions[invocation.name]
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._interpreter.call_function(
                fn, invocation.args, invocation.nargout
            )
        with tracer.span(invocation.name, "execution", tier=TIER_INTERPRETER):
            return self._interpreter.call_function(
                fn, invocation.args, invocation.nargout
            )

    def _call_user(self, name: str, args: list[MxArray], nargout: int):
        """Re-entry point for compiled code calling user functions."""
        return tuple(
            self.execute(Invocation(name=name, args=args, nargout=nargout))
        )

    def dispatch(self, name, args, nargout):
        """Route a user-function call made by an interpreter (the session
        front end's, or the fallback one, so a single uncompilable
        function doesn't drag its callees down); None for other names."""
        if not self.knows(name):
            return None
        return self.execute(Invocation(name=name, args=args, nargout=nargout))


def _guard_facts(args, signature: Signature) -> tuple:
    """The guard of one inline-cache entry: per argument, the observed
    class and shape, plus the formal range bounds where that range is not
    top.  (The locator never accepts a value without a real range, such
    as a complex one, for a bounded formal: ``type_of_value`` gives it
    top.)"""
    return tuple(
        (value.klass, value.rows, value.cols,
         None if formal.range.is_top else (formal.range.lo, formal.range.hi))
        for value, formal in zip(args, signature.types)
    )


def _guard_holds(facts, args) -> bool:
    """True when every argument matches its guard: exact class and shape,
    and, under bounds, the value range ``type_of_value`` would derive
    (NaN anywhere makes it top, which no bounded formal accepts: the
    comparisons below are false on NaN)."""
    if len(args) != len(facts):
        return False
    for value, (klass, rows, cols, bounds) in zip(args, facts):
        if value.klass is not klass or value.rows != rows or value.cols != cols:
            return False
        if bounds is not None:
            if rows == 1 and cols == 1:
                lo = hi = float(value.data[0, 0].real)
            else:
                real = value.view().real
                lo, hi = float(real.min()), float(real.max())
            if not (bounds[0] <= lo and hi <= bounds[1]):
                return False
    return True


def _called_names(fn: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for stmt in ast.walk_stmts(fn.body):
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.Apply):
                    names.add(node.name)
    return names

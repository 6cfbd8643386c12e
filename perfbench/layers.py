"""Per-layer attribution, measured from outside the package.

Traced runs wrap the public entry points of each ``repro`` layer with a
timer, patched wherever a caller binds the name, and charge each call's
*self* time (its duration minus that of wrapped calls nested inside it)
to the layer.  Times are CPU time of the process (``workloads.clock``),
which ``run.py`` scales to the reference speed.  Self times therefore add
up: the layers plus ``unattributed_ms`` equal the traced window.  Nothing
in ``src/`` knows about this module, and untraced runs never import it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: (module, attribute-path, layer).  A dotted path patches a class
#: attribute; a bare name is patched in every ``repro`` module that binds
#: the same object.  Several entries may share one layer.
TARGETS = (
    ("repro.frontend.parser", "parse", "frontend.parse"),
    ("repro.analysis.disambiguate", "Disambiguator.run_function", "analysis.disambiguate"),
    ("repro.inference.engine", "TypeInferenceEngine.infer", "inference.infer"),
    ("repro.codegen.jitgen", "JitCompiler.compile", "codegen.jit"),
    ("repro.codegen.srcgen", "SourceCompiler.compile", "codegen.spec"),
    ("repro.codegen.inline", "Inliner.run", "codegen.inline"),
    ("repro.codegen.jitgen", "CompiledObject.invoke", "codegen.body"),
    ("repro.kernels.cache", "KernelCache.get_or_compile", "kernels.compile"),
    ("repro.kernels.cache", "KernelCache.register_source", "kernels.compile"),
    ("repro.runtime.values", "from_python", "runtime.box"),
    ("repro.runtime.values", "to_python", "runtime.unbox"),
    ("repro.codegen.runtime_support", "box", "runtime.box"),
    ("repro.codegen.runtime_support", "unbox", "runtime.unbox"),
    ("repro.core.majic", "MajicSession.call_boxed", "repository.dispatch"),
    ("repro.repository.repo", "CodeRepository.execute", "repository.dispatch"),
    ("repro.repository.repo", "CodeRepository.locate", "repository.locate"),
    ("repro.repository.cache", "RepositoryCache.get", "repository.cache_get"),
    ("repro.interp.interpreter", "Interpreter.call_function", "interp.call"),
    ("repro.core.majic", "MajicSession.__init__", "core.session"),
)


class LayerClock:
    """Self-time accounting over a stack of wrapped calls (one thread)."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()   # ratio numerators
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed into ``layer``; ``after(frame, args, result)``, if
        given, runs once the call has returned."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.process_time

        def timed(*args, **kwargs):
            frame = [0.0, layer, False]     # child seconds, layer, saw locate
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(frame, args, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", layer)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    # ------------------------------------------------------------------
    def _after_execute(self, frame, args, result):
        self.counts["repository.execute"] += 1
        if not frame[2]:
            self.counts["repository.skipped_locate"] += 1

    def _after_locate(self, frame, args, result):
        if self._stack:
            self._stack[-1][2] = True

    def _after_cache_get(self, frame, args, result):
        if result is not None:
            self.counts["repository.cache_hits"] += 1

    def _kernel_lookup(self, fn):
        """``get_or_compile`` counting hits as lookups that compiled nothing."""
        def counted(cache, *args, **kwargs):
            self.counts["kernels.lookups"] += 1
            misses = cache.misses
            result = fn(cache, *args, **kwargs)
            if cache.misses == misses:
                self.counts["kernels.hits"] += 1
            return result
        return counted

    def _kernel_factory(self, compile_kernel):
        """``compile_kernel`` whose returned kernels are timed."""
        wrap = self.wrap

        def compile_timed(name, source):
            return wrap("kernels.run", compile_kernel(name, source))
        return compile_timed

    # ------------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target.  Call before any session or kernel exists."""
        import repro  # noqa: F401 - loads the package
        from repro.codegen import runtime_support
        from repro.kernels import cache as kernel_cache

        after = {
            "CodeRepository.execute": self._after_execute,
            "CodeRepository.locate": self._after_locate,
            "RepositoryCache.get": self._after_cache_get,
        }
        for module_name, path, layer in TARGETS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                fn = owner.__dict__[attr]
                if path == "KernelCache.get_or_compile":
                    fn = self._kernel_lookup(fn)
                self._set(owner, attr, self.wrap(layer, fn, after.get(path)))
                continue
            original = getattr(module, path)
            timed = self.wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and mod is not None:
                    if mod.__dict__.get(path) is original:
                        self._set(mod, path, timed)
            if module is runtime_support:
                # Generated code reaches box/unbox through ``rt.<name>``.
                self._set(runtime_support.RuntimeSupport, path,
                          staticmethod(timed))
        self._set(kernel_cache, "compile_kernel",
                  self._kernel_factory(kernel_cache.compile_kernel))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        return dict(self.self_s), Counter(self.calls), Counter(self.counts)

    def metrics(self, window_s: float, since: tuple | None = None,
                until: tuple | None = None) -> dict:
        """Self times (ms), call counts and ratios with their bases, for
        what happened between two snapshots (default: start and now)."""
        self_s, calls, counts = until or self.snapshot()
        if since is not None:
            self_s = {k: v - since[0].get(k, 0.0) for k, v in self_s.items()}
            calls, counts = calls - since[1], counts - since[2]
        ms = {layer: 1e3 * s for layer, s in self_s.items()}

        def ratio(part, whole):
            return part / whole if whole else 0.0

        lookups = counts["kernels.lookups"]
        return {
            "frontend.parse_ms": ms.get("frontend.parse", 0.0),
            "frontend.parse_calls": calls["frontend.parse"],
            "analysis.disambiguate_ms": ms.get("analysis.disambiguate", 0.0),
            "analysis.disambiguate_calls": calls["analysis.disambiguate"],
            "inference.infer_ms": ms.get("inference.infer", 0.0),
            "inference.calls": calls["inference.infer"],
            "codegen.jit_ms": ms.get("codegen.jit", 0.0),
            "codegen.jit_compiles": calls["codegen.jit"],
            "codegen.spec_ms": ms.get("codegen.spec", 0.0),
            "codegen.spec_compiles": calls["codegen.spec"],
            "codegen.inline_ms": ms.get("codegen.inline", 0.0),
            "codegen.body_ms": ms.get("codegen.body", 0.0),
            "codegen.body_calls": calls["codegen.body"],
            "kernels.compile_ms": ms.get("kernels.compile", 0.0),
            "kernels.lookups": lookups,
            "kernels.hit_ratio": ratio(counts["kernels.hits"], lookups),
            "kernels.run_ms": ms.get("kernels.run", 0.0),
            "kernels.run_calls": calls["kernels.run"],
            "runtime.box_ms": ms.get("runtime.box", 0.0),
            "runtime.box_calls": calls["runtime.box"],
            "runtime.unbox_ms": ms.get("runtime.unbox", 0.0),
            "runtime.unbox_calls": calls["runtime.unbox"],
            "repository.dispatch_ms": ms.get("repository.dispatch", 0.0),
            "repository.execute_calls": counts["repository.execute"],
            "repository.locate_ms": ms.get("repository.locate", 0.0),
            "repository.locate_calls": calls["repository.locate"],
            "repository.fast_path_ratio": ratio(
                counts["repository.skipped_locate"],
                counts["repository.execute"],
            ),
            "repository.cache_get_ms": ms.get("repository.cache_get", 0.0),
            "repository.cache_gets": calls["repository.cache_get"],
            "repository.cache_hit_ratio": ratio(
                counts["repository.cache_hits"], calls["repository.cache_get"]
            ),
            "interp.call_ms": ms.get("interp.call", 0.0),
            "interp.calls": calls["interp.call"],
            "core.session_ms": ms.get("core.session", 0.0),
            "core.sessions": calls["core.session"],
            "window_ms": 1e3 * window_s,
            "unattributed_ms": 1e3 * window_s - sum(ms.values()),
        }

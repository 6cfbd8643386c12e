"""The four workloads.

Each workload has a set-up (repeated ``SETUP_REPS`` times; ``setup_s`` is
the median), a timed phase of rounds that runs for ``--seconds`` (or for a
fixed number of rounds in traced runs and their untraced twins), and the
measurements after it.  Every call's outputs are compared with the
interpreter reference off the clock, after each round.

Every workload reports every end-to-end metric; NOTES.md says what each
one means on each workload and which workload each is meant for.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from math import exp, log
from pathlib import Path

from repro import MajicSession
from repro.kernels import KERNEL_CACHE
from repro.runtime.builtins import GLOBAL_RANDOM
from repro.runtime.values import from_python

import numpy as np

import check
from programs import program_calls
from stream import SOURCE, build_stream

SETUP_REPS = 3
#: Below this many calls, p50/p99 are taken over per-program medians (a
#: p99 needs at least 10 samples beyond it).
MIN_PERCENTILE_SAMPLES = 1000
#: steady_run: programs given a fresh-session first call and a
#: ``speculate_all`` after each timed round, in rotation.
STEADY_SIDE_PROGRAMS_PER_ROUND = 4
#: call_stream: fresh sessions given first calls and ``speculate_all``
#: between passes (they are short, so several keep their medians steady).
STREAM_SIDE_SESSIONS_PER_PASS = 3
#: call_stream: stream operations between two calibrations (about 30 ms).
STREAM_OPS_PER_CALIBRATION = 400
#: Rounds of the timed phase in traced runs (fixed work, so traced and
#: untraced windows can be compared).
TRACE_ROUNDS = {"cold_start": 3, "warm_start": 6, "steady_run": 3, "call_stream": 8}
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
#: Durations are CPU time of this process: on a shared host, wall time
#: mostly measures the other tenants (time slices and hypervisor steal),
#: CPU time does not.  The default session runs one thread and waits on
#: nothing, so on an idle machine the two agree; the record keeps the timed
#: phase's wall time beside its CPU time.  Only the length of a run is set
#: by the wall clock.
clock = time.process_time
wall = time.perf_counter
#: The host's speed per instruction still changes, by 2x and more within
#: seconds to minutes (other tenants on the same cores change its clock and
#: caches).  So ``calibration_work`` is timed between operations, and each
#: duration between two calibrations is reported scaled, by the mean of the
#: two, to a processor on which the calibration takes this long (close to
#: this host's usual speed).  NOTES.md gives the measurements behind this.
REFERENCE_CALIBRATION_S = 0.001
CALIBRATION_REPS = 5


_CALIBRATION_BLOB = pickle.dumps({
    "rows": [list(range(20)), ("x", 1.5, None)] * 20,
    "names": {str(i): i for i in range(50)},
})


def calibration_work(loads: int = 45, steps: int = 100) -> float:
    """Fixed work in two halves: unpickling a small nested structure (which
    allocates and links many small objects), then a tight interpreter loop
    over tuples, f-strings, a dict and small NumPy dots.  As the host's
    speed changes, the workloads slow a little more than the first half
    and less than the second (NOTES.md).  It never touches ``repro``, so a
    change to the program cannot move it."""
    for _ in range(loads):
        pickle.loads(_CALIBRATION_BLOB)
    vector = np.linspace(0.0, 1.0, 16)
    seen: dict = {}
    total = 0.0
    for i in range(steps):
        tree = ("+", [("x", i % 7), ("y", i % 3)], {"line": i})
        text = ";".join(f"{op}{arg}" for op, arg in tree[1])
        seen[text] = seen.get(text, 0) + tree[2]["line"]
        total += float(np.dot(vector, vector * (i % 5)))
    return total + len(seen)


def geomean(values) -> float:
    values = list(values)
    return exp(sum(log(v) for v in values) / len(values))


def held_code(sessions) -> tuple[int, float]:
    """Compiled versions the sessions hold, and KiB of their source."""
    count = size = 0
    for session in sessions:
        repo = session.repository
        for name in repo.function_names():
            versions = repo.versions_of(name)
            count += len(versions)
            size += sum(len(v.source) for v in versions)
    return count, size / 1024.0


@dataclass
class Run:
    """State shared by one workload run."""

    seed: int
    seconds: float
    rounds: int | None
    refs: object
    checker: check.Checker = field(default_factory=check.Checker)
    pending: list = field(default_factory=list)       # (label, outputs, ref)
    first: dict = field(default_factory=dict)         # name -> [ms]
    run: dict = field(default_factory=dict)           # name -> [ms]
    speculate: dict = field(default_factory=dict)     # name -> [ms]
    calls: int = 0                                    # calls in the timed phase
    setup_s: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)   # calls/s of each round
    extra: dict = field(default_factory=dict)
    deopts: int = 0
    first_s: float = 0.0        # first-call seconds of the timed phase
    compile_s: float = 0.0      # of which the repository spent compiling
    layers: object = None       # the LayerClock of a traced run
    round_compiles: int = 0     # JIT compiles inside timed rounds (traced)
    setup_mark: tuple = ()      # (clock, calibrating_s, layer snapshot) after set-up
    calibration_s: list = field(default_factory=list)
    unscaled: list = field(default_factory=list)      # (target list, raw value)
    spans: list = field(default_factory=list)         # open spans' segments
    mark: float = 0.0           # clock at the end of the last calibration
    calibrating_s: float = 0.0  # CPU seconds spent calibrating

    def calibrate(self) -> None:
        """Time ``calibration_work`` (median of a few, collector off), then
        scale the values taken since the previous calibration by the mean
        of the two and file them.  Workloads call this between operations
        (after each program, or every few hundred tiny calls), off every
        clock."""
        now = clock()
        for span in self.spans:
            self.unscaled.append((span, now - self.mark))
        gc.disable()
        try:
            samples = []
            for _ in range(CALIBRATION_REPS):
                start = clock()
                calibration_work()
                samples.append(clock() - start)
        finally:
            gc.enable()
        self.calibration_s.append(statistics.median(samples))
        scale = REFERENCE_CALIBRATION_S / statistics.fmean(self.calibration_s[-2:])
        for target, value in self.unscaled:
            target.append(value * scale)
        self.unscaled.clear()
        self.mark = clock()
        self.calibrating_s += self.mark - now

    def span(self, work):
        """Run ``work()``; returns its scaled seconds (calibrations inside
        it excluded) and its result."""
        self.calibrate()
        segments: list = []
        self.spans.append(segments)
        result = work()
        self.calibrate()
        self.spans.pop()
        return sum(segments), result

    def drop_samples(self) -> None:
        """Forget the samples taken so far (an untimed warm-up's)."""
        for table in (self.first, self.run, self.speculate):
            table.clear()
        self.calls = self.deopts = 0
        self.first_s = self.compile_s = 0.0

    def add(self, table: dict, name: str, seconds: float) -> None:
        """A sample in reference ms, filed at the next calibration; a NaN
        marks a call that raised (not a sample)."""
        if seconds == seconds:
            self.unscaled.append((table.setdefault(name, array("d")), 1e3 * seconds))

    def call(self, session, name: str, args, ref, label: str,
             rng_seed: int | None = None) -> float:
        """One timed call; returns its latency in seconds (NaN if it raised)."""
        if rng_seed is not None:
            GLOBAL_RANDOM.seed(rng_seed)
        start = clock()
        try:
            outputs = session.call_boxed(name, args)
        except Exception as exc:  # noqa: BLE001 - counted, never hidden
            self.checker.count_error(label, exc)
            return float("nan")
        elapsed = clock() - start
        self.pending.append((label, outputs, ref))
        return elapsed

    def timed(self, one_round, between=None) -> None:
        """The timed phase: rounds until ``seconds`` of wall time pass (or
        ``rounds``).

        Each round's outputs are checked between rounds, off the clock, so
        memory stays bounded by one round whatever the throughput.
        ``between`` runs after each round, also off the round clock: side
        measurements taken there sample the same stretch of machine time
        as the rounds."""
        gc.collect()
        start, wall_start = clock(), wall()
        done = 0
        while True:
            calls = self.calls
            compiles = self.layers.calls["codegen.jit"] if self.layers else 0
            seconds, _ = self.span(lambda: one_round(done))
            self.round_rates.append((self.calls - calls) / seconds)
            if self.layers is not None:
                self.round_compiles += self.layers.calls["codegen.jit"] - compiles
            done += 1
            if between is not None:
                between(done)
                self.calibrate()
            self.verify()
            if self.rounds is not None:
                if done >= self.rounds:
                    break
            elif wall() - wall_start >= self.seconds:
                break
        self.extra["rounds"] = done
        self.extra["timed_cpu_s"] = clock() - start
        self.extra["timed_wall_s"] = wall() - wall_start

    def setup(self, build):
        """Run ``build`` ``SETUP_REPS`` times; keep the last state."""
        state = None
        for rep in range(SETUP_REPS):
            if state is not None:
                discard(state)
            gc.collect()
            seconds, state = self.span(lambda: build(rep))
            self.setup_s.append(seconds)
        snapshot = self.layers.snapshot() if self.layers is not None else None
        self.setup_mark = (clock(), self.calibrating_s, snapshot)
        return state

    def verify(self) -> None:
        for label, outputs, ref in self.pending:
            self.checker.check(label, outputs, ref)
        self.pending.clear()

    def metrics(self, sessions, calls: dict) -> dict:
        """The end-to-end metrics; ``calls`` is the table (name -> ms samples)
        of the workload's own calls, which the percentiles describe."""
        def ms_geomean(table):
            return geomean(statistics.median(v) for v in table.values())

        # Read before the samples are copied below; they are kept in
        # ``array``s, so the harness adds little that grows with the rounds.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = [x for v in calls.values() for x in v]
        self.extra["latency_samples"] = len(lat)
        if len(lat) < MIN_PERCENTILE_SAMPLES:
            # Too few calls for a p99 with samples beyond it: take the
            # percentiles over each program's median call instead.
            lat = [statistics.median(v) for v in calls.values()]
        q = statistics.quantiles(lat, n=100, method="inclusive")
        self.extra["versions"], kib = held_code(sessions)
        self.extra["calibration_ms"] = [1e3 * x for x in statistics.quantiles(
            self.calibration_s, n=4, method="inclusive")]
        self.extra["per_program_ms"] = {
            metric: {name: statistics.median(v) for name, v in table.items()}
            for metric, table in (("first_call", self.first), ("run", self.run),
                                  ("speculate", self.speculate))
        }
        return {
            "setup_s": statistics.median(self.setup_s),
            "first_call_ms": ms_geomean(self.first),
            "speculate_ms": ms_geomean(self.speculate),
            "run_ms": ms_geomean(self.run),
            "calls_per_s": statistics.median(self.round_rates),
            "call_p50_us": 1e3 * q[49],
            "call_p99_us": 1e3 * q[98],
            "code_kb": kib,
            "peak_rss_mb": peak_rss_mb,
        }


def discard(state) -> None:
    if isinstance(state, Path):
        shutil.rmtree(state, ignore_errors=True)


def _session(sources, **kwargs) -> MajicSession:
    session = MajicSession(**kwargs)
    for text in sources:
        session.add_source(text)
    return session


def _boxed(call) -> list:
    return [from_python(a) for a in call.args]


def _fresh(args) -> list:
    return [a.copy() for a in args]


# ----------------------------------------------------------------------
# References (computed in a child process; see check.py)
# ----------------------------------------------------------------------
def reference_jobs(workload: str, seed: int) -> dict:
    """label -> (cache key, function computing the reference)."""
    if workload == "call_stream":
        return {"stream": (check.ref_key("stream", seed), lambda: _stream_refs(seed))}
    scale = "default" if workload == "steady_run" else "small"
    jobs = {}
    for call in program_calls(scale, seed):
        key = check.ref_key(call.name, call.sources, call.args, call.rng_seed)
        jobs[call.name] = (key, lambda call=call: _program_ref(call))
    return jobs


def _program_ref(call) -> tuple:
    interp, table = check.interpreter_for(call.sources)
    return check.interpret(interp, table, call.name, call.args, call.rng_seed)


def _stream_refs(seed: int) -> list:
    interp, table = check.interpreter_for([SOURCE])
    refs = []
    for op in build_stream(seed):
        if op.kind == "define":
            for fn in check.parse(op.source).functions:
                table[fn.name] = fn
            refs.append(None)
        else:
            refs.append(check.interpret(interp, table, op.name, op.args))
    return refs


# ----------------------------------------------------------------------
# cold_start / warm_start: first calls on fresh sessions at small scale
# ----------------------------------------------------------------------
def _first_calls(run: Run, calls, boxed, cache_dir, sessions) -> None:
    """One round: per program a fresh session's first and second call, then
    ``speculate_all`` on another fresh session and a call into its code."""
    sessions.clear()
    warm = cache_dir is not None
    kwargs = {"cache_dir": str(cache_dir)} if warm else {}
    for call in calls:
        ref = run.refs[call.name]
        KERNEL_CACHE.clear()
        session = _session(call.sources, **kwargs)
        first = run.call(session, call.name, _fresh(boxed[call.name]), ref,
                         f"{call.name} first call", call.rng_seed)
        run.add(run.first, call.name, first)
        run.first_s += first
        run.compile_s += session.stats.jit_compile_seconds
        if warm and (session.stats.jit_compiles or session.stats.cache_hits != 1):
            run.checker.fail(
                f"{call.name} warm first call",
                f"{session.stats.jit_compiles} JIT compiles and "
                f"{session.stats.cache_hits} cache hits (want 0 and 1)",
            )
        run.add(run.run, call.name, run.call(
            session, call.name, _fresh(boxed[call.name]), ref,
            f"{call.name} second call", call.rng_seed,
        ))
        run.calls += 2
        run.deopts += session.stats.deopts
        sessions.append(session)

        KERNEL_CACHE.clear()
        spec = _session(call.sources, **kwargs)
        start = clock()
        spec.speculate_all()
        run.add(run.speculate, call.name, clock() - start)
        if warm and spec.stats.speculative_compiles:
            run.checker.fail(f"{call.name} warm speculate_all",
                             "compiled instead of loading from the cache")
        run.call(spec, call.name, _fresh(boxed[call.name]), ref,
                 f"{call.name} speculated code", call.rng_seed)
        run.calls += 1
        run.deopts += spec.stats.deopts
        run.calibrate()


def cold_start(run: Run) -> dict:
    calls = program_calls("small", run.seed)
    sessions: list = []

    def build(rep):
        boxed = {call.name: _boxed(call) for call in calls}
        # One untimed round brings the process (imports, allocator) to a
        # steady state; its samples are dropped after set-up.
        _first_calls(run, calls, boxed, None, [])
        return boxed

    boxed = run.setup(build)
    run.drop_samples()
    run.timed(lambda i: _first_calls(run, calls, boxed, None, sessions))
    run.extra["compile_share"] = run.compile_s / run.first_s
    return run.metrics(sessions, run.first)


def warm_start(run: Run) -> dict:
    calls = program_calls("small", run.seed)
    sessions: list = []
    WORK_DIR.mkdir(exist_ok=True)
    boxed = {call.name: _boxed(call) for call in calls}

    def build(rep):
        # Fill a cache with exactly the calls cold_start times, plus the
        # speculative pass, each from a fresh session.
        cache_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=WORK_DIR))
        for call in calls:
            KERNEL_CACHE.clear()
            session = _session(call.sources, cache_dir=str(cache_dir))
            run.call(session, call.name, _fresh(boxed[call.name]),
                     run.refs[call.name], f"{call.name} cache fill",
                     call.rng_seed)
            _session(call.sources, cache_dir=str(cache_dir)).speculate_all()
            run.calibrate()
        return cache_dir

    cache_dir = run.setup(build)
    try:
        run.timed(lambda i: _first_calls(run, calls, boxed, cache_dir, sessions))
        metrics = run.metrics(sessions, run.first)
    finally:
        discard(cache_dir)
    return metrics


# ----------------------------------------------------------------------
# steady_run: long-lived sessions at default scale
# ----------------------------------------------------------------------
def steady_run(run: Run) -> dict:
    calls = program_calls("default", run.seed)
    boxed = {call.name: _boxed(call) for call in calls}

    def build(rep):
        sessions = {}
        for call in calls:
            session = _session(call.sources)
            first = run.call(session, call.name, _fresh(boxed[call.name]),
                             run.refs[call.name], f"{call.name} warm-up",
                             call.rng_seed)
            run.add(run.first, call.name, first)
            sessions[call.name] = session
            run.calibrate()
        return sessions

    sessions = run.setup(build)
    compiles = sum(s.stats.jit_compiles for s in sessions.values())

    def one_round(i):
        for call in calls:
            elapsed = run.call(sessions[call.name], call.name,
                               _fresh(boxed[call.name]), run.refs[call.name],
                               f"{call.name} steady call", call.rng_seed)
            run.add(run.run, call.name, elapsed)
            run.calls += 1
            run.calibrate()

    rotation = itertools.cycle(calls)
    speculated = {}

    def side_measurements(done):
        """First calls and ``speculate_all`` on fresh sessions for the next
        few programs, so these samples spread over the whole run."""
        for _ in range(STEADY_SIDE_PROGRAMS_PER_ROUND):
            call = next(rotation)
            run.add(run.first, call.name, run.call(
                _session(call.sources), call.name, _fresh(boxed[call.name]),
                run.refs[call.name], f"{call.name} first call", call.rng_seed))
            spec = _session(call.sources)
            start = clock()
            spec.speculate_all()
            run.add(run.speculate, call.name, clock() - start)
            speculated[call.name] = (call, spec)
            run.calibrate()

    run.timed(one_round, between=side_measurements)
    after = sum(s.stats.jit_compiles for s in sessions.values())
    if after != compiles:
        run.checker.fail("steady_run", f"{after - compiles} compiles in the timed phase")
    run.deopts = sum(s.stats.deopts for s in sessions.values())
    for call, spec in speculated.values():
        run.call(spec, call.name, _fresh(boxed[call.name]), run.refs[call.name],
                 f"{call.name} speculated code", call.rng_seed)
    return run.metrics(sessions.values(), run.run)


# ----------------------------------------------------------------------
# call_stream: one session, a seeded stream of tiny calls
# ----------------------------------------------------------------------
def call_stream(run: Run) -> dict:
    ops = build_stream(run.seed)
    refs = run.refs
    # Each function's hot call opens the pass, before any redefinition.
    hot = {}
    for index, op in enumerate(ops):
        if op.kind == "repeat":
            hot.setdefault(op.name, index)

    def one_pass(session, timed: bool):
        for index, op in enumerate(ops):
            if op.kind == "define":
                session.add_source(op.source)
                continue
            elapsed = run.call(session, op.name, list(op.args), refs[index],
                               f"stream op {index} ({op.kind} {op.name})")
            if timed:
                run.add(run.run, op.name, elapsed)
                run.calls += 1
            if index % STREAM_OPS_PER_CALIBRATION == STREAM_OPS_PER_CALIBRATION - 1:
                run.calibrate()

    def build(rep):
        KERNEL_CACHE.clear()
        session = _session([SOURCE])
        one_pass(session, timed=False)
        return session

    def side_measurements(done):
        """Fresh sessions' first calls, then ``speculate_all`` on other
        fresh sessions and a call into each function's speculated code.
        ``KERNEL_CACHE`` is left alone: the stream session shares it."""
        for _ in range(STREAM_SIDE_SESSIONS_PER_PASS):
            fresh = _session([SOURCE])
            for name, index in hot.items():
                run.add(run.first, name, run.call(
                    fresh, name, list(ops[index].args), refs[index],
                    f"{name} first call"))
            run.calibrate()
            spec = _session([SOURCE])
            start = clock()
            spec.speculate_all()
            run.add(run.speculate, "stream", clock() - start)
            for name, index in hot.items():
                run.call(spec, name, list(ops[index].args), refs[index],
                         f"{name} speculated code")
            run.calibrate()

    session = run.setup(build)
    run.timed(lambda i: one_pass(session, timed=True), between=side_measurements)
    run.deopts = session.stats.deopts
    return run.metrics([session], run.run)


WORKLOADS = {
    "cold_start": cold_start,
    "warm_start": warm_start,
    "steady_run": steady_run,
    "call_stream": call_stream,
}

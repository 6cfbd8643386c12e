"""The memoized inference fixpoint and the speculator's last-pass reuse.

The solver skips a block whose input equals the input of its previous run,
and the speculator skips its closing inference when the final signature is
the one its last forward pass used.  Neither may change a result: every
test here compares against the plain round-robin solver below, kept as an
oracle, over the Table 1 functions and helpers, the ``perfbench/stream.m``
functions and grammar-fuzz functions.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.disambiguate import Disambiguator
from repro.benchsuite.registry import benchmark, benchmark_names, source_of
from repro.benchsuite.workloads import workload_for
from repro.codegen.inline import Inliner
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.fuzz.grammar import generate_program
from repro.inference.annotations import Annotations
from repro.inference.engine import TypeInferenceEngine
from repro.inference.speculation import Speculator
from repro.runtime.values import from_python
from repro.typesys.signature import Signature, signature_of_values
from tests.conftest import TINY_SCALES

STREAM_M = Path(__file__).resolve().parent.parent / "perfbench" / "stream.m"
FUZZ_SEEDS = range(12)


def round_robin_solve(self, disambiguation, entry):
    """The solver before memoization: every sweep re-runs every block."""
    cfg = disambiguation.cfg
    self._dis = disambiguation
    order = cfg.reverse_postorder()
    block_in = {}
    block_out = {}
    visits = {}
    converged = True
    iterations = 0

    changed = True
    while changed:
        iterations += 1
        if iterations > self.options.max_iterations:
            converged = False
            break
        changed = False
        for block in order:
            widen = visits.get(block.index, 0) >= self.options.widen_after
            if block is cfg.entry:
                incoming = dict(entry)
            else:
                incoming = None
                for pred in block.predecessors:
                    out = block_out.get(pred.index)
                    if out is None:
                        continue
                    incoming = (
                        dict(out)
                        if incoming is None
                        else self._join_env(incoming, out)
                    )
                if incoming is None:
                    continue
            old_in = block_in.get(block.index)
            if old_in is not None and widen:
                incoming = self._widen_env(old_in, incoming)
            block_in[block.index] = incoming
            env = dict(incoming)
            for atom in block.atoms:
                self._transfer(atom, env, record=None)
            if env != block_out.get(block.index):
                block_out[block.index] = env
                visits[block.index] = visits.get(block.index, 0) + 1
                changed = True

    annotations = Annotations(converged=converged, iterations=iterations)
    if not converged:
        block_in = {b.index: self._top_env(block_in) for b in cfg.blocks}
    for block in cfg.blocks:
        env = dict(block_in.get(block.index, {}))
        for atom in block.atoms:
            self._transfer(atom, env, record=annotations)
    self._exit_env = block_in.get(cfg.exit.index, {})
    return annotations


class OracleEngine(TypeInferenceEngine):
    _solve = round_robin_solve


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _table(*sources) -> dict[str, ast.FunctionDef]:
    table = {}
    for source in sources:
        for fn in parse(source).functions:
            table[fn.name] = fn
    return table


def _prepare(table, name):
    """Inline and disambiguate ``name`` the way the repository does."""
    fn = Inliner(table.get).run(table[name])
    return fn, Disambiguator(lambda n: n in table).run_function(fn)


def _signature(args) -> Signature:
    return signature_of_values([from_python(a) for a in args])


def _cases():
    """(id, table, name, JIT argument lists) for every function."""
    for name in benchmark_names():
        spec = benchmark(name)
        table = _table(source_of(name), *(source_of(h) for h in spec.helpers))
        arg_lists = [workload_for(name), workload_for(name, TINY_SCALES[name])]
        yield name, table, name, arg_lists
        for helper in spec.helpers:
            yield f"{name}/{helper}", table, helper, []
    stream = _table(STREAM_M.read_text())
    stream_args = {
        "axpy": [[3.0, 2.5, 1.5], [2.0, [[1.0, 2.0], [3.0, 4.0]], 1.0]],
        "sumsq": [[2.5], [[[1.0, -2.0, 0.5]]]],
        "poly2": [[2.5], [[[1.0], [2.0]]]],
        "combo": [[2.5, 2.0], [[[1.0, 2.0]], 3.0]],
        "count": [[2.5, 0.5], [[[1.0, -3.0], [0.25, 2.0]], 0.5]],
    }
    for name in stream:
        yield f"stream/{name}", stream, name, stream_args[name]
    for seed in FUZZ_SEEDS:
        program = generate_program(seed)
        yield f"fuzz/{seed}", _table(program.source), program.name, [program.args]


CASES = list(_cases())
each_function = pytest.mark.parametrize(
    "table, name, arg_lists", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)


def _walk(fn: ast.FunctionDef):
    """Every expression and store target of ``fn``, in AST walk order."""
    for stmt in ast.walk_stmts(fn.body):
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.MultiAssign):
            targets = stmt.targets
        for target in targets:
            yield target
        for top in ast.stmt_exprs(stmt):
            yield from ast.walk_expr(top)


def _facts(fn: ast.FunctionDef, annotations: Annotations):
    """Everything the code generators read, keyed by walk position.
    Types compare by ``repr`` so that ranges match bit for bit (NaN
    bounds included)."""
    per_node = []
    for node in _walk(fn):
        if isinstance(node, ast.LValue):
            per_node.append(("store", annotations.safety_of_store(node)))
        else:
            per_node.append((
                repr(annotations.type_of(node)),
                annotations.safety_of_load(node),
            ))
    return {
        "nodes": per_node,
        "vars": {k: repr(v) for k, v in annotations.var_types.items()},
        "outputs": {k: repr(v) for k, v in annotations.output_types.items()},
        "converged": annotations.converged,
        "iterations": annotations.iterations,
    }


def _jit_signatures(fn, arg_lists):
    signatures = [_signature(args) for args in arg_lists]
    signatures.append(Signature.all_top(len(fn.params)))
    return signatures


# ----------------------------------------------------------------------
# The memoized solver
# ----------------------------------------------------------------------
@each_function
def test_memoized_solver_matches_round_robin(table, name, arg_lists):
    fn, dis = _prepare(table, name)
    for signature in _jit_signatures(fn, arg_lists):
        new = TypeInferenceEngine().infer(fn, signature, dis)
        old = OracleEngine().infer(fn, signature, dis)
        assert _facts(fn, new) == _facts(fn, old)


@each_function
def test_speculation_matches_round_robin(table, name, arg_lists, monkeypatch):
    fn, dis = _prepare(table, name)
    result = Speculator().speculate(fn, dis)
    # The parent pipeline: every forward pass and an unconditional closing
    # pass on the final signature, all with the round-robin solver.
    with monkeypatch.context() as patch:
        patch.setattr(TypeInferenceEngine, "_solve", round_robin_solve)
        oracle = Speculator().speculate(fn, dis)
        closing = TypeInferenceEngine().infer(fn, oracle.signature, dis)
    assert repr(result.signature) == repr(oracle.signature)
    assert result.passes == oracle.passes
    assert result.narrowed == oracle.narrowed
    assert _facts(fn, result.annotations) == _facts(fn, closing)


def _record_block_inputs(engine, dis):
    """Wrap ``engine._transfer`` to log (block, input env) per block run."""
    first_atom = {id(b.atoms[0]): b.index for b in dis.cfg.blocks if b.atoms}
    runs: list[tuple[int, dict]] = []
    transfer = engine._transfer

    def logged(atom, env, record):
        if record is None and id(atom) in first_atom:
            runs.append((first_atom[id(atom)], dict(env)))
        return transfer(atom, env, record)

    engine._transfer = logged
    return runs


@each_function
def test_no_block_runs_twice_on_an_equal_input(table, name, arg_lists):
    """The memo keeps one input per block, the previous one.  No function
    here sees a widened state swing back to an earlier input, so no
    block's atoms run twice on an equal input at all."""
    fn, dis = _prepare(table, name)
    for signature in _jit_signatures(fn, arg_lists):
        engine = TypeInferenceEngine()
        runs = _record_block_inputs(engine, dis)
        engine.infer(fn, signature, dis)
        seen: dict[int, list[dict]] = {}
        for index, env in runs:
            assert env not in seen.setdefault(index, []), f"block {index} re-ran"
            seen[index].append(env)


def test_oracle_reruns_blocks_that_the_memo_skips():
    """The memo has work to skip: the oracle re-runs unchanged blocks."""
    table = _table(source_of("dirich"))
    fn, dis = _prepare(table, "dirich")
    signature = _signature(workload_for("dirich", TINY_SCALES["dirich"]))
    counts = {}
    for cls in (OracleEngine, TypeInferenceEngine):
        engine = cls()
        runs = _record_block_inputs(engine, dis)
        engine.infer(fn, signature, dis)
        counts[cls] = len(runs)
    assert counts[TypeInferenceEngine] < counts[OracleEngine]


# ----------------------------------------------------------------------
# Speculation: the closing pass runs only when the signature moved
# ----------------------------------------------------------------------
def _count_infers(monkeypatch):
    calls = []
    infer = TypeInferenceEngine.infer

    def counted(self, fn, signature, disambiguation=None):
        calls.append(signature)
        return infer(self, fn, signature, disambiguation)

    monkeypatch.setattr(TypeInferenceEngine, "infer", counted)
    return calls


def test_closing_pass_reused_when_signature_unchanged(monkeypatch):
    calls = _count_infers(monkeypatch)
    fn = parse("function s = f(n)\ns = 0;\nfor i = 1:n, s = s + i; end\n").primary
    result = Speculator().speculate(fn)
    assert result.narrowed == {"n": True}
    assert result.signature == calls[-1]
    assert len(calls) == result.passes == 2


def test_closing_pass_runs_when_an_unhinted_parameter_becomes_scalar(monkeypatch):
    calls = _count_infers(monkeypatch)
    fn = parse("function y = f(x)\ny = x;\n").primary
    result = Speculator().speculate(fn)
    (param,) = result.signature
    assert param.is_scalar and result.narrowed == {"x": True}
    assert calls[-2] != calls[-1] == result.signature
    assert len(calls) == result.passes + 1 == 2

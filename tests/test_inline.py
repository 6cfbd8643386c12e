"""Inliner tests (Section 2.6.1's inlining rules)."""

import copy

import pytest

from repro.analysis.disambiguate import Disambiguator
from repro.benchsuite.registry import benchmark, benchmark_names, source_of
from repro.codegen.inline import Inliner, inline_function
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse


def table_of(*sources):
    table = {}
    for source in sources:
        for fn in parse(source).functions:
            table[fn.name] = fn
    return table


def calls_in(fn, name):
    return [
        node
        for stmt in ast.walk_stmts(fn.body)
        for e in ast.stmt_exprs(stmt)
        for node in ast.walk_expr(e)
        if isinstance(node, ast.Apply) and node.name == name
    ]


class TestBasicInlining:
    def test_direct_assignment_call(self):
        table = table_of(
            "function y = main(x)\ny = helper(x);\n",
            "function z = helper(a)\nz = a * 2;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "helper")

    def test_nested_expression_call_hoisted(self):
        table = table_of(
            "function y = main(x)\ny = 1 + helper(x) * 3;\n",
            "function z = helper(a)\nz = a + 1;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "helper")

    def test_locals_renamed_apart(self):
        table = table_of(
            "function y = main(x)\nt = 10;\ny = helper(x) + t;\n",
            "function z = helper(a)\nt = a * 2;\nz = t;\n",
        )
        result, _ = inline_function(table["main"], table.get)
        assigned = {
            s.target.name
            for s in ast.walk_stmts(result.body)
            if isinstance(s, ast.Assign)
        }
        # The helper's `t` must not collide with the caller's `t`.
        renamed = [n for n in assigned if n.startswith("t__il")]
        assert renamed and "t" in assigned

    def test_multi_output_callee(self):
        table = table_of(
            "function y = main(x)\n[a, b] = pair(x);\ny = a + b;\n",
            "function [p, q] = pair(v)\np = v + 1;\nq = v - 1;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1
        assert not calls_in(result, "pair")

    def test_unknown_callee_untouched(self):
        table = table_of("function y = main(x)\ny = mystery(x);\n")
        result, count = inline_function(table["main"], table.get)
        assert count == 0
        assert calls_in(result, "mystery")


class TestLimits:
    def test_recursion_depth_cap(self):
        table = table_of(
            "function f = fib(n)\nif n < 2, f = n; else "
            "f = fib(n-1) + fib(n-2); end\n"
        )
        inliner = Inliner(table.get, max_depth=3)
        result = inliner.run(table["fib"])
        # After 3 levels, dynamic fib calls must remain.
        assert calls_in(result, "fib")
        assert inliner.inlined_calls > 0

    def test_large_function_not_inlined(self):
        body = "\n".join(f"a{i} = {i};" for i in range(250))
        table = table_of(
            f"function z = big(a)\n{body}\nz = a;\n",
            "function y = main(x)\ny = big(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_shadowed_name_not_inlined(self):
        """A local assignment may shadow the function at runtime."""
        table = table_of(
            "function y = main(x)\nhelper = 3;\ny = helper(1) + x;\n",
            "function z = helper(a)\nz = a * 100;\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_mid_body_return_blocks_inlining(self):
        table = table_of(
            "function z = helper(a)\nif a > 0, z = 1; return; end\nz = 2;\n"
            "z = z + 1;\n",
            "function y = main(x)\ny = helper(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 0

    def test_trailing_return_is_fine(self):
        table = table_of(
            "function z = helper(a)\nz = a + 1;\nreturn\n",
            "function y = main(x)\ny = helper(x);\n",
        )
        result, count = inline_function(table["main"], table.get)
        assert count == 1


class TestSemantics:
    def test_inlined_result_matches_dynamic(self):
        """Differential check through the repository."""
        from repro.interp.frontend import Invocation
        from repro.repository.repo import CodeRepository
        from repro.runtime.values import from_python, to_python

        sources = [
            "function y = main(x)\ny = helper(x) + helper(x + 1);\n",
            "function z = helper(a)\nz = a * a;\n",
        ]
        with_inline = CodeRepository(inline_enabled=True)
        without = CodeRepository(inline_enabled=False)
        for source in sources:
            with_inline.add_source(source)
            without.add_source(source)
        call = Invocation(name="main", args=[from_python(3.0)], nargout=1)
        a = to_python(with_inline.execute(call)[0])
        call2 = Invocation(name="main", args=[from_python(3.0)], nargout=1)
        b = to_python(without.execute(call2)[0])
        assert a == b == 25.0

    def test_call_by_value_preserved(self):
        """The callee mutates its parameter; the caller's copy survives."""
        from repro.interp.frontend import Invocation
        from repro.repository.repo import CodeRepository
        from repro.runtime.values import from_python, to_python
        import numpy as np

        repo = CodeRepository()
        repo.add_source(
            "function z = clobber(v)\nv(1) = 99;\nz = v(1);\n"
        )
        repo.add_source(
            "function y = main(a)\nr = clobber(a);\ny = r + a(1);\n"
        )
        call = Invocation(
            name="main", args=[from_python(np.array([[1.0, 2.0]]))], nargout=1
        )
        assert to_python(repo.execute(call)[0]) == 100.0  # 99 + 1

    def test_inlined_names_recorded(self):
        table = table_of(
            "function y = main(x)\ny = helper(x);\n",
            "function z = helper(a)\nz = a;\n",
        )
        inliner = Inliner(table.get)
        inliner.run(table["main"])
        assert inliner.inlined_names == {"helper"}


# ----------------------------------------------------------------------
# The field-wise AST deep copy the inliner relies on
# ----------------------------------------------------------------------
NODE_BASES = (ast.Expr, ast.Stmt, ast.LValue, ast.FunctionDef)


def table1_tables():
    """One function table per Table 1 program (primary plus helpers)."""
    for name in benchmark_names():
        helpers = benchmark(name).helpers
        yield name, table_of(source_of(name), *(source_of(h) for h in helpers))


TABLES = dict(table1_tables())


def structure(value):
    """A node tree as nested tuples of classes, field names and leaves."""
    if isinstance(value, NODE_BASES):
        return (type(value).__name__,) + tuple(
            (key, structure(item)) for key, item in vars(value).items()
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(structure(v) for v in value)
    return value


def objects(value, found=None):
    """Every node, list and tuple object reachable from ``value``."""
    found = {} if found is None else found
    if isinstance(value, NODE_BASES):
        found[id(value)] = value
        for item in vars(value).values():
            objects(item, found)
    elif isinstance(value, (list, tuple)):
        found[id(value)] = value
        for item in value:
            objects(item, found)
    return found


def apply_kinds(fn):
    return [
        node.kind
        for stmt in ast.walk_stmts(fn.body)
        for top in ast.stmt_exprs(stmt)
        for node in ast.walk_expr(top)
        if isinstance(node, ast.Apply)
    ]


@pytest.mark.parametrize("program", sorted(TABLES))
class TestAstCopy:
    def test_copy_is_equal_and_shares_no_node(self, program):
        for fn in TABLES[program].values():
            clone = copy.deepcopy(fn)
            assert structure(clone) == structure(fn)
            shared = objects(fn).keys() & objects(clone).keys()
            assert not shared

    def test_disambiguating_the_copy_keeps_the_original(self, program):
        table = TABLES[program]
        for fn in table.values():
            before = apply_kinds(fn)
            clone = copy.deepcopy(fn)
            Disambiguator(lambda n: n in table).run_function(clone)
            assert apply_kinds(fn) == before
            if before:
                assert apply_kinds(clone) != before

    def test_inliner_output_matches_the_generic_copy(self, program, monkeypatch):
        table = TABLES[program]
        fieldwise = structure(Inliner(table.get).run(table[program]))
        for base in NODE_BASES:
            monkeypatch.delattr(base, "__deepcopy__")
        generic = structure(Inliner(table.get).run(table[program]))
        assert fieldwise == generic


def test_node_reachable_twice_is_copied_once():
    shared = ast.Ident(name="k")
    indices = [shared, ast.Number(value=1.0)]
    stmt = ast.Assign(
        target=ast.LValue(name="a", indices=indices),
        value=ast.BinaryOp(op="+", left=shared, right=shared),
    )
    fn = ast.FunctionDef(
        name="f", params=["k"], outputs=["a"], body=[stmt, stmt]
    )
    clone = copy.deepcopy(fn)
    first, second = clone.body
    assert first is second and first is not stmt
    ident = first.target.indices[0]
    assert ident is not shared and ident.name == "k"
    assert first.value.left is ident and first.value.right is ident
    assert first.target.location is stmt.location  # immutable: shared


"""The type calculator: a database of guarded transfer rules (Section 2.3.1).

Every AST operator/builtin has one or more rules.  Each rule is guarded by
a boolean precondition; when the calculator is invoked on a node, the
corresponding rules' preconditions are tested **in registration order**
until one holds, and that rule computes the result types.  Rules are
registered most-restrictive-first — the paper's rationale being that
restrictive rules yield better code, generic rules yield generic code.  If
no precondition holds, the *implicit default rule* applies: all outputs are
set to ⊤ (which the code generators translate to the fully generic
complex-matrix library path).

The calculator has a **forward** mode (expression types from argument
types, used by JIT and speculative forward passes) and a **backward** mode
(argument hints from usage sites, used by the type speculator of
Section 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.typesys.mtype import MType

Key = tuple[str, str]  # e.g. ("binop", "*"), ("builtin", "zeros")


@dataclass
class RuleContext:
    """Inputs available to one rule application."""

    args: list[MType]
    nargout: int = 1
    # Engine-level switches (Figure 7 ablations) relevant to some rules.
    range_propagation: bool = True
    min_shape_propagation: bool = True

    def arg(self, index: int) -> MType:
        return self.args[index] if index < len(self.args) else MType.top()


@dataclass(frozen=True)
class Rule:
    """One guarded transfer rule."""

    key: Key
    name: str
    precondition: Callable[[RuleContext], bool]
    apply: Callable[[RuleContext], list[MType]]
    direction: str = "forward"  # "forward" | "backward"


class TypeCalculator:
    """Rule database with ordered lookup and the implicit ⊤ default."""

    def __init__(self):
        self._forward: dict[Key, list[Rule]] = {}
        self._backward: dict[Key, list[Rule]] = {}

    # ------------------------------------------------------------------
    def add(self, rule: Rule) -> None:
        table = self._forward if rule.direction == "forward" else self._backward
        table.setdefault(rule.key, []).append(rule)

    def rule(
        self,
        key: Key,
        name: str,
        precondition: Callable[[RuleContext], bool],
        apply: Callable[[RuleContext], list[MType]],
        direction: str = "forward",
    ) -> None:
        self.add(Rule(key, name, precondition, apply, direction))

    @property
    def rule_count(self) -> int:
        return sum(len(rules) for rules in self._forward.values()) + sum(
            len(rules) for rules in self._backward.values()
        )

    def rules_for(self, key: Key, direction: str = "forward") -> list[Rule]:
        table = self._forward if direction == "forward" else self._backward
        return list(table.get(key, []))

    # ------------------------------------------------------------------
    def forward(self, key: Key, ctx: RuleContext) -> list[MType]:
        """Apply the first matching forward rule; default = all ⊤."""
        for rule in self._forward.get(key, ()):
            if rule.precondition(ctx):
                result = rule.apply(ctx)
                if len(result) < ctx.nargout:
                    result = result + [
                        MType.top() for _ in range(ctx.nargout - len(result))
                    ]
                return result
        return [MType.top() for _ in range(max(ctx.nargout, 1))]

    def backward(self, key: Key, ctx: RuleContext) -> list[MType] | None:
        """Apply the first matching backward (hint) rule, if any.

        Returns per-argument hint types (to be met into the argument
        types), or ``None`` when no hint rule matches.
        """
        for rule in self._backward.get(key, ()):
            if rule.precondition(ctx):
                return rule.apply(ctx)
        return None


_DEFAULT: TypeCalculator | None = None


def default_calculator() -> TypeCalculator:
    """The fully populated calculator (rules registered on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        calculator = TypeCalculator()
        from repro.inference import (  # deferred: rule modules import us
            rules_arith,
            rules_builtins,
            rules_indexing,
            rules_speculation,
        )

        rules_arith.register(calculator)
        rules_builtins.register(calculator)
        rules_indexing.register(calculator)
        rules_speculation.register(calculator)
        _DEFAULT = calculator
    return _DEFAULT

"""Tiny arithmetic expression evaluator for config-supplied coefficients.

Grammar: numeric literals, the names of the evaluation variables, the four
arithmetic operators, unary minus, **, and the functions exp, log, sqrt and
abs of one argument and pow, min and max of two.  Everything else, a call
with another number of arguments included, is rejected at compile time.
Compiled expressions evaluate with numpy semantics so they broadcast over
arrays.
"""

from __future__ import annotations

import ast
from typing import Callable, Mapping

import numpy as np

from .core import ConfigError

# Each function with its number of arguments: a numpy ufunc reads one more
# positional argument as out= and would write the result into a variable.
_FUNCTIONS: Mapping[str, tuple[Callable, int]] = {
    "exp": (np.exp, 1),
    "log": (np.log, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "pow": (np.power, 2),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_UNARYOPS = {ast.USub: np.negative, ast.UAdd: lambda v: v}


def compile_expression(source: str, variables: tuple):
    """Compile an expression string into a callable of the named variables.

    Raises ConfigError for syntax errors, unknown names, disallowed
    constructs, or a function given the wrong number of arguments.  The
    returned callable takes keyword arguments matching the variable names
    and broadcasts over numpy arrays.  Numeric literals are read as float64,
    so integer arithmetic can neither wrap nor fail.
    """
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {source!r}: {exc.msg}") from exc

    def build(node: ast.AST):
        """The closure env -> value of node, once node is checked against the grammar."""
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ConfigError(f"operator not allowed in {source!r}")
            op, left, right = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARYOPS:
                raise ConfigError(f"operator not allowed in {source!r}")
            op, operand = _UNARYOPS[type(node.op)], build(node.operand)
            return lambda env: op(operand(env))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ConfigError(f"function not allowed in {source!r}")
            if node.keywords:
                raise ConfigError(f"keyword arguments not allowed in {source!r}")
            fn, arity = _FUNCTIONS[node.func.id]
            if len(node.args) != arity:
                raise ConfigError(
                    f"{node.func.id} takes {arity} argument(s), got "
                    f"{len(node.args)} in {source!r}"
                )
            args = [build(a) for a in node.args]
            return lambda env: fn(*[a(env) for a in args])
        if isinstance(node, ast.Name):
            if node.id not in variables:
                raise ConfigError(
                    f"unknown name {node.id!r} in {source!r}; "
                    f"allowed: {', '.join(variables)}"
                )
            name = node.id
            return lambda env: env[name]
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric literal in {source!r}")
            value = float(node.value)
            return lambda env: value
        raise ConfigError(
            f"construct {type(node).__name__} not allowed in {source!r}"
        )

    body = build(tree.body)

    def fun(**env):
        missing = set(variables) - set(env)
        if missing:
            raise ConfigError(f"missing variables {sorted(missing)} for {source!r}")
        return body(env)

    fun.source = source
    return fun

"""Tiny arithmetic expression evaluator for config-supplied coefficients.

Grammar: numeric literals, the names of the evaluation variables, the four
arithmetic operators, unary minus, **, and the functions exp, log, sqrt,
abs, pow, min, max.  Everything else is rejected at compile time.  Compiled
expressions evaluate with numpy semantics so they broadcast over arrays.
"""

from __future__ import annotations

import ast
from typing import Callable, Mapping

import numpy as np

from .core import ConfigError

_FUNCTIONS: Mapping[str, Callable] = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
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

    Raises ConfigError for syntax errors, unknown names, or disallowed
    constructs.  The returned callable takes keyword arguments matching the
    variable names and broadcasts over numpy arrays.  Numeric literals are
    read as float64, so integer arithmetic can neither wrap nor fail.
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
            fn, args = _FUNCTIONS[node.func.id], [build(a) for a in node.args]
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

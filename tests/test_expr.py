"""Expression compiler: accepted grammar, rejected constructs, broadcasting."""

import math

import numpy as np
import pytest

from delaylab import core
from delaylab._expr import compile_expression


class TestAccepted:
    def test_arithmetic(self):
        fun = compile_expression("2 * x + x1 / 4 - 1", ("x", "x1"))
        assert fun(x=3.0, x1=8.0) == pytest.approx(7.0)

    def test_power_and_unary(self):
        fun = compile_expression("-x ** 2 + +3", ("x",))
        assert fun(x=2.0) == pytest.approx(-1.0)

    def test_functions(self):
        fun = compile_expression("exp(log(x)) + sqrt(x) + abs(-x)", ("x",))
        assert fun(x=4.0) == pytest.approx(4.0 + 2.0 + 4.0)

    def test_two_argument_functions(self):
        fun = compile_expression("max(x, 0) + min(x, 0) + pow(x, 2)", ("x",))
        assert fun(x=-3.0) == pytest.approx(0.0 - 3.0 + 9.0)

    def test_broadcasts_over_arrays(self):
        fun = compile_expression("x * x1", ("x", "x1"))
        out = fun(x=np.array([1.0, 2.0]), x1=np.array([3.0, 4.0]))
        assert np.array_equal(out, [3.0, 8.0])

    @pytest.mark.parametrize(
        "source, value",
        [("10**20", 1e20), ("2**63", 2.0**63), ("2**-1", 0.5)],
    )
    def test_integer_literals_are_floats(self, source, value):
        # Integer arithmetic would wrap past 2**63 and reject negative powers.
        assert compile_expression(source, ())() == value

    def test_scientific_literals(self):
        fun = compile_expression("1e-3 * t", ("t",))
        assert fun(t=1000.0) == pytest.approx(1.0)


class TestRejected:
    @pytest.mark.parametrize(
        "source",
        [
            "__import__('os')",
            "x.real",
            "lambda: 1",
            "[1, 2]",
            "x if x else 0",
            "x @ x",
            "x // 2",
            "x % 2",
            "open('f')",
            "'text'",
            "exp(x, key=1)",
            "unknown_name",
            "x +",
        ],
    )
    def test_disallowed_constructs(self, source):
        with pytest.raises(core.ConfigError):
            compile_expression(source, ("x", "t"))

    @pytest.mark.parametrize(
        "source",
        ["exp(x, x)", "log()", "sqrt(x, 2)", "abs(x, x)", "min(x)", "max(x, x, x)", "pow(x)"],
    )
    def test_wrong_argument_count(self, source):
        # numpy would read a second argument of exp as out= and overwrite x.
        with pytest.raises(core.ConfigError, match="argument"):
            compile_expression(source, ("x", "t"))

    def test_missing_variable_at_call_time(self):
        fun = compile_expression("x + t", ("x", "t"))
        with pytest.raises(core.ConfigError):
            fun(x=1.0)

    def test_variable_not_declared(self):
        with pytest.raises(core.ConfigError):
            compile_expression("x + y", ("x",))


class TestSemantics:
    def test_matches_math_module(self):
        fun = compile_expression("exp(-0.5 * t) * sqrt(x)", ("t", "x"))
        assert fun(t=0.3, x=2.0) == pytest.approx(math.exp(-0.15) * math.sqrt(2.0))

    def test_source_attribute_preserved(self):
        fun = compile_expression("x + 1", ("x",))
        assert fun.source == "x + 1"

"""Unit tests for expression evaluation (LIKE, IS NULL, BETWEEN, now(), ...)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine.errors import ColumnNotFound, SqlExecutionError
from repro.sqlengine.expressions import like_match
from repro.sqlengine.parser import parse


def evaluate(expression_sql: str, row=None, params=None, clock=lambda: 1000.0):
    """Helper: the compiled WHERE expression of a SELECT, run on one row."""
    statement = parse(f"SELECT * FROM t WHERE {expression_sql}")
    row = {key.lower(): value for key, value in (row or {}).items()}
    compiled = statement.where.compile(lambda name: name.lower() if name.lower() in row else None, clock)
    return compiled(row, params or {}, ())


class TestComparisons:
    def test_equality(self):
        assert evaluate("a = 1", {"a": 1}) is True
        assert evaluate("a = 1", {"a": 2}) is False

    def test_inequalities(self):
        assert evaluate("a < 5 AND a >= 1", {"a": 3})
        assert not evaluate("a > 5", {"a": 3})
        assert evaluate("a <> 4", {"a": 3})

    def test_null_comparison_is_false(self):
        assert evaluate("a = 1", {"a": None}) is False
        assert evaluate("a <> 1", {"a": None}) is False

    def test_numeric_cross_type(self):
        assert evaluate("a = 1", {"a": 1.0})

    def test_string_number_comparison_coerced(self):
        assert evaluate("a = '1'", {"a": 1})

    def test_unknown_column(self):
        with pytest.raises(ColumnNotFound):
            evaluate("missing = 1", {"a": 1})


class TestLogical:
    def test_and_or_not(self):
        assert evaluate("a = 1 OR b = 2", {"a": 0, "b": 2})
        assert not evaluate("a = 1 AND b = 2", {"a": 0, "b": 2})
        assert evaluate("NOT (a = 1)", {"a": 0})

    def test_parentheses_grouping(self):
        row = {"platform": None, "api": "JDBC"}
        assert evaluate("(platform IS NULL OR platform LIKE 'linux%') AND api = 'JDBC'", row)


class TestLike:
    def test_percent_wildcard(self):
        assert evaluate("name LIKE 'JDBC%'", {"name": "JDBC3"})
        assert not evaluate("name LIKE 'ODBC%'", {"name": "JDBC3"})

    def test_underscore_wildcard(self):
        assert evaluate("name LIKE 'JRE 1._'", {"name": "JRE 1.5"})

    def test_case_insensitive(self):
        assert evaluate("name LIKE 'jdbc'", {"name": "JDBC"})

    def test_not_like(self):
        assert evaluate("name NOT LIKE 'ODBC%'", {"name": "JDBC"})

    def test_like_null_is_false(self):
        assert evaluate("name LIKE 'x'", {"name": None}) is False

    def test_like_with_regex_metacharacters(self):
        assert evaluate("name LIKE 'a.b(c)'", {"name": "a.b(c)"})
        assert not evaluate("name LIKE 'a.b(c)'", {"name": "aXb(c)"})


class TestNullPredicates:
    def test_is_null(self):
        assert evaluate("platform IS NULL", {"platform": None})
        assert not evaluate("platform IS NULL", {"platform": "linux"})

    def test_is_not_null(self):
        assert evaluate("platform IS NOT NULL", {"platform": "linux"})


class TestBetweenAndIn:
    def test_between_inclusive(self):
        assert evaluate("a BETWEEN 1 AND 3", {"a": 1})
        assert evaluate("a BETWEEN 1 AND 3", {"a": 3})
        assert not evaluate("a BETWEEN 1 AND 3", {"a": 4})

    def test_not_between(self):
        assert evaluate("a NOT BETWEEN 1 AND 3", {"a": 4})

    def test_between_with_null_bound_is_false(self):
        assert evaluate("a BETWEEN b AND c", {"a": 2, "b": None, "c": 3}) is False

    def test_in_list(self):
        assert evaluate("a IN (1, 2, 3)", {"a": 2})
        assert not evaluate("a IN (1, 2, 3)", {"a": 5})
        assert evaluate("a NOT IN (1, 2)", {"a": 5})


class TestFunctionsAndParams:
    def test_now_uses_context_clock(self):
        assert evaluate("now() BETWEEN 900 AND 1100", {})
        assert not evaluate("now() > 2000", {})

    def test_named_parameter(self):
        assert evaluate("api_name LIKE $api", {"api_name": "JDBC"}, params={"api": "jdbc"})

    def test_missing_parameter(self):
        with pytest.raises(SqlExecutionError):
            evaluate("a = $missing", {"a": 1})

    def test_lower_upper_length(self):
        assert evaluate("lower(name) = 'jdbc'", {"name": "JDBC"})
        assert evaluate("upper(name) = 'JDBC'", {"name": "jdbc"})
        assert evaluate("length(name) = 4", {"name": "JDBC"})

    def test_unknown_function(self):
        with pytest.raises(SqlExecutionError):
            evaluate("frobnicate(a) = 1", {"a": 1})

    def test_arithmetic(self):
        assert evaluate("a + 1 = 3", {"a": 2})
        assert evaluate("a - 1 = 1", {"a": 2})


class TestLikeMatchProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcXYZ123 _%", max_size=12))
    def test_any_string_matches_universal_pattern(self, value):
        assert like_match(value, "%")

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcdef", min_size=1, max_size=10))
    def test_exact_value_matches_itself(self, value):
        assert like_match(value, value)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcdef", min_size=2, max_size=10))
    def test_prefix_pattern(self, value):
        assert like_match(value, value[:1] + "%")

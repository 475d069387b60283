"""tools/code_lines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, count", [
    pytest.param('"""Module\ndocstring."""\n\nx = 1\n', 1, id="module-docstring"),
    pytest.param('class C:\n    """Class\n    docstring."""\n', 1, id="class-docstring"),
    pytest.param('def f():\n    """Function\n    docstring."""\n    return 1\n', 2,
                 id="function-docstring"),
    pytest.param('async def f():\n    """Docstring."""\n', 1, id="async-function-docstring"),
    pytest.param("# a comment\n\n\nx = 1  # a trailing comment\n    \n", 1,
                 id="comment-and-blank-lines"),
    pytest.param("x = (1,\n     2,\n\n     3)\n", 3, id="multi-line-statement"),
    pytest.param('x = """one\ntwo"""\n', 2, id="multi-line-string"),
    pytest.param('x = 1\n"""Not a docstring."""\n', 2, id="string-statement-after-code"),
    pytest.param('def f():\n    return 1\n    "unreachable, not a docstring"\n', 3,
                 id="string-statement-in-body"),
])
def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path, source, count):
    path = tmp_path / "fixture.py"
    path.write_text(source)
    assert code_lines.code_lines(path) == count


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "two.py").write_text('"""Docstring."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["two", "2", "one", "1", "total", "3"]

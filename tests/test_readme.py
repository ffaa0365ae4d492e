"""The README's library tour runs, and each value its comments state is the
value it computes: a statement whose line ends in a comment has the str() of
its value (an expression's, or the name it assigns) at the comment's start,
alone or followed by ", " or ": " and an explanation."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_states_its_values():
    source = _tour()
    lines = source.splitlines()
    namespace: dict = {}
    exec(compile(source, "README.md", "exec"), namespace)
    statements = ast.parse(source).body
    # a trailing comment sits only on the last line of a statement, where it is checked
    commented = {i for i, line in enumerate(lines, 1) if "  # " in line and not line.lstrip().startswith("#")}
    assert commented <= {stmt.end_lineno for stmt in statements}
    stated = 0
    for stmt in statements:
        line = lines[stmt.end_lineno - 1]
        if stmt.end_lineno not in commented:
            continue
        comment = line.split("  # ", 1)[1]
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            (target,) = stmt.targets
            value = namespace[target.id]
        text = str(value)
        assert comment.startswith(text), (ast.unparse(stmt), comment, text)
        rest = comment[len(text):]
        assert rest == "" or rest.startswith((", ", ": ")), comment
        stated += 1
    assert stated == len(commented) > 0

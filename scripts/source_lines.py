#!/usr/bin/env python3
"""Print the lines and code lines of each module under src/criticalbranch, and their totals.

Lines are what ``wc -l`` counts.  Code lines are the lines that hold a token
other than a comment or a line break, less the lines of docstrings (found
with ``ast``).

    python scripts/source_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def counts(path: Path) -> tuple[int, int]:
    text = path.read_text()
    code = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type not in SKIP}
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            code -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return text.count("\n"), len(code)


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "criticalbranch").glob("*.py")):
        lines, code = counts(path)
        totals = [totals[0] + lines, totals[1] + code]
        print(f"{path.stem:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main()

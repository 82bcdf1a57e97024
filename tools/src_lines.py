"""Count the lines of the library under ``src/`` by kind.

    python tools/src_lines.py [--base REF]

Prints one row per module under ``src/`` and a total row, each with its
code, docstring, comment and blank lines.  Every line has one kind: a
line of a module, class or function docstring is docstring; else a line
that holds a token of code (a line inside a multi-line string included)
is code; else a line that holds a comment is comment; else it is blank.
The kinds of a module sum to its line count (``wc -l``).

With ``--base REF``, the modules at the git ref REF are read through
``git show`` and counted too, and the change from REF to the working tree
is printed per module.  Uses the standard library only (``ast`` and
``tokenize``).
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    docstring = _docstring_lines(source)
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        counts["docstring" if line in docstring else "code" if line in code
               else "comment" if line in comment else "blank"] += 1
    return counts


def modules(root: Path, ref: str | None = None) -> dict[str, str]:
    """The source of each ``.py`` file under ``root/src``, keyed by its path
    relative to ``src``: in the working tree, or at the git ref ``ref``."""
    if ref is None:
        src = root / "src"
        return {p.relative_to(src).as_posix(): p.read_text() for p in sorted(src.rglob("*.py"))}

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                              text=True).stdout

    names = git("ls-tree", "-r", "--name-only", ref, "--", "src").splitlines()
    return {name.removeprefix("src/"): git("show", f"{ref}:{name}")
            for name in names if name.endswith(".py")}


def table(sources: dict[str, str]) -> dict[str, dict[str, int]]:
    """``count`` of each module, and their sum under "total"."""
    rows = {name: count(source) for name, source in sources.items()}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return rows


def change(base: dict, here: dict) -> dict[str, dict[str, int]]:
    """Per row of two tables, here minus base; a module missing on one side counts 0."""
    zero = dict.fromkeys(KINDS, 0)
    names = [name for name in base if name not in here] + list(here)
    names.remove("total")
    return {name: {kind: here.get(name, zero)[kind] - base.get(name, zero)[kind] for kind in KINDS}
            for name in names + ["total"]}


def _print(title: str, rows: dict, signed: bool = False) -> None:
    number = "{:+d}" if signed else "{:d}"
    width = max(len(name) for name in rows)
    print(title)
    print(f"  {'module':<{width}}" + "".join(f"{h:>10}" for h in (*KINDS, "lines")))
    for name, row in rows.items():
        values = [row[kind] for kind in KINDS] + [sum(row.values())]
        print(f"  {name:<{width}}" + "".join(f"{number.format(v):>10}" for v in values))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REF", help="also count src/ at this git ref")
    args = parser.parse_args(argv)
    here = table(modules(ROOT))
    if args.base is None:
        _print("src/ in the working tree", here)
        return
    base = table(modules(ROOT, args.base))
    _print(f"src/ at {args.base}", base)
    _print("src/ in the working tree", here)
    _print(f"change since {args.base}", change(base, here), signed=True)


if __name__ == "__main__":
    main()

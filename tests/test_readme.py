"""The README's examples, run as written.

The ``>>>`` sessions of its ```python blocks are one doctest; the
``$ gofknots ...`` lines of its ```sh blocks each run through cli.main,
whose stdout must match the lines shown under them, where a line ``...``
stands for any run of lines.  The blocks are cut out of the Markdown
first: ``python -m doctest README.md`` would read each closing fence as
part of the expected output.
"""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from gofknots.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def shell_sessions():
    """(argv, expected stdout lines) for every ``$ gofknots`` line, its
    trailing ``# ...`` comment dropped."""
    sessions = []
    for language, body in BLOCKS:
        if language != "sh":
            continue
        for chunk in re.split(r"^\$ ", body, flags=re.MULTILINE)[1:]:
            command, *expected = chunk.rstrip("\n").split("\n")
            sessions.append((shlex.split(command, comments=True), expected))
    return sessions


SESSIONS = shell_sessions()


def test_the_library_examples_run_as_shown():
    source = "".join(body for language, body in BLOCKS if language == "python")
    test = doctest.DocTestParser().get_doctest(source, {}, "README", "README.md", 0)
    assert len(test.examples) == 10
    out = io.StringIO()
    assert doctest.DocTestRunner().run(test, out=out.write) == (0, 10), out.getvalue()


def test_every_command_line_example_is_collected():
    assert len(SESSIONS) == 12
    assert all(argv[0] == "gofknots" for argv, _ in SESSIONS)


@pytest.mark.parametrize(("argv", "expected"), SESSIONS, ids=[shlex.join(a) for a, _ in SESSIONS])
def test_the_command_line_examples_print_as_shown(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv[1:])
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n" for line in expected
    )
    assert code == 0
    assert re.fullmatch(pattern, out.getvalue()), out.getvalue()

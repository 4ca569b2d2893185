"""Splitting a line into POSIX shell words, with '#' comments.

Scenario files and event lines share these rules, which are those of
Python's standard shell-like splitter in POSIX mode with comments on; the
splitter fails where that one fails:

- tokens are separated by space, tab, CR and LF only (not by \\x0b,
  \\x0c or \\xa0);
- outside quotes, '#' ends the line, even inside a word: `a#b` is `a`;
- inside double quotes a backslash escapes only `"` and `\\`; before any
  other character it stays, so `"...\\r\\n"` keeps both escapes for the
  scenario banner decoder;
- single quotes are literal;
- outside quotes, `\\x` is `x`;
- adjacent pieces join into one token, and `""` is an empty token;
- an unclosed quote or a trailing backslash is a ValueError.
"""

from __future__ import annotations

import re

# One piece of a token per match; whitespace, the only text no alternative
# takes, separates tokens.
_PIECES = re.compile(r"""
    (?P<bare>[^ \t\r\n"'\\#]+)
  | "(?P<double>(?:[^"\\]|\\.)*)"
  | '(?P<single>[^']*)'
  | \\(?P<escaped>.)
  | \#[^\n]*
  | (?P<unclosed>["'\\])
""", re.VERBOSE | re.DOTALL)


def split_line(line: str) -> list:
    """The tokens of one line, by the rules in the module docstring."""
    tokens = []
    end = None
    for match in _PIECES.finditer(line):
        kind = match.lastgroup
        if kind is None:  # a comment
            continue
        text = match[kind]
        if kind == "unclosed":
            raise ValueError("no escaped character" if text == "\\"
                             else "no closing quotation")
        if kind == "double":
            # every quote inside is escaped, so once \" is undone only \\
            # pairs are left to halve; \ before anything else stays
            text = text.replace('\\"', '"').replace("\\\\", "\\")
        if match.start() == end:
            tokens[-1] += text
        else:
            tokens.append(text)
        end = match.end()
    return tokens

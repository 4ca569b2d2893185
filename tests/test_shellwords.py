import shlex

from hypothesis import given, settings, strategies as st

from edgemap.shellwords import split_line


def _split_or_error(split, line):
    try:
        return split(line)
    except ValueError:
        return ValueError


# quotes, escapes, comments, key=value punctuation, the separators, the
# whitespace shlex does not split on, and letters within and beyond ASCII
LINE_ALPHABET = "\"'\\#=,: \t\x0b\x0c\xa0aZ9\xe9\u00df\u4e2d"


@settings(derandomize=True, max_examples=3000)
@given(st.text(alphabet=LINE_ALPHABET, max_size=24))
def test_split_line_is_shlex(line):
    assert _split_or_error(split_line, line) == _split_or_error(
        lambda text: shlex.split(text, comments=True), line)


def test_split_line_rules():
    assert split_line('a#b "c d"') == ["a"]
    assert split_line('k="x\\r\\n\\"\\\\" \'\\q\' \\ y "" z') == [
        'k=x\\r\\n"\\', "\\q", " y", "", "z"]
    assert split_line("a\x0bb\xa0c\td") == ["a\x0bb\xa0c", "d"]

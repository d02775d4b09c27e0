"""``linecount.py`` on a small synthetic module with every kind of line."""

import textwrap

from linecount import counts, main

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import math  # a trailing comment keeps the line

    # a comment line


    class A:
        """Class docstring."""

        x = """a string that is not a docstring,
        over two lines"""

        def f(self):
            """Function docstring."""
            "a second string statement is code"
            return math.pi


    def g(): "one-line docstring beside code"
    ''')


def test_counts_synthetic_module():
    # 21 lines; code: import, class, x (two lines), def f, the string
    # statement, return, def g
    assert counts(SOURCE) == (21, 8)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "all", "code"], ["mod.py", "21", "8"],
                    ["mod.py", "21", "8"], ["total", "42", "16"]]

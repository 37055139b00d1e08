"""The README's library quickstart runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_quickstart_runs(capsys):
    with open(README) as fh:
        section = fh.read().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quickstart", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2  # the partition with its Rand index, then the fitted lambdas

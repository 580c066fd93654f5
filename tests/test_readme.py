"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_block():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(_library_block(), "README.md", "exec"), namespace)
    evaluation = namespace["evaluation"]
    assert evaluation.method == "lsm"
    assert evaluation.selected_dim in (1, 2)
    assert namespace["refined"].mu.shape == (20, 20)
    assert namespace["lsm_fit"] is not None
    assert capsys.readouterr().out.strip()

"""README.md's Python example runs from the repository root as its comments say."""

import re
import warnings
from pathlib import Path

from mooredual import Counterexample

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    monkeypatch.chdir(ROOT)
    names = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        exec(compile(example, "README.md", "exec"), names)
    # the example closes every file it opens
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    m, d, b = names["m"], names["d"], names["b"]
    assert d.n == 4
    assert b.n == 2
    assert names["equivalent"](m, b) is True
    assert names["equivalent"](m, d) == Counterexample((0, 1), "1", "0")
    assert names["minimize"](m).states == ("0", "1")
    assert capsys.readouterr().out == "('0', '1')\n"

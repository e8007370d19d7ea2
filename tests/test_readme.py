"""The README's library example runs against the package exports and prints
what the README says it prints."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code, printed = re.search(r"```python\n(.*?)```.*?```\n(.*?)```", section,
                              re.S).groups()
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == printed
    assert (tmp_path / "attack.emgd").is_file()

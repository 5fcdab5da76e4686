"""The README's library table names the package surface."""

import re
from pathlib import Path

import fsmabs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_in_a_readme_code_span():
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", text)
    missing = [
        name for name in fsmabs.__all__
        if not any(re.search(rf"\b{name}\b", span) for span in spans)
    ]
    assert missing == []

"""The README's check lists stay in step with the check table."""

import re
from pathlib import Path

from smetriclab import CHECK_FAMILIES, CHECK_NAMES

README = (Path(__file__).parent.parent / "README.md").read_text()


def _bullets(heading: str) -> list[str]:
    """The first bullet list after ``heading``, one string per bullet
    with its continuation lines joined."""
    lines = README.split(heading, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- "))
    bullets: list[str] = []
    for line in lines[start:]:
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  "):
            bullets[-1] += " " + line.strip()
        else:
            break
    return bullets


def _names(text: str) -> list[str]:
    return re.findall(r"`([a-z_0-9]+)`", text)


def test_every_check_has_an_options_entry():
    listed = [
        name
        for bullet in _bullets("Check names and their main options:")
        for name in _names(bullet.split(":", 1)[0])
    ]
    assert sorted(listed) == sorted(CHECK_NAMES)


def test_every_family_line_lists_its_checks():
    lines = {
        b.split("`")[1]: b for b in _bullets("## Command line")
        if b.startswith("`")
    }
    for family, names in CHECK_FAMILIES.items():
        listed = _names(lines[family].split(":", 1)[1])
        assert listed == list(names), family

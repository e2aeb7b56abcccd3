"""README checks: its commands parse, and its module map is complete."""

import re
import shlex
from pathlib import Path

from forgenet import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_commands() -> list[str]:
    """Every `forgenet ...` command in the README's code fences, with its
    backslash-continued lines joined."""
    fences = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
    commands = []
    for fence in fences:
        for line in fence.replace("\\\n", " ").splitlines():
            if line.startswith("forgenet "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9, commands
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {command}") from None


def test_module_map_lists_every_module():
    mapped = set(re.findall(r"^- `forgenet\.(\w+)`", README, re.M))
    modules = {
        p.stem for p in (ROOT / "src" / "forgenet").glob("*.py") if p.stem != "__init__"
    }
    assert mapped == modules

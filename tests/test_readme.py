"""README checks: its commands parse, the flags it names exist, and its
module map is complete."""

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


def subparsers() -> dict:
    parser = cli.build_parser()
    return parser._subparsers._group_actions[0].choices


def option_strings(actions) -> set[str]:
    return {flag for action in actions for flag in action.option_strings}


def test_readme_flags_exist():
    # pip's own flags appear in the install commands
    text = "\n".join(line for line in README.splitlines() if not line.startswith("pip "))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    known = option_strings(cli.build_parser()._actions)
    for sub in subparsers().values():
        known |= option_strings(sub._actions)
    assert named and named <= known, sorted(named - known)


def test_readme_lists_the_flags_ablate_shares_with_train():
    subs = subparsers()
    # `parents=[shared]` gives both subparsers the same action objects
    train = {id(action) for action in subs["train"]._actions}
    shared = [a for a in subs["ablate"]._actions if id(a) in train]
    prose = " ".join(README.split())
    sentence = re.search(r"same network and training flags as `train` \(([^)]*)\)", prose)
    assert sentence, "README lost the sentence listing the shared flags"
    listed = re.findall(r"--[a-z][a-z-]*", sentence.group(1))
    assert sorted(listed) == sorted(option_strings(shared))


def test_module_map_lists_every_module():
    mapped = set(re.findall(r"^- `forgenet\.(\w+)`", README, re.M))
    modules = {
        p.stem for p in (ROOT / "src" / "forgenet").glob("*.py") if p.stem != "__init__"
    }
    assert mapped == modules

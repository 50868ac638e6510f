"""Every ``python -m repro.…`` command the docs show still parses, and
every test they cite exists.

Commands come from fenced code blocks (continuation lines joined,
shell redirections dropped) and from one-line inline code spans that
carry arguments.  Placeholders such as ``{a,b}`` or ``…`` and bare
module mentions are skipped.  Each command's ``main(argv)`` runs only
as far as ``argparse`` accepting its arguments, so a flag deleted from
a CLI but left in a doc fails here without running a simulation.
Each CLI also runs as ``python -m`` with runpy's warnings made errors.
"""

import argparse
import importlib
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
COMMAND = re.compile(r"python3? -m (repro\.\S+)(.*)")
#: Docs whose ``test_…`` names must resolve.  ROADMAP.md and CHANGES.md
#: are history: they name deleted tests on purpose.
CITING_DOCS = ("THREATS.md", "DESIGN.md", "README.md", "EXPERIMENTS.md")
PLACEHOLDER = re.compile(r"[{}\[\]<…]")
SHELL_OPERATORS = (">", "2>", "|", "&", ";")


def _snippets(text: str):
    """Each fenced command line (continuations joined) and inline span."""
    prose = []
    fenced = False
    joined = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            prose.append(line)
        elif line.endswith("\\"):
            joined += line[:-1] + " "
        else:
            yield joined + line
            joined = ""
    for span in re.findall(r"`([^`]*)`", "\n".join(prose)):
        if "\n" not in span:
            yield span


def _commands():
    for name in DOCS:
        for snippet in _snippets((ROOT / name).read_text()):
            match = COMMAND.search(snippet)
            if match is None:
                continue
            module, rest = match.groups()
            argv = []
            for token in shlex.split(rest, comments=True):
                if token.startswith(SHELL_OPERATORS):
                    break
                argv.append(token)
            if argv and not PLACEHOLDER.search(" ".join([module, *argv])):
                cli = module.rsplit(".", 1)[1]
                doc = pathlib.Path(name).stem
                yield pytest.param(
                    module, argv, id=f"{doc}: {cli} {shlex.join(argv)}"
                )


COMMANDS = list(_commands())


class _Parsed(Exception):
    """Raised as soon as ``argparse`` has accepted a command line."""


def test_commands_of_every_cli_are_found():
    assert {param.values[0] for param in COMMANDS} >= {
        "repro.tools.report",
        "repro.tools.profile",
        "repro.resilience.campaign",
    }


def test_every_cited_test_exists():
    """Each ``test_…`` name a doc cites is a test function or a test
    module under ``tests/`` or ``benchmarks/``."""
    known = set()
    for path in [*ROOT.glob("tests/**/*.py"), *ROOT.glob("benchmarks/*.py")]:
        known.add(path.stem)
        known.update(re.findall(r"^\s*def (test_\w+)", path.read_text(), re.M))
    missing = {
        f"{name}: {cited}"
        for name in CITING_DOCS
        for cited in re.findall(r"\btest_\w+", (ROOT / name).read_text())
        if cited not in known
    }
    assert missing == set()


@pytest.mark.parametrize("module, argv", COMMANDS)
def test_parses(module, argv, monkeypatch):
    parse_args = argparse.ArgumentParser.parse_args

    def parse_then_stop(self, args=None, namespace=None):
        parse_args(self, args, namespace)
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_then_stop)
    main = importlib.import_module(module).main
    try:
        main(argv)
    except _Parsed:
        return
    except SystemExit as exc:
        pytest.fail(f"python -m {module} {shlex.join(argv)}: exit {exc.code}")
    pytest.fail(f"python -m {module} returned without parsing its arguments")


@pytest.mark.parametrize(
    "module",
    [
        "repro.tools.inspect",
        "repro.tools.report",
        "repro.tools.profile",
        "repro.tools.infer",
        "repro.resilience.campaign",
    ],
)
def test_cli_runs_as_a_module_without_warnings(module):
    """A package ``__init__`` that imports the CLI module before runpy
    executes it makes ``python -m`` warn on every run."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        timeout=120,
    )
    assert (completed.returncode, completed.stderr) == (0, "")

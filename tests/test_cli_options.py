"""The option contract of the command line: each command and subcommand
accepts exactly the options it reads, before or after its positionals, and
any other option exits 2 before the command runs.  README's command-line
block runs as written."""

import argparse
import shlex
from pathlib import Path

import pytest

from spreadsmith import cli
from spreadsmith.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

FIELD = ("--q", "--p", "--m", "--modulus-q", "--modulus-q2", "--lambda")
# each command, whether it reads a FILE, and the options it reads
READS = {
    "field-info": (False, FIELD + ("--format", "--output")),
    "goodsets count": (False, FIELD + ("--filter", "--format", "--output")),
    "goodsets enumerate": (False, FIELD + ("--filter", "--limit", "--output")),
    "goodsets verify": (True, FIELD + ("--output",)),
    "parallelism build": (True, FIELD + ("--output",)),
    "parallelism verify": (True, ("--output",)),
    "parallelism characterize": (True, ("--output",)),
    "classify": (False, FIELD + ("--output",)),
    "selftest": (False, FIELD + ("--sample-seed",)),
}
# a value of each option, the attribute it sets and what it sets it to
VALUES = {
    "--q": ("7", "q", 7),
    "--p": ("7", "p", 7),
    "--m": ("1", "m", 1),
    "--modulus-q": ("1,1", "modulus_q", "1,1"),
    "--modulus-q2": ("3,1,1", "modulus_q2", "3,1,1"),
    "--lambda": ("lambda.json", "lambda_file", "lambda.json"),
    "--filter": ("no-norm-minus-one", "filter", "no-norm-minus-one"),
    "--limit": ("5", "limit", 5),
    "--format": ("json", "format", "json"),
    "--output": ("out.txt", "output", "out.txt"),
    "--sample-seed": ("9", "sample_seed", 9),
}


def test_the_table_covers_every_command():
    assert set(READS) == set(cli.COMMANDS)


def _placements(command: str, file: bool, option: list[str]) -> list[list[str]]:
    """argv for the command with option before its positionals, after them,
    and, for a subcommand, before the subcommand's name."""
    words, tail = command.split(), ["F"] if file else []
    forms = [words + option + tail, words + tail + option]
    if len(words) == 2:
        forms.append(words[:1] + option + words[1:] + tail)
    return forms


@pytest.mark.parametrize("command", sorted(READS))
def test_each_option_a_command_reads_goes_before_or_after_its_positionals(command):
    file, options = READS[command]
    for option in options:
        text, attr, value = VALUES[option]
        for argv in _placements(command, file, [option, text]):
            run, args = cli._parse(argv)
            assert run is cli.COMMANDS[command][0]
            assert getattr(args, attr) == value, argv
            assert getattr(args, "file", "F") == "F", argv


@pytest.mark.parametrize("command", sorted(READS))
def test_each_option_a_command_does_not_read_exits_2(command, tmp_path, capsys):
    """The option is named on stderr; nothing reaches stdout or --output,
    and there is no traceback."""
    file, options = READS[command]
    out = tmp_path / "out.txt"
    given = ["--output", str(out)] if "--output" in options else []
    unread = [o for o in VALUES if o not in options] + ["--jobs"]
    for option in unread:
        for argv in _placements(command, file, [option, "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + given)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists(), argv
            assert "unrecognized arguments: " in captured.err and option in captured.err, argv
            assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["field-info", "--q", "3"],
                                  ["goodsets", "count", "--q", "3"]])
def test_a_command_builds_only_its_own_parser(argv, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(argv) == 0
    assert built == [f"spreadsmith {' '.join(argv[:-2])}"]


@pytest.mark.parametrize("argv, prog", [
    ([], "spreadsmith"), (["no-such-command"], "spreadsmith"),
    (["--q", "3", "field-info"], "spreadsmith"), (["--help"], "spreadsmith"),
    (["goodsets"], "spreadsmith goodsets"), (["goodsets", "--q", "3"], "spreadsmith goodsets"),
    (["goodsets", "--help"], "spreadsmith goodsets"),
    (["parallelism", "frobnicate", "F"], "spreadsmith parallelism"),
])
def test_a_missing_or_unknown_command_gets_the_usage_of_its_level(argv, prog, capsys):
    """--help prints the level's help and exits 0; anything else there is a
    usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    if "--help" in argv:
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith(f"usage: {prog} [-h]")
    else:
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(f"usage: {prog} [-h]")
        assert f"\n{prog}: error: " in captured.err


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Every line of README's command-line block is a spreadsmith command
    that exits 0, run in order in an empty directory."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "spreadsmith", argv
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()

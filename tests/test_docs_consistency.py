"""Documentation consistency: the docs describe the repo that exists."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDesignIndex:
    def test_every_bench_target_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"`benchmarks/(test_\w+\.py)`", design))
        assert targets, "experiment index lists no bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_inventory_package_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        packages = set(re.findall(r"`repro\.(\w+)`", design))
        for package in packages:
            assert (ROOT / "src" / "repro" / package).exists() or \
                (ROOT / "src" / "repro" / f"{package}.py").exists(), package


class TestReadme:
    def test_quickstart_code_runs_and_detects(self, capsys):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README has no python quickstart"
        namespace = {}
        exec(blocks[0], namespace)  # noqa: S102 - our own README
        out = capsys.readouterr().out
        assert "race on" in out

    def test_linked_docs_exist(self):
        readme = (ROOT / "README.md").read_text()
        for link in re.findall(r"\]\(([\w/.-]+\.md)\)", readme):
            assert (ROOT / link).exists(), link
        for link in re.findall(r"`(examples/[\w_]+\.py)`", readme):
            assert (ROOT / link).exists(), link

    def test_cli_commands_documented_match_parser(self):
        from repro.cli import build_parser

        readme = (ROOT / "README.md").read_text()
        parser = build_parser()
        subactions = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in subactions.choices:
            assert f"``{command}``" in readme, command


#: Fenced code blocks, and inline code spans outside them.
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"(?<!`)`([^`]+)`(?!`)")
COMMAND = re.compile(r"(?:\$\s+)?(?:\S+=\S+\s+)*(?:python3? -m )?repro\s+"
                     r"([a-z][\w-]*)(.*)", re.S)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
CLI_DOCS = ("README.md", "EXPERIMENTS.md", "docs/*.md")


def documented_commands(text):
    """``(subcommand, arguments)`` for every ``repro <subcommand> ...``
    command line in a Markdown text: code-block lines (backslash
    continuations joined) and inline code spans."""
    for block in FENCE.findall(text):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            match = COMMAND.match(line.strip())
            if match:
                yield match.group(1), match.group(2)
    for span in SPAN.findall(FENCE.sub("", text)):
        match = COMMAND.match(span.replace("\n", " "))
        if match:
            yield match.group(1), match.group(2)


class TestCliDocs:
    def test_documented_flags_exist_on_their_subcommand(self):
        from repro.cli import build_parser

        subactions = next(
            a for a in build_parser()._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        problems = []
        seen = 0
        for pattern in CLI_DOCS:
            for path in sorted(ROOT.glob(pattern)):
                for command, args in documented_commands(path.read_text()):
                    seen += 1
                    name = path.relative_to(ROOT)
                    parser = subactions.choices.get(command)
                    if parser is None:
                        problems.append(f"{name}: no subcommand {command!r}")
                        continue
                    options = {option for action in parser._actions
                               for option in action.option_strings}
                    problems.extend(
                        f"{name}: repro {command} has no {flag}"
                        for flag in FLAG.findall(args)
                        if flag not in options
                    )
        assert seen, "no documented repro command lines found"
        assert problems == []

    def test_extraction_covers_blocks_and_spans(self):
        text = ("Run `repro analyze TRACE --profile p` or\n\n"
                "```bash\n$ python -m repro chaos x --runs 2 \\\n"
                "    --seed 3\n```\n")
        assert [(command, FLAG.findall(args))
                for command, args in documented_commands(text)] == [
            ("chaos", ["--runs", "--seed"]),
            ("analyze", ["--profile"]),
        ]


class TestExperimentsDoc:
    def test_mentions_every_figure_and_table(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for item in ("Table 1", "Table 2", "Figure 6", "Figure 7",
                     "Figure 8", "Figure 9", "Figure 10", "Figure 11",
                     "Figure 12"):
            assert item in text, item

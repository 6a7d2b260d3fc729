"""The README's examples run as written: its ```python blocks in order, in
one namespace, and its example config through the command line on a small
grid.  What it states of the dump and of the exit messages holds too."""

import ast
import importlib.util
import re
from pathlib import Path

from uavpart.cli import main
from uavpart.runner import EXIT_OK

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
EXIT_PREFIXES = ("config error: ", "infeasible instance: ", "solver did not converge: ")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    code = blocks("python")
    assert len(code) == 2
    namespace = {}
    for block in code:
        exec(compile(block, "README.md", "exec"), namespace)


def test_example_config_runs(tmp_path):
    (ini,) = blocks("ini")
    path = tmp_path / "demo.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    argv = ["run", str(path), "--grid", "40x40", "--seeds", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (out / "metrics.csv").is_file()


def test_the_dump_s_runs_are_listed_only_in_its_table():
    spec = importlib.util.spec_from_file_location("dump_outputs", ROOT / "scripts/dump_outputs.py")
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    runs = dump.dump_runs(str(ROOT))
    (stated,) = re.findall(r"`scripts/dump_outputs\.py` writes (\d+) runs", README)
    assert int(stated) == len(runs) == 96
    assert len({name for name, _, _ in runs}) == len(runs)
    for name, _, _, _ in dump.SPECIAL_RUNS:
        assert name not in README and name not in dump.__doc__


def asserted_strings():
    """Each string literal of the other test modules, implicit
    concatenations joined and each f-string field written as {}."""
    strings = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr):
                strings.append("".join(part.value if isinstance(part, ast.Constant) else "{}"
                                       for part in node.values))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append(node.value)
    return strings


def test_every_exit_message_the_readme_quotes_is_asserted():
    # a quoted message is an inline code span that starts as an exit's
    # stderr line does; "..." and the spaces around it stand for any text,
    # and the message matches with or without its prefix, which the runner
    # adds to every message
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    quoted = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]
    messages = [text for text in quoted if text.startswith(EXIT_PREFIXES)]
    assert len(messages) >= 10
    strings = asserted_strings()
    for message in messages:
        prefix = next(p for p in EXIT_PREFIXES if message.startswith(p))
        patterns = [".*".join(map(re.escape, re.split(r"\s*\.\.\.\s*", text)))
                    for text in (message, message[len(prefix):])]
        assert any(re.search(pattern, text) for pattern in patterns for text in strings), message

"""The README's examples run as written: its ```python blocks in order, in
one namespace, and its example config through the command line on a small
grid."""

import re
from pathlib import Path

from uavpart.cli import main
from uavpart.runner import EXIT_OK

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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

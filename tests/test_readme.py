"""The README's library quickstart runs as written against this checkout and prints the values
its comments state, its config example parses, the counts it states of pinned Monte-Carlo
estimates match the pins, and its Layout block names the package's modules."""

import json
import re
from pathlib import Path

from peerspot.harness import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PINNED = Path(__file__).with_name("pinned_estimates.json")
# "float.hex of 76 Monte-Carlo estimates" in the layout, "pins 76 of them" in the conventions.
PINNED_COUNT = re.compile(r"float\.hex\s+of\s+(\d+)\s+Monte-Carlo\s+estimates|pins\s+(\d+)\s+of\s+them")


def stated(got: float, want: str) -> bool:
    """Whether a printed value matches a comment's: "~x" to x's decimals, "x" exactly."""
    if want.startswith("~"):
        return abs(got - float(want[1:])) <= 0.5 * 10.0 ** -len(want.split(".")[1])
    return got == float(want)


def test_python_blocks_run(capsys):
    """Every python block runs.  The quickstart prints the thresholds at cost 0.1 (one line),
    then ``p_pareto`` at each other cost (the last field of one line per cost), each as the
    comment of its ``print`` states."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    thresholds, per_cost = (comment.split(", ") for comment in re.findall(r"print\(.*\)\s+#\s*(.+)", blocks[0]))
    printed = [float(x) for x in lines[0].split()]
    pareto = [float(line.split()[-1]) for line in lines[1 : 1 + len(per_cost)]]
    assert len(printed) == len(thresholds) and all(map(stated, printed, thresholds)), (lines[0], thresholds)
    assert all(map(stated, pareto, per_cost)), (pareto, per_cost)


def test_config_example_parses():
    """The schema example, without its // comments, is a config the config reader accepts."""
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    config = parse_config(json.loads(re.sub(r"//[^\n]*", "", blocks[0])))
    assert (len(config.environments), len(config.mechanisms), config.p_values) == (21, 4, (0.25, 0.5))


def test_pinned_estimate_counts_match_the_pins():
    counts = [int(a or b) for a, b in PINNED_COUNT.findall(README.read_text())]
    assert len(counts) == 2
    assert counts == [len(json.loads(PINNED.read_text())["estimates"])] * 2


def test_layout_names_every_module():
    """The Layout block lists, under ``src/peerspot/``, exactly the package's modules other
    than ``__init__.py``."""
    layout = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    package = re.search(r"^src/peerspot/\n((?:  .*\n)+)", layout, flags=re.MULTILINE).group(1)
    named = {line.split()[0] for line in package.splitlines()}
    modules = {path.name for path in (ROOT / "src" / "peerspot").glob("*.py")} - {"__init__.py"}
    assert named == modules

"""The README's library quickstart runs as written against this checkout, its config example
parses, and the counts it states of pinned Monte-Carlo estimates match the pins."""

import json
import re
from pathlib import Path

from peerspot.harness import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
PINNED = Path(__file__).with_name("pinned_estimates.json")
# "float.hex of 76 Monte-Carlo estimates" in the layout, "pins 76 of them" in the conventions.
PINNED_COUNT = re.compile(r"float\.hex\s+of\s+(\d+)\s+Monte-Carlo\s+estimates|pins\s+(\d+)\s+of\s+them")


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "0.56" in capsys.readouterr().out


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

"""The benchmark's layer tracer finds every layer it names in the library."""

from pathlib import Path
from types import ModuleType

LAYERTRACE = Path(__file__).parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_layer_resolves():
    # executed from its source, so nothing is written next to it
    module = ModuleType("layertrace")
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"),
         module.__dict__)
    with module.Tracer() as tracer:
        assert tracer.absent == []

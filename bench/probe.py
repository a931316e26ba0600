"""Set-up probe: a fresh interpreter imports ``crcsec.cli`` and loads the
workload's input files, then prints ``ready``. The caller times it from
process start to that line.

Usage: python3 bench/probe.py [channel:PATH | sim:PATH]...
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import crcsec.cli  # noqa: E402
from crcsec.binning import load_sim_config  # noqa: E402
from crcsec.channel import load_channel  # noqa: E402

if not Path(crcsec.cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"crcsec was imported from {crcsec.cli.__file__}, not from {SRC}")

for arg in sys.argv[1:]:
    kind, _, path = arg.partition(":")
    if kind == "channel":
        load_channel(path)
    else:
        load_sim_config(path)
print("ready", flush=True)

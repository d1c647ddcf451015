"""Set-up probe: the work every CLI command does before its own.

    python3 perfbench/setup_probe.py CONFIG

Imports fowler.cli, parses CONFIG and computes the derived constants that
each command records in its manifest, then exits.
"""

import sys

import fowler.cli  # noqa: F401  (the import every command pays)
from fowler.config import parse_config
from fowler.reporting import RunManifest, derived_constants

if __name__ == "__main__":
    derived_constants(RunManifest(), parse_config(sys.argv[1]))

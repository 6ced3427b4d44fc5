"""Exit-code census of the config-to-run contract.

Feeds the first N documents of a derandomized run of the
`test_config_contract.documents` strategy through all five commands and
prints, per command, how many documents ended with each exit code, and
every run whose exit code the contract test would not allow.  The file
is not collected by pytest.

Usage: PYTHONPATH=src python tests/contract_census.py [N]

Hypothesis draws some values from the literal constants of the loaded
modules, so the documents change with edits to the package and the tests.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import tempfile

from hypothesis import Phase, given, settings
from test_config_contract import COMMANDS, _allowed_exits, _run, documents

from simkbm.config import ConfigError, parse_config


def derandomized_documents(count: int) -> list:
    docs = []

    @settings(
        max_examples=count, derandomize=True, database=None, deadline=None, phases=[Phase.generate]
    )
    @given(documents())
    def collect(doc):
        docs.append(doc)

    collect()
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", nargs="?", type=int, default=200)
    args = parser.parse_args(argv)

    docs = derandomized_documents(args.count)
    table = {command: collections.Counter() for command in COMMANDS}
    accepted = 0
    outside = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, doc in enumerate(docs):
            try:
                config = parse_config(doc)
                accepted += 1
            except ConfigError:
                config = None
            path = os.path.join(workdir, f"doc-{i}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for command in COMMANDS:
                rc, err = _run(os.path.join(workdir, f"doc-{i}"), command, path)
                table[command][rc] += 1
                allowed = {1} if config is None else _allowed_exits(config, command)
                if rc not in allowed:
                    outside.append((i, command, rc, err.strip()))

    codes = sorted({rc for counts in table.values() for rc in counts})
    print(f"{len(docs)} documents, {accepted} accepted by parse_config")
    print(f"{'command':<16}" + "".join(f"{f'exit {rc}':>9}" for rc in codes))
    for command, counts in table.items():
        print(f"{command:<16}" + "".join(f"{counts[rc]:>9}" for rc in codes))
    for i, command, rc, err in outside:
        print(f"document {i}: {command} exits {rc}, outside the contract: {err}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())

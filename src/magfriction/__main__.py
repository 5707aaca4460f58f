"""``python -m magfriction``: the same entry point as the console script."""

from magfriction import cli

cli.entry()

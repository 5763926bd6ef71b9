"""`python -m genret ...` runs the genret command line."""

from .cli import entry

entry()

"""Crash narrative pipeline: tabular records to attributed, analyzed text.

The package root exports nothing; import from the submodules.
"""

__version__ = "0.1.0"

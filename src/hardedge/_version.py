"""The package version: the one literal the package, its reports and the build read."""

__all__ = ["__version__"]

__version__ = "0.1.0"

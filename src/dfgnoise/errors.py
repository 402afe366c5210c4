"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes, so modules should raise the most
specific class that applies rather than bare ValueError.
"""


class DfgNoiseError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(DfgNoiseError):
    """A physical parameter is outside its allowed domain."""


class RowError(ParameterError):
    """Row ``row`` of a dataset breaks ``rule``, which names the column."""

    def __init__(self, row: int, rule: str):
        super().__init__(f"row {row}: {rule}")
        self.row, self.rule = row, rule


class ModelViolationError(DfgNoiseError):
    """Inputs describe a physically inconsistent model (e.g. dip depths
    summing above unity somewhere on the grid)."""


class ResolutionError(DfgNoiseError):
    """A sampling grid is too coarse for the requested operation."""


class NonPhysicalWidthError(DfgNoiseError):
    """Deconvolution asked to remove more width than is present."""


class InsufficientDataError(DfgNoiseError):
    """Too few data points for the requested fit."""


class FitFailureError(DfgNoiseError):
    """A least-squares fit did not produce a usable result."""


class DataFormatError(DfgNoiseError):
    """A data file failed to parse; message carries file and line."""


class ConfigError(DfgNoiseError):
    """A run configuration failed validation; message enumerates fields."""

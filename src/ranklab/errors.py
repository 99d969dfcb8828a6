"""Exceptions and warnings shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all ranklab errors."""


class ParseError(ToolkitError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ConfigError(ToolkitError):
    """Invalid configuration value or unusable input path (exit code 2)."""


class DuplicateDocumentError(ConfigError):
    """Two corpus records share a doc_id (exit code 2)."""


class DependencyError(ToolkitError):
    """A pipeline stage is missing an artifact another stage produces (exit code 3)."""


class NumericError(ToolkitError):
    """A loss or gradient became non-finite (exit code 4)."""


class EmptyCorpusError(ConfigError):
    """An index was requested over zero documents (exit code 2)."""


class UndefinedMetricError(ConfigError):
    """A metric was requested over an empty set of judged queries (exit code 2)."""


class GenerationError(ToolkitError):
    """A document has no usable content terms for query generation."""


class DegeneratePairError(ToolkitError):
    """A contrastive document pair has no positive-salience term."""


class ToolkitWarning(UserWarning):
    """Non-fatal data conditions (all-stopword queries, renumbered ranks, ...)."""

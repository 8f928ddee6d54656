"""Exception taxonomy shared across the toolkit.

Two families matter for the CLI: DataError maps to exit code 2,
ClientError maps to exit code 3. Everything else is a bug.
"""


class ForgeError(Exception):
    """Base class for all toolkit errors."""


class DataError(ForgeError):
    """Input data violates a contract (bad record, bad reference, bad shape)."""


class ClientError(ForgeError):
    """A pluggable client (HTTP or LLM) failed or was forbidden to run."""


# --- data errors -----------------------------------------------------------

class UnknownSource(DataError):
    pass


class SchemaVersionMismatch(DataError):
    pass


class MalformedXml(DataError):
    pass


class SelfLoop(DataError):
    pass


class MissingResultsSection(DataError):
    pass


class DanglingReference(DataError):
    pass


class ForeignKeyViolation(DataError):
    pass


class CorpusTooSmall(DataError):
    pass


class LeakageDetected(DataError):
    pass


class SelfReferenceViolation(DataError):
    pass


class FieldMissing(DataError):
    pass


class EmptyTruth(DataError):
    pass


class TaxonomyViolation(DataError):
    pass


# --- client errors ---------------------------------------------------------

class ClientUnavailable(ClientError):
    pass


class MalformedResponse(ClientError):
    pass


class ReplayMiss(ClientError):
    """Raised in replay mode when no recorded response matches the request hash."""

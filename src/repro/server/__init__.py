"""Client/server deployment: wire protocol, the database server, client
library, and the portable UDF development workflow (Section 6.4)."""

from .admission import AdmissionController
from .adtstream import read_value, write_value
from .aserver import AsyncDatabaseServer
from .client import Client, LocalUDFHarness

__all__ = [
    "AdmissionController",
    "AsyncDatabaseServer",
    "Client",
    "LocalUDFHarness",
    "read_value",
    "write_value",
]

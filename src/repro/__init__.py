"""repro: reproduction of *Secure and Portable Database Extensibility*
(Godfrey, Mayr, Seshadri, von Eicken — SIGMOD 1998).

A PREDATOR-style object-relational database with user-defined functions
executable under all of the paper's designs:

* **Design 1** — native code inside the server process (fast, unsafe);
* **Design 1 + SFI** — native code behind guarded buffers;
* **Design 2** — native code in an isolated executor process talking
  through shared memory and semaphores;
* **Design 3** — sandboxed code on **JaguarVM** (bytecode verifier,
  class-loader namespaces, security manager, thread groups, CPU/memory
  quotas, and a JIT) inside the server process;
* **Design 4** — JaguarVM inside the isolated executor.

Quick start::

    from repro import Database

    db = Database()                       # in-memory; Database(path) persists
    db.execute("CREATE TABLE t (id INT)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    db.execute(
        "CREATE FUNCTION sq(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX AS 'def sq(x: int) -> int: return x * x'"
    )
    print(db.query("SELECT sq(id) FROM t"))
"""

from .core.callbacks import CallbackBroker
from .core.designs import Design, design_space
from .core.udf import CostHints, UDFDefinition, UDFSignature
from .database import Database
from .errors import ReproError
from .server.aserver import AsyncDatabaseServer
from .server.client import Client, LocalUDFHarness
from .vm.machine import JaguarVM

__version__ = "1.0.0"

__all__ = [
    "AsyncDatabaseServer",
    "CallbackBroker",
    "Client",
    "CostHints",
    "Database",
    "Design",
    "JaguarVM",
    "LocalUDFHarness",
    "ReproError",
    "UDFDefinition",
    "UDFSignature",
    "design_space",
    "__version__",
]

"""Client-side vs server-side UDF execution (the Section 3.1 study)."""

import pytest

from repro.database import Database
from repro.server.aserver import AsyncDatabaseServer
from repro.server.client import Client, LocalUDFHarness
from repro.server.clientexec import ClientSideUDF, compare_strategies

DOUBLER = """
def bigval(data: bytes) -> int:
    total: int = 0
    for i in range(len(data)):
        total = total + data[i]
    return total
"""


@pytest.fixture
def setup():
    database = Database()
    database.execute("CREATE TABLE blobs (id INT, data BYTEARRAY)")
    table = database.catalog.get_table("blobs")
    for row_id in range(20):
        payload = bytes([row_id * 10] * 2000)  # 2 KB each, spilled to LOB
        database.insert_row(table, [row_id, payload])
    with AsyncDatabaseServer(database, concurrency=1) as server:
        with Client(server.host, server.port) as client:
            udf = ClientSideUDF(
                client=client,
                harness=LocalUDFHarness(),
                name="bigval",
                source=DOUBLER,
                param_types=["bytes"],
                ret_type="int",
            )
            yield client, udf
    database.close()


THRESHOLD = 100 * 2000  # rows with byte value > 100 qualify


class TestStrategies:
    def test_both_strategies_agree(self, setup):
        __, udf = setup
        shipping = udf.run_data_shipping(
            "blobs", "id", ["data"], lambda v: v > THRESHOLD
        )
        server_side = udf.run_server_side(
            "blobs", "id", ["data"], f"> {THRESHOLD}"
        )
        assert sorted(shipping.rows) == sorted(server_side.rows)
        assert len(shipping.rows) == 9  # ids 11..19

    def test_data_shipping_moves_far_more_bytes(self, setup):
        __, udf = setup
        shipping = udf.run_data_shipping(
            "blobs", "id", ["data"], lambda v: v > THRESHOLD
        )
        server_side = udf.run_server_side(
            "blobs", "id", ["data"], f"> {THRESHOLD}"
        )
        # 20 x 2 KB must cross the wire for shipping; only ids otherwise.
        assert shipping.bytes_over_wire > 20 * 2000
        assert server_side.bytes_over_wire < 2000
        assert shipping.bytes_over_wire > 20 * server_side.bytes_over_wire

    def test_cheap_predicates_stay_at_server(self, setup):
        __, udf = setup
        shipping = udf.run_data_shipping(
            "blobs", "id", ["data"], lambda v: v > THRESHOLD,
            where="id >= 15",
        )
        assert sorted(shipping.rows) == [(i,) for i in range(15, 20)]
        # Only 5 rows shipped.
        assert shipping.udf_invocations == 5

    def test_comparison_report(self, setup):
        __, udf = setup
        shipping = udf.run_data_shipping(
            "blobs", "id", ["data"], lambda v: v > THRESHOLD
        )
        server_side = udf.run_server_side(
            "blobs", "id", ["data"], f"> {THRESHOLD}"
        )
        text = compare_strategies(shipping, server_side)
        assert "data shipping moved" in text

    def test_migration_happens_once(self, setup):
        __, udf = setup
        udf.run_server_side("blobs", "id", ["data"], f"> {THRESHOLD}")
        udf.run_server_side("blobs", "id", ["data"], f"> {THRESHOLD}")


class TestLobShippingBoundary:
    def test_projected_lob_arrives_as_bytes(self, setup):
        client, __ = setup
        result = client.execute("SELECT data FROM blobs WHERE id = 3")
        value = result.rows[0][0]
        assert isinstance(value, bytes)
        assert value == bytes([30] * 2000)

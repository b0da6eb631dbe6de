"""Wire protocol framing and hostile-input handling."""

import socket
import struct

import pytest

from repro.database import Database
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.aserver import AsyncDatabaseServer


class TestFraming:
    def test_send_recv_roundtrip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, protocol.OP_EXECUTE, b"payload")
            opcode, payload = protocol.recv_frame(right)
            assert opcode == protocol.OP_EXECUTE
            assert payload == b"payload"
        finally:
            left.close()
            right.close()

    def test_empty_payload(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, protocol.OP_PING)
            assert protocol.recv_frame(right) == (protocol.OP_PING, b"")
        finally:
            left.close()
            right.close()

    def test_closed_connection_mid_frame(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack("<IB", 100, protocol.OP_EXECUTE))
        left.close()
        with pytest.raises(ProtocolError, match="closed"):
            protocol.recv_frame(right)
        right.close()

    def test_bad_length_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("<IB", 0, protocol.OP_PING))
            with pytest.raises(ProtocolError, match="length"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()


class TestPayloadCodecs:
    def test_encode_decode_values(self):
        payload = protocol.encode_values("sql text", 42, (1, 2))
        assert protocol.decode_values(payload, 3) == ("sql text", 42, (1, 2))

    def test_trailing_bytes_rejected(self):
        payload = protocol.encode_values(1) + b"x"
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_values(payload, 1)

    def test_result_roundtrip(self):
        columns = ["a", "b"]
        rows = [(1, "x"), (None, b"\x00")]
        payload = protocol.encode_result(columns, rows)
        got_columns, rowcount, got_rows = protocol.decode_result(payload)
        assert got_columns == columns
        assert rowcount == 2
        assert got_rows == rows


class TestServerRobustness:
    @pytest.fixture
    def server(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT)")
        with AsyncDatabaseServer(database, concurrency=1) as srv:
            yield srv
        database.close()

    def raw_connect(self, server):
        return socket.create_connection((server.host, server.port), 10)

    def test_unknown_opcode_answered_with_error(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(conn, 200, b"")
            opcode, payload = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR

    def test_garbage_payload_answered_with_error(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(conn, protocol.OP_EXECUTE, b"\xff\xfe")
            opcode, __ = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR

    def test_abrupt_disconnect_does_not_kill_server(self, server):
        conn = self.raw_connect(server)
        conn.sendall(b"\x05\x00")  # half a frame header
        conn.close()
        # Server keeps accepting.
        with self.raw_connect(server) as again:
            protocol.send_frame(again, protocol.OP_PING)
            assert protocol.recv_frame(again)[0] == protocol.OP_PONG

    @pytest.mark.parametrize(
        "length", [0, protocol.MAX_FRAME + 1], ids=["zero", "over_max"]
    )
    def test_bad_frame_length_closes_connection(self, server, length):
        with self.raw_connect(server) as conn:
            # A header alone: the server must hang up without waiting
            # for (or allocating) the payload it declares.
            conn.sendall(struct.pack("<IB", length, protocol.OP_EXECUTE))
            assert conn.recv(1) == b""
        with self.raw_connect(server) as again:
            protocol.send_frame(again, protocol.OP_PING)
            assert protocol.recv_frame(again)[0] == protocol.OP_PONG

    def test_malformed_register_payload(self, server):
        with self.raw_connect(server) as conn:
            protocol.send_frame(
                conn, protocol.OP_REGISTER_UDF,
                protocol.encode_values("only-one-value"),
            )
            opcode, __ = protocol.recv_frame(conn)
            assert opcode == protocol.OP_ERROR

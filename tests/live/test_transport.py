"""MeshTransport: delivery, acknowledgement, dedup, durable retransmit."""

import asyncio
import json
import os
import socket

import pytest

from repro.live import codec, wire
from repro.live.framing import BufferedFrameReader, frame
from repro.live.storage import FileStableStorage
from repro.live.transport import MeshTransport
from repro.runtime.message import NetworkMessage


class Collector:
    """Minimal protocol: records every delivered message."""

    def __init__(self):
        self.received = []

    def on_network_message(self, msg):
        self.received.append(msg)


def _free_ports(count):
    sockets = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            sockets.append(s)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


def _msg(msg_id, src, dst, payload):
    return NetworkMessage(
        msg_id=msg_id, src=src, dst=dst, kind="app",
        payload=payload, send_time=0.0,
    )


async def _wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.01)


def test_basic_delivery_and_ack():
    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        b = MeshTransport(1, 2, ports)
        ca, cb = Collector(), Collector()
        a.attach(ca)
        b.attach(cb)
        await a.start()
        await b.start()
        try:
            a.send(1, _msg(1, 0, 1, "one"))
            a.send(1, _msg(2, 0, 1, "two"))
            b.send(0, _msg(3, 1, 0, "three"))
            await _wait_until(lambda: len(cb.received) == 2)
            await _wait_until(lambda: len(ca.received) == 1)
            assert [m.payload for m in cb.received] == ["one", "two"]
            assert ca.received[0].payload == "three"
            # Acks drain both outboxes.
            await _wait_until(lambda: a.unacked == 0 and b.unacked == 0)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


def test_self_send_delivers_locally():
    async def go():
        ports = _free_ports(1)
        a = MeshTransport(0, 1, ports)
        c = Collector()
        a.attach(c)
        a.send(0, _msg(1, 0, 0, "self"))
        await _wait_until(lambda: len(c.received) == 1)
        assert c.received[0].payload == "self"

    asyncio.run(go())


def test_send_before_peer_is_up_is_buffered():
    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "early"))
            await asyncio.sleep(0.2)   # peer not listening yet
            b = MeshTransport(1, 2, ports)
            cb = Collector()
            b.attach(cb)
            await b.start()
            try:
                await _wait_until(lambda: len(cb.received) == 1)
                assert cb.received[0].payload == "early"
            finally:
                await b.stop()
        finally:
            await a.stop()

    asyncio.run(go())


def test_durable_outbox_survives_sender_restart(tmp_path):
    """A SIGKILLed sender must retransmit unacknowledged messages."""

    async def go():
        ports = _free_ports(2)
        storage_path = os.path.join(str(tmp_path), "stable_p0.pickle")

        # Incarnation 1 sends while the receiver is down, then "crashes"
        # (we just drop the transport without stopping cleanly).
        storage = FileStableStorage(0, storage_path)
        a1 = MeshTransport(0, 2, ports, boot=1, storage=storage)
        a1.attach(Collector())
        a1.send(1, _msg(1, 0, 1, "persisted"))
        assert a1.unacked == 1

        # Incarnation 2 reloads the outbox from storage and delivers.
        storage2 = FileStableStorage(0, storage_path)
        a2 = MeshTransport(0, 2, ports, boot=2, storage=storage2)
        a2.attach(Collector())
        assert a2.unacked == 1, "outbox should reload from stable storage"
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await a2.start()
        await b.start()
        try:
            await _wait_until(lambda: len(cb.received) == 1)
            assert cb.received[0].payload == "persisted"
            await _wait_until(lambda: a2.unacked == 0)
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_receiver_dedups_by_sender_boot():
    async def go():
        ports = _free_ports(2)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await b.start()

        # Same boot, same seq twice: second copy acked but not delivered.
        a1 = MeshTransport(0, 2, ports, boot=1)
        a1.attach(Collector())
        await a1.start()
        try:
            a1.send(1, _msg(1, 0, 1, "m"))
            await _wait_until(lambda: len(cb.received) == 1)
            await _wait_until(lambda: a1.unacked == 0)
        finally:
            await a1.stop()

        # A NEW boot restarts seq numbering; its messages must deliver.
        a2 = MeshTransport(0, 2, ports, boot=2)
        a2.attach(Collector())
        await a2.start()
        try:
            a2.send(1, _msg(2, 0, 1, "after-restart"))
            await _wait_until(lambda: len(cb.received) == 2)
            assert cb.received[1].payload == "after-restart"
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_messages_before_attach_are_buffered():
    async def go():
        ports = _free_ports(1)
        a = MeshTransport(0, 1, ports)
        a.send(0, _msg(1, 0, 0, "early"))
        await asyncio.sleep(0.05)
        c = Collector()
        a.attach(c)
        await _wait_until(lambda: len(c.received) == 1)

    asyncio.run(go())


def test_double_attach_rejected():
    ports = _free_ports(1)
    a = MeshTransport(0, 1, ports)
    a.attach(Collector())
    with pytest.raises(RuntimeError):
        a.attach(Collector())


def test_reload_heals_seq_counter_behind_outbox(tmp_path):
    # A crash can land between an outbox append reaching disk and the
    # matching counter update: the reloaded counter would then re-issue
    # a seq already occupied in the reloaded outbox, and the receiver's
    # dedup cursor would silently swallow the second message.  The
    # constructor must never hand out a seq at or below the outbox max.
    from repro.live.transport import _OUTBOX_KEY

    path = os.path.join(str(tmp_path), "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    stale = _msg(900, 0, 1, "survived the crash")
    storage.put_lazy(
        _OUTBOX_KEY,
        {"entries": {1: [(36, stale)]}, "next_seq": {1: 36}},
    )

    ports = _free_ports(2)
    reborn = MeshTransport(
        0, 2, ports, boot=2, storage=FileStableStorage(0, path)
    )
    assert reborn._outbox[1] == [(36, stale)]
    assert reborn._next_seq[1] == 37


def test_outbox_and_seq_persist_in_one_image(tmp_path):
    # The counter and the outbox share one storage key so a single
    # atomic image write covers both -- there is no window in which one
    # is durable without the other.
    path = os.path.join(str(tmp_path), "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    transport = MeshTransport(0, 2, _free_ports(2), storage=storage)
    transport.send(1, _msg(1, 0, 1, "never acked"))
    transport.send(1, _msg(2, 0, 1, "also never acked"))

    reborn = MeshTransport(
        0, 2, _free_ports(2), boot=2, storage=FileStableStorage(0, path)
    )
    assert [seq for seq, _ in reborn._outbox[1]] == [1, 2]
    assert reborn._next_seq[1] == 3


def test_burst_is_delivered_in_order_and_fully_acked():
    """A batch of frames arriving in one read must produce exactly one
    cumulative ack that drains the sender's whole outbox."""

    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        b = MeshTransport(1, 2, ports)
        ca, cb = Collector(), Collector()
        a.attach(ca)
        b.attach(cb)
        await a.start()
        await b.start()
        try:
            for i in range(80):
                a.send(1, _msg(i + 1, 0, 1, f"m{i}"))
            await _wait_until(lambda: len(cb.received) == 80)
            assert [m.payload for m in cb.received] == [
                f"m{i}" for i in range(80)
            ]
            await _wait_until(lambda: a.unacked == 0)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


def test_lazy_provider_keeps_outbox_durable(tmp_path):
    """The provider-backed outbox image must be materialised into the
    durable file even though sends only mark the storage dirty."""

    async def go():
        ports = _free_ports(2)
        path = os.path.join(tmp_path, "stable_p0.pickle")
        storage = FileStableStorage(0, path)
        a = MeshTransport(0, 2, ports, storage=storage)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "unacked"))   # peer never comes up
            await asyncio.sleep(0.05)
        finally:
            await a.stop()
        storage.sync()

        reloaded = FileStableStorage(0, path)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        a2 = MeshTransport(0, 2, ports, storage=reloaded)
        a2.attach(Collector())
        await b.start()
        await a2.start()
        try:
            await _wait_until(lambda: len(cb.received) == 1)
            assert cb.received[0].payload == "unacked"
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_redial_rate_is_bounded_by_capped_jittered_backoff():
    """Dialing a dead peer must back off, not busy-spin: over ~1.2s the
    dial count stays in the single digits (a tight retry loop would rack
    up hundreds) while still retrying more than once."""
    async def go():
        ports = _free_ports(2)       # port 1 is free but nobody listens
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "into the void"))
            await asyncio.sleep(1.2)
            # Backoff floor 0.05 doubling to a 2.0 ceiling with full
            # jitter: worst case ~2 + sum of shrinking sleeps.
            assert 2 <= a.dial_attempts <= 25, a.dial_attempts
        finally:
            await a.stop()

    asyncio.run(go())


def test_blocked_link_does_not_dial_at_all():
    """A fault-blocked link polls the block flag instead of dialing --
    the partition looks like an unreachable host, not a refused port."""
    class _Blocked:
        def send_blocked(self, dst):
            return True

        def corrupt_frame(self, dst, framed):
            return framed

        def gray_penalty(self, dst, nbytes):
            return 0.0

    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports, faults=_Blocked())
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "never sent"))
            await asyncio.sleep(0.4)
            assert a.dial_attempts == 0
        finally:
            await a.stop()

    asyncio.run(go())


# ---------------------------------------------------------------------------
# The retired tagged-JSON mesh frames are corrupt frames now
# ---------------------------------------------------------------------------
_LEGACY_JSON = {
    "hello": {"hello": {"pid": 0, "boot": 1}},
    "data": {"seq": 2, "msg": codec.encode(_msg(2, 0, 1, "legacy"))},
    "ack": {"ack": 1},
}


def _legacy(kind):
    return frame(json.dumps(_LEGACY_JSON[kind]).encode("utf-8"))


async def _dropped(reader, timeout=5.0):
    """Read until EOF; the receiver must close the connection."""
    while await asyncio.wait_for(reader.read(4096), timeout):
        pass
    return True


@pytest.mark.parametrize("kind", sorted(_LEGACY_JSON))
def test_legacy_json_frame_is_rejected_by_the_receiver(kind):
    """A tagged-JSON hello, data or ack frame (intact CRC) drops the
    connection before anything is delivered or the dedup cursor moves."""
    async def go():
        ports = _free_ports(2)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await b.start()
        try:
            # A well-formed link delivers seq 1 and sets the cursor.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[1]
            )
            writer.write(frame(wire.hello_frame(0, 1)))
            writer.write(frame(wire.WireEncoder().data_frame(
                1, _msg(1, 0, 1, "binary"))))
            await writer.drain()
            await _wait_until(lambda: len(cb.received) == 1)
            writer.close()
            seen = dict(b._seen)
            assert seen == {(0, 1): 1}

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[1]
            )
            if kind != "hello":
                writer.write(frame(wire.hello_frame(0, 1)))
            writer.write(_legacy(kind))
            await writer.drain()
            assert await _dropped(reader)
            writer.close()
            await asyncio.sleep(0.05)
            assert [m.payload for m in cb.received] == ["binary"]
            assert b._seen == seen
            assert b.unacked == 0
        finally:
            await b.stop()

    asyncio.run(go())


@pytest.mark.parametrize("bad_ack", [
    _legacy("ack"),
    frame(bytes([wire.MAGIC, wire.WIRE_VERSION + 1, wire.FRAME_ACK, 1])),
], ids=["legacy-json", "unknown-wire-version"])
def test_unparseable_ack_drops_the_link_and_the_sender_redials(bad_ack):
    """An ack the sender cannot parse leaves its outbox untouched; the
    link drops, the sender redials and retransmits, and a binary ack on
    the new connection finally prunes the entry."""
    async def go():
        ports = _free_ports(2)
        connections = []

        async def peer(reader, writer):
            index = len(connections)
            connections.append(index)
            frames = BufferedFrameReader(reader)
            seqs = []
            while not seqs:
                batch = await frames.read_batch()
                if batch is None:
                    return
                seqs += [wire.WireDecoder().decode_data(f)[0]
                         for f in batch
                         if wire.frame_type(f) == wire.FRAME_DATA]
            writer.write(
                bad_ack if index == 0 else frame(wire.ack_frame(seqs[-1]))
            )
            await writer.drain()
            await reader.read()          # hold until the sender hangs up

        server = await asyncio.start_server(peer, "127.0.0.1", ports[1])
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "retry me"))
            await _wait_until(lambda: len(connections) >= 2)
            await _wait_until(lambda: a.unacked == 0)
            assert a.dial_attempts >= 2
            assert a.retransmit_count >= 1
        finally:
            await a.stop()
            server.close()
            await server.wait_closed()

    asyncio.run(go())

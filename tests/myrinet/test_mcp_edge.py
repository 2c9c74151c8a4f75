"""Edge cases in the Myrinet control program."""

import pytest

from repro.network import Packet, PacketKind


def run(cluster, *programs):
    procs = [cluster.sim.process(p) for p in programs]
    cluster.sim.run()
    for proc in procs:
        assert proc.completion.processed


def test_stale_ack_counted(cluster):
    """An ACK for an unknown record must be ignored, not crash."""
    nic1 = cluster.nics[1]
    stray = Packet(
        src=0, dst=1, kind=PacketKind.ACK, size_bytes=8, payload=None, seq=999
    )
    cluster.fabric.transmit(stray)
    cluster.sim.run()
    assert cluster.tracer.counters["gm.ack_stale"] == 1


def test_unknown_packet_kind_counted(cluster):
    stray = Packet(src=0, dst=1, kind=PacketKind.EVENT, size_bytes=8)
    cluster.fabric.transmit(stray)
    cluster.sim.run()
    assert cluster.tracer.counters["gm.rx_unknown_kind"] == 1


def test_peer_declared_dead_after_retry_budget():
    """A message into the void stops retransmitting eventually."""
    from repro.network import FaultInjector
    from tests.myrinet.conftest import TEST_GM, MyrinetTestCluster
    import dataclasses

    gm = dataclasses.replace(TEST_GM, max_retries=3, ack_timeout_us=50.0)
    faults = FaultInjector()
    # Eat every data packet to node 1, including retransmissions.
    faults.drop_all_matching(lambda p: p.kind == PacketKind.DATA and p.dst == 1)
    cluster = MyrinetTestCluster(n=2, gm=gm, faults=faults)

    def sender():
        yield from cluster.ports[0].send(1, 32, payload="doomed")

    proc = cluster.sim.process(sender())
    cluster.sim.run()  # must terminate (no infinite retransmission)
    assert proc.completion.processed
    assert cluster.tracer.counters["gm.peer_dead"] == 1
    assert cluster.tracer.counters["gm.retransmit"] == 3
    assert cluster.nics[0].send_records == {}


def test_engine_command_for_unregistered_group_fails(cluster):
    cluster.nics[0].post_engine_command((42, "start", 0))
    with pytest.raises(KeyError, match="no engine for group 42"):
        cluster.sim.run()


def test_duplicate_engine_registration_rejected(cluster):
    from repro.collectives import NicCollectiveBarrierEngine, ProcessGroup

    group = ProcessGroup([0, 1])
    NicCollectiveBarrierEngine(cluster.nics[0], group, 0)
    with pytest.raises(ValueError, match="already has an engine"):
        NicCollectiveBarrierEngine(cluster.nics[0], group, 0)


def test_unknown_engine_command_fails(cluster):
    from repro.collectives import NicCollectiveBarrierEngine, ProcessGroup

    group = ProcessGroup([0, 1])
    NicCollectiveBarrierEngine(cluster.nics[0], group, 0)
    cluster.nics[0].post_engine_command((group.group_id, "reticulate", 0))
    with pytest.raises(ValueError, match="unknown coll command"):
        cluster.sim.run()


def test_nic_cpu_serializes_rx_and_send(cluster):
    """NIC busy time is the sum of all task costs (single processor)."""

    def sender():
        for i in range(3):
            yield from cluster.ports[0].send(1, 32, payload=i)

    def receiver():
        for _ in range(3):
            yield from cluster.ports[1].recv_from(0)

    run(cluster, sender(), receiver())
    p = cluster.nics[0].params
    send_path = (
        p.t_sdma_event + p.t_token_schedule + p.t_packet_alloc + p.t_fill
        + p.t_send_record + p.t_inject
    )
    # Sender NIC per message: the send path, plus receiving the ACK
    # (header parse + record clear) and passing the token back.
    ack_path = p.t_rx_header + p.t_ack_process + p.t_token_complete
    expected = 3 * (send_path + ack_path)
    assert cluster.nics[0].busy_us == pytest.approx(expected)

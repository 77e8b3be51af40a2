"""Tests for repro.net.packet."""

import dataclasses

import pytest

from repro.net.packet import Packet, PacketKind


def _data_packet(**overrides):
    defaults = dict(
        kind=PacketKind.DATA,
        origin=0,
        seqno=7,
        size_bytes=64,
        updates=(7,),
    )
    defaults.update(overrides)
    return Packet(**defaults)


class TestPacket:
    def test_broadcast_id_is_origin_and_seqno(self):
        packet = _data_packet(origin=3, seqno=9)
        assert packet.broadcast_id == (3, 9)

    def test_duration_at_paper_bit_rate(self):
        # 64 bytes at 19.2 kbps = 26.67 ms (Section 5 numbers).
        packet = _data_packet(size_bytes=64)
        assert packet.duration(19200.0) == pytest.approx(64 * 8 / 19200)

    def test_duration_scales_with_size(self):
        small = _data_packet(size_bytes=32).duration(19200.0)
        large = _data_packet(size_bytes=64).duration(19200.0)
        assert large == pytest.approx(2 * small)

    def test_duration_rejects_bad_bit_rate(self):
        with pytest.raises(ValueError):
            _data_packet().duration(0.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            _data_packet(size_bytes=0)

    def test_frozen(self):
        packet = _data_packet()
        with pytest.raises(AttributeError):
            packet.seqno = 1  # type: ignore[misc]

    def test_fields_are_what_the_simulators_read(self):
        """A frame is its kind, origin, seqno, size and updates, no more.

        A forward re-sends the frame it received, so nothing per hop
        (sender, hop count, identity) lives on it.
        """
        assert [f.name for f in dataclasses.fields(Packet)] == [
            "kind", "origin", "seqno", "size_bytes", "updates",
        ]
        assert [kind.value for kind in PacketKind] == ["data", "beacon", "atim"]

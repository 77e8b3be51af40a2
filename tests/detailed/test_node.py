"""Tests for the SensorNode adapter."""

from repro.energy.model import MICA2, RadioEnergyModel, RadioState
from repro.detailed.node import SensorNode
from repro.net.packet import Packet, PacketKind


class FakeMac:
    def __init__(self):
        self.received = []
        self.collided = []
        self.stats = None

    def handle_receive(self, packet):
        self.received.append(packet)

    def handle_collision(self, packet):
        self.collided.append(packet)


def _packet():
    return Packet(kind=PacketKind.DATA, origin=0, seqno=0, size_bytes=64)


class TestSensorNode:
    def test_listening_delegates_to_radio(self):
        radio = RadioEnergyModel(MICA2)
        node = SensorNode(1, radio, FakeMac())
        assert node.is_listening_interval(0.0, 1.0)
        radio.set_state(RadioState.SLEEP, 2.0)
        assert not node.is_listening_interval(2.0, 3.0)

    def test_receive_delegates_to_mac(self):
        mac = FakeMac()
        node = SensorNode(1, RadioEnergyModel(MICA2), mac)
        packet = _packet()
        node.on_receive(packet)
        assert mac.received == [packet]

    def test_collision_delegates_to_mac(self):
        mac = FakeMac()
        node = SensorNode(1, RadioEnergyModel(MICA2), mac)
        packet = _packet()
        node.on_collision(packet)
        assert mac.collided == [packet]

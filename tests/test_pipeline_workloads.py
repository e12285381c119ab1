"""Tests for the producer-consumer and reader-heavy workloads."""

import pytest

from repro.core.registry import get_primitive
from repro.harness.config import SystemConfig
from repro.harness.experiment import run_workload
from repro.workloads.pipeline import ProducerConsumer, ReaderHeavy


def run(workload, primitive, n):
    return run_workload(workload, SystemConfig(n_processors=n), primitive=primitive)


class TestProducerConsumer:
    @pytest.mark.parametrize("primitive", ["tts", "iqolb", "qolb", "mcs"])
    def test_all_items_flow_exactly_once(self, primitive):
        lock_kind = get_primitive(primitive).lock_kind
        workload = ProducerConsumer(lock_kind=lock_kind, items_per_producer=8)
        run(workload, primitive, 4)  # verify() checks count and checksum

    def test_small_queue_forces_backpressure(self):
        lock_kind = get_primitive("iqolb").lock_kind
        workload = ProducerConsumer(
            lock_kind=lock_kind, items_per_producer=10, queue_capacity=2
        )
        result = run(workload, "iqolb", 4)
        assert result.cycles > 0

    def test_more_consumers_than_producers(self):
        lock_kind = get_primitive("iqolb").lock_kind
        workload = ProducerConsumer(lock_kind=lock_kind, items_per_producer=9)
        run(workload, "iqolb", 5)  # 2 producers, 3 consumers

    def test_checksum_catches_duplication(self):
        workload = ProducerConsumer(items_per_producer=4)
        result = run(workload, "tts", 2)
        # sanity of the oracle itself
        assert workload.expected_checksum() == sum(
            i + 1 for i in range(4)
        )

    def test_needs_two_processors(self):
        workload = ProducerConsumer()
        with pytest.raises(ValueError):
            run(workload, "tts", 1)

    def test_queue_primitive_outperforms_tts(self):
        def fresh(kind):
            return ProducerConsumer(lock_kind=kind, items_per_producer=10,
                                    produce_cycles=40, consume_cycles=40)

        tts = run(fresh("tts"), "tts", 8)
        iqolb = run(fresh("tts"), "iqolb", 8)
        assert iqolb.cycles < tts.cycles


class TestReaderHeavy:
    @pytest.mark.parametrize("primitive", ["tts", "iqolb", "qolb"])
    def test_no_torn_reads(self, primitive):
        lock_kind = get_primitive(primitive).lock_kind
        workload = ReaderHeavy(lock_kind=lock_kind, updates=8,
                               reads_per_reader=12)
        run(workload, primitive, 4)  # verify() checks for torn reads

    def test_verify_rejects_torn_reads(self):
        workload = ReaderHeavy()
        workload.torn_reads.append((1, 2, 1, 1))
        with pytest.raises(AssertionError):
            workload.verify(None)

    def test_needs_two_processors(self):
        with pytest.raises(ValueError):
            run(ReaderHeavy(), "tts", 1)

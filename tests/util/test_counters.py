"""repro.obs.Counters: the one counter type behind every ``*Stats`` class."""

import sys
import threading

import pytest

from repro.obs import Counters, verb


class EngineLike(Counters):
    SUMS = ("threads", "started", "finished", "wait_total")
    MAXIMA = {"wait_max": "wait_total"}
    GAUGE = "live"
    KEEP = ("threads",)

    thread = verb(threads=1)
    up = verb("wait_total", started=1, live=1)
    down = verb(finished=1, live=-1)


class CopyLike(Counters):
    SUMS = ("copied", "transferred")
    PREFIX = "bytes_"
    LABELLED = True


class TestDeclaration:
    def test_recording_an_undeclared_field_raises(self):
        class Wire(Counters):
            SUMS = ("round_trips", "bucket_ops")

        counters = Wire()
        with pytest.raises(TypeError):
            counters.record(round_tripz=1)
        assert counters.snapshot() == {"round_trips": 0, "bucket_ops": 0}

    @pytest.mark.parametrize("spec", [verb("round_tripz"), verb(bucket_opz=1)])
    def test_a_verb_over_an_undeclared_field_fails_the_class(self, spec):
        with pytest.raises(KeyError, match="undeclared"):
            type("Wire", (Counters,), {"SUMS": ("round_trips",), "count": spec})


class TestRecording:
    def test_sums_by_keyword_and_by_position(self):
        class Abc(Counters):
            SUMS = ("a", "b", "c")

        counters = Abc()
        counters.record(a=1, c=5)
        counters.record(2, 3)
        assert (counters.a, counters.b, counters.c) == (3, 3, 5)
        assert counters.snapshot() == {"a": 3, "b": 3, "c": 5}

    def test_a_maximum_keeps_the_largest_single_delta_under_the_prefix(self):
        class Vman(Counters):
            SUMS = ("tickets",)
            MAXIMA = {"max_batch": "tickets"}
            PREFIX = "vman_"

        counters = Vman()
        for batch in (3, 7, 2):
            counters.record(tickets=batch)
        assert counters.max_batch == 7
        assert counters.snapshot() == {"vman_tickets": 12, "vman_max_batch": 7}

    def test_gauge_and_high_water_mark(self):
        counters = EngineLike()
        counters.up(0.25)
        counters.up(0.5)
        counters.down()
        counters.up()
        assert counters.snapshot() == {
            "threads": 0,
            "started": 3,
            "finished": 1,
            "wait_total": 0.75,
            "wait_max": 0.5,
            "live": 2,
            "live_hwm": 2,
        }
        counters.down()
        counters.down()
        assert (counters.live, counters.live_hwm) == (0, 2)


class TestReset:
    def test_reset_keeps_the_survivors_and_the_live_gauge(self):
        counters = EngineLike()
        counters.thread()
        counters.up(0.5)
        counters.up(0.1)
        counters.down()
        counters.reset()
        assert counters.snapshot() == {
            "threads": 1,
            "started": 0,
            "finished": 0,
            "wait_total": 0,
            "wait_max": 0,
            "live": 1,
            "live_hwm": 1,
        }
        counters.down()
        assert (counters.live, counters.live_hwm) == (0, 1)

    def test_reset_drops_the_labels(self):
        counters = CopyLike()
        counters.record("read.gather", copied=4)
        counters.reset()
        assert counters.by_label() == {}
        assert counters.copied == 0


class TestLabels:
    def test_children_sum_to_the_parent_totals(self):
        counters = CopyLike()
        counters.record("read.gather", copied=10, transferred=10)
        counters.record("provider.put", transferred=7)
        counters.record("read.gather", 5, 5)
        children = counters.by_label()
        assert children == {
            "provider.put": {"copied": 0, "transferred": 7},
            "read.gather": {"copied": 15, "transferred": 15},
        }
        assert counters.snapshot() == {
            "bytes_" + field: sum(child[field] for child in children.values())
            for field in ("copied", "transferred")
        }


def test_concurrent_mixed_records_end_with_exact_totals():
    threads, rounds = 8, 10_000
    engine, copies = EngineLike(), CopyLike()
    start = threading.Barrier(threads)

    def work(worker: int) -> None:
        layer = f"layer-{worker % 2}"
        start.wait(10)
        for i in range(rounds):
            engine.up(worker + 1 if i else 100)
            copies.record(layer, copied=worker, transferred=1)
            engine.down()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(w,)) for w in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)

    snap = engine.snapshot()
    assert snap["started"] == snap["finished"] == threads * rounds
    assert snap["wait_total"] == sum((w + 1) * (rounds - 1) + 100 for w in range(threads))
    assert snap["wait_max"] == 100
    assert snap["live"] == 0
    assert 1 <= snap["live_hwm"] <= threads
    copied = rounds * sum(range(threads))
    assert copies.snapshot() == {
        "bytes_copied": copied,
        "bytes_transferred": threads * rounds,
    }
    layers = copies.by_label()
    assert sorted(layers) == ["layer-0", "layer-1"]
    assert sum(layer["copied"] for layer in layers.values()) == copied
    assert sum(layer["transferred"] for layer in layers.values()) == threads * rounds

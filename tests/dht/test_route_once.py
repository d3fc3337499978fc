"""Each batched DHT call routes every distinct key through the ring
exactly once, however many failover rounds it runs."""

import pytest

from repro.dht import DhtStore
from repro.errors import ProviderUnavailable

K = 60


class _Spy:
    """Counts ``replicas`` calls on one ring, delegating to the real one."""

    def __init__(self, ring):
        self.calls = 0
        self._replicas = ring.replicas

    def __call__(self, key, n):
        self.calls += 1
        return self._replicas(key, n)


def _store(replication):
    store = DhtStore([f"mdp-{i}" for i in range(6)], replication=replication)
    keys = [("k", i) for i in range(K)]
    store.multi_put([(key, i) for i, key in enumerate(keys)])
    # Take down the primary of the first key: its keys need another round.
    down = store.owners(keys[0])[0]
    store.fail_bucket(down)
    store.stats.reset()
    spy = _Spy(store.ring)
    store.ring.replicas = spy
    return store, keys, spy, down


def test_multi_get_routes_once_across_failover_rounds():
    store, keys, spy, down = _store(replication=3)
    assert store.multi_get(keys) == {key: i for i, key in enumerate(keys)}
    assert store.stats.snapshot()["round_trips"] == 2
    assert spy.calls == K


def test_multi_get_routes_once_without_a_spare_replica():
    store, keys, spy, down = _store(replication=1)
    with pytest.raises(ProviderUnavailable):
        store.multi_get(keys)
    assert spy.calls == K


@pytest.mark.parametrize("replication", [1, 3])
def test_multi_put_routes_once(replication):
    store, keys, spy, down = _store(replication)
    result = store.multi_put([(key, -1) for key in keys])
    assert spy.calls == K
    if replication == 3:
        assert result.unstored == ()
    else:
        assert set(result.unstored) == {
            key for key in keys if store.owners(key) == (down,)
        }


@pytest.mark.parametrize("replication", [1, 3])
def test_replica_values_route_once(replication):
    store, keys, spy, down = _store(replication)
    store.multi_replica_values(keys)
    assert spy.calls == K

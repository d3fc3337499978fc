"""A greedy tenant beside a polite one, on a virtual clock (DESIGN.md §12).

The ``vclock`` fixture (``conftest.py``) puts the whole gateway on a
clock that moves only when a bucket sleeps.  The bandwidth bound then
holds exactly and no test sleeps.
"""

import pytest

from repro.blob import StoreConfig
from repro.gateway import Gateway, TenantPolicy

#: Both tenants' cap, in bytes per virtual second.
RATE = 1024.0
#: One write: two virtual seconds of tokens at ``RATE``.
PAYLOAD = 2048
ROUNDS = 3


@pytest.mark.parametrize("burst", [PAYLOAD / 4, PAYLOAD / 2])
@pytest.mark.parametrize("greedy_per_round", [2, 4])
def test_greedy_tenant_is_held_to_burst_plus_rate_times_elapsed(
    vclock, greedy_per_round, burst
):
    with Gateway(config=StoreConfig(data_providers=4, block_size=1024)) as gw:

        def connect(tenant, policy):
            return gw.connect(tenant, gw.register_tenant(tenant, policy))

        # The greedy tenant's burst is short of one payload, so each of
        # its writes waits; the polite one banks a whole payload and
        # writes once a round, within its cap.
        greedy = connect("greedy", TenantPolicy(bytes_per_sec=RATE, burst_seconds=burst / RATE))
        polite = connect("polite", TenantPolicy(bytes_per_sec=RATE, burst_seconds=PAYLOAD / RATE))
        data = b"g" * PAYLOAD
        for r in range(ROUNDS):
            for k in range(greedy_per_round):
                greedy.write_file(f"/r{r}w{k}", data)
            polite.write_file(f"/r{r}", data)
        stats = gw.tenant_stats()

    writes = ROUNDS * greedy_per_round
    admitted = stats["greedy"]["bytes_in"]
    assert admitted == writes * PAYLOAD
    assert admitted <= burst + RATE * vclock.now()
    # FIFO reservations: the first write waits out what the burst lacks,
    # every later one a whole payload's worth of refill.
    waits = [(PAYLOAD - burst) / RATE] + [PAYLOAD / RATE] * (writes - 1)
    assert vclock.slept == waits
    assert stats["greedy"]["throttle_wait_s"] == pytest.approx(sum(waits))
    assert stats["polite"]["bytes_in"] == ROUNDS * PAYLOAD
    assert stats["polite"]["throttle_wait_s"] == 0

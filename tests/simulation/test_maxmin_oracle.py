"""The incremental max-min solver against the from-scratch numpy one.

``FlowNetwork`` keeps each link's flows as flows start, complete and
are cancelled, and fills from a ranked walk in pure Python.
``oracle_rates`` below is the solver it replaced, kept as the oracle: it
rebuilds the link index from the flows on every call and runs
vectorised progressive filling with numpy.  The property drives a
network through random arrivals, completions and cancellations, with
per-flow caps and an optional core switch, and checks every solve: the
rates equal the oracle's bit for bit, and the kept incidence and
ranking equal a rebuild from the flows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProviderUnavailable
from repro.simulation import Engine, FlowNetwork

np = pytest.importorskip("numpy")


def oracle_rates(flows):
    """Vectorized progressive filling over *flows* (in order).

    Each round saturates the tightest remaining link (``argmin``: ties
    to the lower link index, numbered by first occurrence), freezing
    every unfrozen flow through it at the link's fair share.
    """
    link_ids = {}
    max_links = 0
    for f in flows:
        max_links = max(max_links, len(f.links))
        for link in f.links:
            if link not in link_ids:
                link_ids[link] = len(link_ids)
    n_links = len(link_ids)
    membership = np.full((len(flows), max_links), -1, dtype=np.int64)
    for i, f in enumerate(flows):
        for j, link in enumerate(f.links):
            membership[i, j] = link_ids[link]
    capacity = np.empty(n_links, dtype=np.float64)
    for link, idx in link_ids.items():
        capacity[idx] = link.capacity
    count = np.zeros(n_links, dtype=np.float64)
    valid = membership >= 0
    np.add.at(count, membership[valid], 1.0)

    rates = np.zeros(len(flows), dtype=np.float64)
    frozen = np.zeros(len(flows), dtype=bool)
    remaining = capacity.copy()
    while not frozen.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(count > 0, remaining / count, math.inf)
        bottleneck = int(np.argmin(shares))
        share = shares[bottleneck]
        assert math.isfinite(share), "progressive filling found no bottleneck"
        hit = (~frozen) & (membership == bottleneck).any(axis=1)
        assert hit.any(), "bottleneck link with no unfrozen flows"
        rates[hit] = share
        frozen |= hit
        used = membership[hit]
        used = used[used >= 0]
        np.subtract.at(remaining, used, share)
        np.subtract.at(count, used, 1.0)
        np.maximum(remaining, 0.0, out=remaining)
    return [float(r) for r in rates]


def check_incidence(net):
    """The kept link -> flows map and ranking equal a rebuild."""
    want = {}
    for flow in net._flows:
        for pos, link in enumerate(flow.links):
            assert link.pos == pos
            want.setdefault(link, []).append(flow)
    entries = []
    for link, flows in want.items():
        assert list(link.flows) == flows
        entries.append((link.capacity / len(flows), flows[0].seq * 4 + link.pos))
    assert [entry[:2] for entry in net._ranked] == sorted(entries)
    assert {entry[2] for entry in net._ranked} == set(want)


def watch_solves(net, solves):
    solve = net._assign_maxmin_rates

    def checked():
        solve()
        check_incidence(net)
        flows = list(net._flows)
        # Same arithmetic in the same order: equal to the last bit.
        assert [f.rate for f in flows] == oracle_rates(flows)
        solves.append(len(flows))

    net._assign_maxmin_rates = checked


OPS = st.one_of(
    st.tuples(
        st.just("start"),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(1, 10_000),
        st.one_of(st.none(), st.integers(5, 500)),
    ),
    st.tuples(st.just("advance")),
    st.tuples(st.just("cancel"), st.integers(0, 5)),
)


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(2, 6))
    egress = [float(draw(st.integers(10, 1000))) for _ in range(n_nodes)]
    ingress = [
        float(draw(st.sampled_from([e, draw(st.integers(10, 1000))]))) for e in egress
    ]
    core = draw(st.one_of(st.none(), st.integers(20, 3000)))
    ops = draw(st.lists(OPS, min_size=1, max_size=40))
    return egress, ingress, core, ops


@given(scenarios())
@settings(max_examples=150)
def test_every_solve_matches_the_from_scratch_oracle(scenario):
    egress, ingress, core, ops = scenario
    engine = Engine()
    net = FlowNetwork(engine, latency=0.0, core_capacity=core)
    n = len(egress)
    for i in range(n):
        net.add_node(f"n{i}", egress=egress[i], ingress=ingress[i])
    solves = []
    watch_solves(net, solves)
    for op in ops:
        if op[0] == "start":
            _, src, dst, size, cap = op
            src, dst = src % n, dst % n
            if src == dst:
                dst = (dst + 1) % n
            done = net.transfer(f"n{src}", f"n{dst}", float(size), rate_cap=cap)
            done.add_callback(lambda _ev: None)  # cancellations are heard
            engine.run(until=engine.now)
        elif op[0] == "advance":
            if engine.peek() < math.inf:
                engine.run(until=engine.peek())
        else:
            net.cancel_node_flows(f"n{op[1] % n}", ProviderUnavailable("down"))
    engine.run()
    assert not net._flows and not net._ranked
    assert len(solves) >= sum(op[0] == "start" for op in ops)


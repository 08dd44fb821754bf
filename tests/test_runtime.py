"""Tests for the asyncio/UDP runtime (same protocols, real sockets)."""

import asyncio

import pytest

from repro.epidemic import AntiEntropy, EagerGossip
from repro.membership import CyclonProtocol
from repro.runtime import AsyncioNode, LocalCluster, localhost_address_book, node_id_for
from repro.store import Memtable, Version, make_tuple


def run(coro):
    return asyncio.run(coro)


class TestAddressing:
    def test_node_id_embeds_port(self):
        node_id = node_id_for("127.0.0.1", 31000)
        assert node_id.value == 31000
        assert localhost_address_book(node_id) == ("127.0.0.1", 31000)


class TestLocalCluster:
    def test_gossip_over_udp(self):
        async def scenario():
            cluster = LocalCluster(
                10,
                lambda node: [CyclonProtocol(view_size=6, shuffle_size=3, period=0.1),
                              EagerGossip(fanout=4)],
                base_port=30100,
            )
            await cluster.start(seed_views=3)
            await cluster.run_for(0.8)
            cluster.nodes[0].protocol("gossip").broadcast("item", {"v": 1})
            await cluster.run_for(0.8)
            reached = sum(1 for n in cluster.nodes if n.protocol("gossip").has_seen("item"))
            cluster.stop()
            return reached

        assert run(scenario()) >= 8

    def test_membership_views_fill(self):
        async def scenario():
            cluster = LocalCluster(
                8,
                lambda node: [CyclonProtocol(view_size=5, shuffle_size=3, period=0.1)],
                base_port=30200,
            )
            await cluster.start(seed_views=2)
            await cluster.run_for(1.2)
            sizes = [len(n.protocol("membership").view) for n in cluster.nodes]
            cluster.stop()
            return sizes

        sizes = run(scenario())
        assert min(sizes) >= 3

    def test_anti_entropy_over_udp(self):
        async def scenario():
            stores = []

            def stack(node):
                store = Memtable()
                stores.append(store)
                return [CyclonProtocol(view_size=5, shuffle_size=3, period=0.1),
                        AntiEntropy(store, period=0.2)]

            cluster = LocalCluster(6, stack, base_port=30300)
            await cluster.start(seed_views=2)
            stores[0].put(make_tuple("k", {"v": "value"}, Version(3, 0)))
            await cluster.run_for(2.0)
            cluster.stop()
            return sum(1 for s in stores if s.digest().get("k") == Version(3, 0).packed())

        assert run(scenario()) == 6

    def test_crash_loses_soft_state_keeps_durable(self):
        async def scenario():
            cluster = LocalCluster(
                2,
                lambda node: [CyclonProtocol(view_size=4, shuffle_size=2, period=0.1)],
                base_port=30400,
            )
            await cluster.start(seed_views=1)
            node = cluster.nodes[0]
            node.durable["disk"] = 42
            await cluster.run_for(0.3)
            node.crash()
            assert not node.running
            await asyncio.sleep(0.1)  # let the transport close release the port
            await node.start()
            survived = node.durable.get("disk")
            cluster.stop()
            return survived

        assert run(scenario()) == 42

    def test_count_validation(self):
        with pytest.raises(ValueError):
            LocalCluster(0, lambda n: [])

    def test_full_datadroplets_stack_over_udp(self):
        """The complete two-layer system on real sockets: storage stack,
        coordinator, client — write, disseminate, sieve, read."""

        async def scenario():
            import random
            from dataclasses import replace

            from repro import DataDropletsConfig
            from repro.core.datadroplets import ClientProtocol
            from repro.core.storage import make_storage_stack
            from repro.runtime import AsyncioNode, node_id_for
            from repro.softstate import (
                ClientGet,
                ClientPut,
                ConsistentHashRing,
                SoftStateProtocol,
            )

            base = 30600
            n_storage = 8
            config = DataDropletsConfig(
                n_storage=n_storage, n_soft=1, replication=3,
                membership_period=0.1, size_estimator_period=0.1,
                pushsum_period=0.2, tman_period=0.2, estimator_epoch=None,
            )
            config = replace(config, soft=replace(config.soft, ack_timeout=0.8, read_timeout=0.8))
            storage_ids = [node_id_for("127.0.0.1", base + i) for i in range(n_storage)]
            factory = make_storage_stack(config)
            storage = [AsyncioNode(base + i, factory, seed=4) for i in range(n_storage)]
            ring = ConsistentHashRing(8)
            soft = AsyncioNode(base + 50,
                               lambda node: [SoftStateProtocol(ring, lambda: list(storage_ids), config.soft)],
                               seed=4)
            client_node = AsyncioNode(base + 51, lambda node: [ClientProtocol()], seed=4)
            for node in storage:
                await node.start()
            await soft.start()
            ring.add(soft.node_id)
            await client_node.start()
            rng = random.Random(2)
            for node in storage:
                peers = [p for p in storage_ids if p != node.node_id]
                node.protocol("membership").seed(rng.sample(peers, 3))
            await asyncio.sleep(1.2)

            client = client_node.protocol("client")

            async def call(message):
                client_node.send(soft.node_id, "soft", message)
                for _ in range(80):
                    await asyncio.sleep(0.05)
                    reply = client.replies.pop(message.request_id, None)
                    if reply is not None:
                        return reply
                raise TimeoutError(message.request_id)

            put = await call(ClientPut("w1", "k", {"v": 1}))
            assert put.ok
            await asyncio.sleep(0.8)
            got = await call(ClientGet("r1", "k"))
            copies = sum(1 for n in storage if "k" in n.durable["memtable"])
            for node in storage + [soft, client_node]:
                node.stop()
            return got.value, copies

        value, copies = run(scenario())
        assert value == {"v": 1}
        assert copies >= 1

    def test_timers_die_on_crash(self):
        async def scenario():
            fired = []
            cluster = LocalCluster(
                1, lambda node: [CyclonProtocol(view_size=4, shuffle_size=2, period=0.1)],
                base_port=30500,
            )
            await cluster.start(seed_views=0)
            node = cluster.nodes[0]
            node.set_timer(0.2, lambda: fired.append("x"))
            node.crash()
            await asyncio.sleep(0.4)
            return fired

        assert run(scenario()) == []

"""E16 — Runtime wire cost: binary codec + datagram coalescing vs JSON.

The epidemic substrate's real-network cost is per-round bytes and
syscalls. The asyncio runtime used to encode every message as tagged
JSON and fire one UDP datagram per ``send()``; the binary codec removes
field names and JSON structure from the wire, and per-destination
coalescing packs a relay burst into MTU-sized datagrams. JSON is now a
baseline under ``repro.baselines``, not a format a node speaks: its row
is computed from the same send schedule (bytes = encoded length,
datagrams = sends), the binary rows run on sockets.

* E16a: bytes/message and datagrams for one deterministic gossip round
  (fanout 8). Acceptance gate: the binary+coalescing path ships >= 2x
  fewer payload bytes per message and >= 2x fewer datagrams than JSON
  without coalescing, and delivers the same message multiset as binary
  without coalescing (same behaviour, cheaper wire).
* E16b: encode/decode throughput per codec (registry-driven frames).
"""

from repro.baselines import jsonwire
from repro.common.codec import BinaryCodec
from repro.runtime import wirebench
from repro.runtime.wirebench import codec_throughput, json_wire_cost, measure_wire_cost

from _helpers import print_table, run_once, stash


def test_e16_bytes_and_datagrams(benchmark):
    def experiment():
        cells = [json_wire_cost(base_port=33400)]
        base_port = 33400
        for coalesce in (False, True):
            cells.append(measure_wire_cost(coalesce=coalesce, base_port=base_port))
            base_port += 40
        rows = [
            (cell["codec"], cell["coalesce"], cell["bytes_per_message"],
             cell["datagrams"], cell["wire_bytes"], cell["coalesced_messages"],
             cell.get("delivered_messages", "n/a"))
            for cell in cells
        ]
        print_table(
            "E16a — one gossip round (60 messages x fanout 8, 12 UDP nodes)",
            ["codec", "coalesce", "B/msg", "datagrams", "wire B",
             "coalesced", "delivered"],
            rows,
        )
        return cells

    cells = run_once(benchmark, experiment)
    stash(benchmark, "wire_grid", [
        {k: v for k, v in cell.items() if k != "delivered"} for cell in cells
    ])
    # Acceptance gates: >= 2x payload-byte and >= 2x datagram reduction,
    # and identical protocol behaviour: batching must not change what
    # gets delivered, only what it costs.
    gates = wirebench.gates(cells)
    assert all(gates.values()), gates


def test_e16_codec_throughput(benchmark):
    def experiment():
        rows = []
        for name, codec in (("json", jsonwire.Codec()), ("binary", BinaryCodec())):
            tput = codec_throughput(codec)
            rows.append((name, tput["encode_msgs_per_s"],
                         tput["decode_msgs_per_s"], tput["bytes_per_frame"]))
        print_table(
            "E16b — codec throughput (2000 standalone frames)",
            ["codec", "encode msg/s", "decode msg/s", "B/frame"],
            rows,
        )
        return rows

    rows = run_once(benchmark, experiment)
    stash(benchmark, "throughput", [
        dict(zip(["codec", "encode", "decode", "bytes"], r)) for r in rows
    ])
    json_row = next(r for r in rows if r[0] == "json")
    binary_row = next(r for r in rows if r[0] == "binary")
    # The binary frame must be at least 2x smaller than the JSON frame.
    assert json_row[3] / binary_row[3] >= 2.0

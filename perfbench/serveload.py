"""The ``serve-mixed`` traffic: a seeded request stream, closed loop.

Requests carry real corpus blocks, and each takes one of the daemon's
three answer paths, in equal shares:

- **novel**: one block the daemon has not seen, which it profiles;
- **store**: two blocks it has profiled, in a pairing never sent
  before, so the request misses the request memo and the engine loads
  both one-block shards from the shard store;
- **memo**: a verbatim repeat of an earlier request, which the daemon
  answers from its request journal (``cached: true``).

The equal split is a chosen operating point, not a measured one: no
documented serve traffic mix exists.  With the paths ordered memo <
store < novel by cost, the median request is a store hit and the p99
is a novel one, so a change to any path moves a reported metric.

Each client thread sends its next request only after the previous one
is answered, and holds back a request until the earlier requests it
depends on are answered, so every store and memo request really hits.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple


def block_key(text: str) -> str:
    """Reference-table key of one block text."""
    return f"{zlib.crc32(text.encode()):08x}"


def request_stream(pool_size: int, seed: int) -> List[List[int]]:
    """Requests (lists of pool indices) that profile the whole pool once.

    Every block of the pool is novel exactly once, in a seeded order;
    each novel request is matched by one store and one memo request at
    seeded places.  So every seed sends the same number of requests of
    each kind and does the same profiling work.
    """
    rng = random.Random(seed)
    order = list(range(pool_size))
    rng.shuffle(order)
    left = {"novel": pool_size, "store": pool_size, "memo": pool_size}
    seen: List[int] = []
    pairs: Set[Tuple[int, int]] = set()
    requests: List[List[int]] = []
    while any(left.values()):
        kinds = [k for k, n in left.items() if n and (
            k == "novel" or (k == "memo" and requests)
            or (k == "store" and len(seen) * (len(seen) - 1) > len(pairs)))]
        kind = rng.choices(kinds, weights=[left[k] for k in kinds])[0]
        left[kind] -= 1
        if kind == "novel":
            seen.append(order.pop())
            requests.append([seen[-1]])
        elif kind == "memo":
            requests.append(list(rng.choice(requests)))
        else:
            pair = tuple(rng.sample(seen, 2))
            while pair in pairs:
                pair = tuple(rng.sample(seen, 2))
            pairs.add(pair)
            requests.append(list(pair))
    return requests


def dependencies(requests: Sequence[Sequence[int]]) -> List[List[int]]:
    """For each request, the earlier requests that must be answered first.

    A request depends on the first earlier request with the same blocks
    (the one a memo hit replays) and on the first earlier request that
    carried each of its blocks (the one that stored it).
    """
    first_request: Dict[Tuple[int, ...], int] = {}
    first_block: Dict[int, int] = {}
    deps: List[List[int]] = []
    for i, request in enumerate(requests):
        key = tuple(request)
        mine = {first_request[key]} if key in first_request else set()
        mine |= {first_block[b] for b in request if b in first_block}
        deps.append(sorted(mine))
        first_request.setdefault(key, i)
        for block in request:
            first_block.setdefault(block, i)
    return deps


def expected_result(entry: Optional[str]) -> Optional[Dict]:
    """The response entry the reference table records for a block."""
    if entry is None:
        return None
    if entry.startswith("dropped:"):
        return {"status": "dropped", "reason": entry[len("dropped:"):]}
    return {"status": "ok", "throughput": float(entry)}


def drive(client_factory, texts: Sequence[str],
          requests: Sequence[Sequence[int]], reference: Dict[str, str],
          clients: int, uarch: str, deadline: float) -> Dict:
    """Send every request from ``clients`` closed-loop threads.

    No request is sent after the monotonic ``deadline``; the ones left
    unsent are not attempted.  A request's latency is timed from when
    it is sent, after any wait for its dependencies.

    Returns the monotonic (sent, answered) span of every request, the
    load's start and end, and counts of attempted, failed (transport
    error, non-200 or a result that differs from ``reference``), cached
    and block totals.
    """
    lock = threading.Lock()
    cursor = [0]
    answered = [threading.Event() for _ in requests]
    deps = dependencies(requests)
    spans: List[Tuple[float, float]] = []
    tally = {"attempted": 0, "failed": 0, "cached": 0, "blocks": 0}
    problems: List[str] = []

    def worker(index: int) -> None:
        client = client_factory()
        while True:
            with lock:
                i = cursor[0]
                if i >= len(requests) or time.monotonic() > deadline:
                    return
                cursor[0] += 1
            try:
                # Dependencies were claimed earlier, so they end.
                for j in deps[i]:
                    answered[j].wait()
                blocks = [texts[j] for j in requests[i]]
                start = time.monotonic()
                try:
                    response = client.profile(blocks, uarch=uarch,
                                              client=f"c{index}")
                    status, body = response.status, response.body
                except Exception as exc:  # any transport failure counts
                    status, body = 0, {"error": repr(exc)}
                span = (start, time.monotonic())
            finally:
                answered[i].set()
            bad = status != 200 or [
                expected_result(reference.get(block_key(t)))
                for t in blocks] != body.get("results")
            with lock:
                spans.append(span)
                tally["attempted"] += 1
                if bad:
                    tally["failed"] += 1
                    if len(problems) < 5:
                        problems.append(f"request {i}: status {status} "
                                        f"{str(body)[:200]}")
                else:
                    tally["blocks"] += len(blocks)
                    tally["cached"] += bool(body.get("cached"))

    threads = [threading.Thread(target=worker, args=(k,), daemon=True)
               for k in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    return {"spans": spans, "start": start, "end": end,
            "problems": problems, **tally}

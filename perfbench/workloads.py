"""Seeded closed-loop workloads for the serving benchmark.

A workload is a fixed number of clients, each with its own ordered list of
requests, plus optional *primers*: prompts whose KV pages are resident
when a round starts (a system prompt already in the cache).  A client submits its first request when a round starts and its
next one from the previous request's final ``on_token(..., done=True)``
callback (closed loop).  Every request runs to exactly ``max_new_tokens``
(no EOS), so the scheduler's iteration and admission schedule depends only
on the request lists, never on machine speed.  The inputs depend only on
the workload name and the seed; the seed sets token values only, so every
seed of a workload does the same amount of work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Request", "WORKLOADS", "WorkloadSpec", "make_primers",
           "make_round", "truncate"]

VOCAB = 512


@dataclass(frozen=True)
class Request:
    prompt: tuple[int, ...]
    max_new_tokens: int


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    clients: int
    requests_per_client: int
    max_active: int


WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec(
            "decode_b8",
            "8 clients, unique 16-token prompts, 64 new tokens: decode-bound "
            "batch-8 GEMMs over a growing KV cache, no shared prefix",
            clients=8, requests_per_client=1, max_active=8),
        WorkloadSpec(
            "shared_prefix",
            "8 clients, one of two cached 96-token system prompts plus a "
            "unique 8-16 token suffix, 4-8 new tokens: prefill waves that "
            "map shared KV pages",
            clients=8, requests_per_client=2, max_active=8),
    )
}

SYSTEM_PROMPT_LEN = 96
# Per-request suffix lengths and output lengths of a shared_prefix round.
# They are fixed, not drawn from the seed, so every seed does the same work
# and only token values change.
SHARED_SUFFIX_LENS = (8, 13, 16, 10, 12, 9, 15, 11, 14, 8, 10, 16, 9, 12, 11, 13)
SHARED_NEW_TOKENS = (4, 7, 5, 8, 6, 4, 8, 5, 6, 8, 4, 7, 5, 6, 7, 4)


def _unique_prompts(rng: np.random.Generator, count: int,
                    length: int) -> list[tuple[int, ...]]:
    """``count`` random prompts whose first tokens all differ, so no two
    share even one KV page."""
    firsts = rng.permutation(VOCAB)[:count]
    return [(int(first), *(int(t) for t in rng.integers(0, VOCAB, length - 1)))
            for first in firsts]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def make_primers(name: str, seed: int) -> list[tuple[int, ...]]:
    """Prompts whose pages are resident when each round starts."""
    if name != "shared_prefix":
        return []
    return _unique_prompts(_rng(name, seed), 2, SYSTEM_PROMPT_LEN)


def make_round(name: str, seed: int) -> list[list[Request]]:
    """Per-client request lists of one round of workload ``name``."""
    spec = WORKLOADS[name]
    rng = _rng(name, seed)
    total = spec.clients * spec.requests_per_client
    if name == "decode_b8":
        requests = [Request(p, 64) for p in _unique_prompts(rng, total, 16)]
    else:  # shared_prefix
        systems = _unique_prompts(rng, 2, SYSTEM_PROMPT_LEN)  # = make_primers
        requests = [
            Request(systems[i % 2] + tuple(int(t) for t in rng.integers(
                0, VOCAB, SHARED_SUFFIX_LENS[i])), SHARED_NEW_TOKENS[i])
            for i in range(total)]
    per = spec.requests_per_client
    return [requests[c * per:(c + 1) * per] for c in range(spec.clients)]


def truncate(plan: list[list[Request]], max_new_tokens: int
             ) -> list[list[Request]]:
    """Each client's first request only, capped at ``max_new_tokens`` (the
    warm-up pass: every GEMM shape of the round, a fraction of the time)."""
    return [[Request(reqs[0].prompt, min(reqs[0].max_new_tokens,
                                         max_new_tokens))]
            for reqs in plan]

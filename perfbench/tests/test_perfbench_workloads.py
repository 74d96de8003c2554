"""The seeded workload generator: same seed, same inputs."""

import pytest

from perfbench.workloads import (
    SYSTEM_PROMPT_LEN,
    WORKLOADS,
    make_primers,
    make_round,
    truncate,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_round(name):
    assert make_round(name, 7) == make_round(name, 7)
    assert make_primers(name, 7) == make_primers(name, 7)
    assert make_round(name, 7) != make_round(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_shape_matches_spec(name):
    spec = WORKLOADS[name]
    plan = make_round(name, 3)
    assert len(plan) == spec.clients
    assert all(len(reqs) == spec.requests_per_client for reqs in plan)
    prompts = [req.prompt for reqs in plan for req in reqs]
    # Every request fits the model's 128-position context.
    assert all(len(req.prompt) + req.max_new_tokens - 1 <= 128
               for reqs in plan for req in reqs)
    assert len(set(prompts)) == len(prompts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_tokens_not_shapes(name):
    def shapes(seed):
        return [[(len(r.prompt), r.max_new_tokens) for r in reqs]
                for reqs in make_round(name, seed)]
    assert shapes(1) == shapes(2)


def test_decode_b8_prompts_share_no_page():
    firsts = [req.prompt[0] for reqs in make_round("decode_b8", 5)
              for req in reqs]
    assert len(set(firsts)) == len(firsts)
    assert make_primers("decode_b8", 5) == []


def test_shared_prefix_requests_extend_a_primer():
    systems = make_primers("shared_prefix", 11)
    assert len(systems) == 2 and systems[0][0] != systems[1][0]
    for reqs in make_round("shared_prefix", 11):
        for req in reqs:
            assert req.prompt[:SYSTEM_PROMPT_LEN] in systems
            assert 8 <= len(req.prompt) - SYSTEM_PROMPT_LEN <= 16
            assert 4 <= req.max_new_tokens <= 8


def test_truncate_keeps_first_request_per_client():
    plan = make_round("decode_b8", 2)
    warm = truncate(plan, 4)
    assert len(warm) == len(plan)
    assert [w[0].prompt for w in warm] == [p[0].prompt for p in plan]
    assert all(len(w) == 1 and w[0].max_new_tokens == 4 for w in warm)

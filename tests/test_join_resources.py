"""Aggregator resource requests of native joins.

Ray 2.49 sizes each join aggregator's logical ``memory`` reservation from a
placeholder (7 x ``target_max_block_size`` per partition), and every join
pool of a plan is placed at once; a plan whose pools ask for more ``memory``
than the cluster has hangs without an error. This checks, without executing
anything, that the join operators the planner builds from ``hash_join``
carry the engine's aggregator args and that the whole plan's reservation
fits the cluster. The physical operators are inspected through Ray
internals on purpose: if an upgrade renames them, or stops forwarding
``aggregator_ray_remote_args`` to the operator, this test fails loudly.
"""

from __future__ import annotations

import pytest
import ray
import ray.data as rd

from pero_ocr_ray.functions.join import hash_join, join_aggregator_args
from pero_ocr_ray.util import shuffle_partitions


def _join_operators(ds: rd.Dataset) -> list:
    from ray.data._internal.execution.operators.join import JoinOperator
    from ray.data._internal.logical.optimizers import get_execution_plan
    seen, stack, joins = set(), [get_execution_plan(ds._logical_plan).dag], []
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, JoinOperator):
            joins.append(op)
        stack.extend(op.input_dependencies)
    return joins


# None: the default sizing at this session's CPUs; 64: the
# shuffle_partitions cap, what the default resolves to on a 64-CPU cluster;
# 128: more partitions than Ray's 64 aggregators, two per aggregator
@pytest.mark.parametrize("num_partitions", [None, 64, 128])
def test_join_pools_reserve_no_unplaceable_memory(num_partitions):
    left = rd.from_items([{"k": i, "a": i} for i in range(8)])
    mid = rd.from_items([{"k": i, "b": i} for i in range(8)])
    right = rd.from_items([{"k": i, "c": i} for i in range(8)])
    # two chained joins: both pools are placed together at execution start
    ds = hash_join(hash_join(left, mid, "k", num_partitions=num_partitions),
                   right, "k", num_partitions=num_partitions)

    joins = _join_operators(ds)
    assert len(joins) == 2
    expected_partitions = num_partitions or shuffle_partitions()
    reserved = 0
    for op in joins:
        pool = op._aggregator_pool
        args = pool._aggregator_ray_remote_args
        assert pool.num_partitions == expected_partitions
        # the engine's args reached the operator, not Ray's defaults
        for key, value in join_aggregator_args(expected_partitions).items():
            assert args[key] == value, (key, args)
        # ...and keep Ray's own CPU sizing and placement
        ray_default = op._get_default_aggregator_ray_remote_args(
            num_partitions=pool.num_partitions,
            num_aggregators=pool.num_aggregators)
        assert args["num_cpus"] == ray_default["num_cpus"]
        assert args["scheduling_strategy"] == ray_default["scheduling_strategy"]
        reserved += args.get("memory", 0) * pool.num_aggregators
    assert reserved <= ray.cluster_resources().get("memory", 0)

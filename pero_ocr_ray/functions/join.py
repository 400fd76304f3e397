"""Joins: native hash join + explicit partitioned fallback.

Two implementations of the inner equi-join (J3 analog, SURVEY §2.4):

* :func:`hash_join` — Ray Data's native ``Dataset.join`` (hash-partitioned
  on the key, both sides shuffled into ``num_partitions`` aggregators).
* :func:`grouped_join` — the portable explicit pattern for engines/versions
  without a join operator: tag each side, align schemas, union, one
  ``groupby(key)`` shuffle, and a pandas merge within each key group.
  Partitioning assumption: all rows of one key fit in one group (salt hot
  keys into sub-buckets before calling when that's not true).
"""

from __future__ import annotations

import math

import pandas as pd

import ray.data as rd


def join_aggregator_args(num_partitions: int) -> dict:
    """``ray.remote`` args for the aggregator actors of a native join with
    ``num_partitions`` partitions: Ray's own join CPU sizing for a cluster
    without an autoscaler config (0.125 CPU per partition, scaled by the
    partitions each aggregator serves), ``SPREAD`` placement, and NO
    logical ``memory`` reservation (see :func:`hash_join`)."""
    ctx = rd.DataContext.get_current()
    # same aggregator count and per-partition CPU rule as Ray's
    # HashShufflingOperatorBase / JoinOperator defaults
    num_aggregators = min(num_partitions, ctx.max_hash_shuffle_aggregators
                          or ctx.default_hash_shuffle_parallelism)
    cpus_per_partition = (ctx.join_operator_actor_num_cpus_per_partition_override
                          or 0.125)
    return {
        "num_cpus": (cpus_per_partition
                     * math.ceil(num_partitions / num_aggregators)),
        "memory": 0,
        "scheduling_strategy": "SPREAD",
    }


def hash_join(left: rd.Dataset, right: rd.Dataset, on: str,
              right_on: str | None = None, num_partitions: int | None = None,
              join_type: str = "inner") -> rd.Dataset:
    """Native hash join. ``num_partitions`` defaults to the cluster CPU
    count (capped 2..64): each partition runs a HashShuffleAggregator
    actor, and over-provisioning aggregators beyond the CPUs deadlocks
    small clusters when composed with actor-pool stages (observed at 16
    partitions on 4 cpus).

    The engine sets the aggregators' resource request itself
    (:func:`join_aggregator_args`) instead of leaving it to Ray. Left to
    itself, Ray 2.49 reserves logical ``memory`` for every aggregator from
    a placeholder, not from the data: 7 x ``target_max_block_size``
    (896 MiB at the 128 MiB default) per partition. Every join pool of a
    plan is placed at once when execution starts, and Ray only logs a
    warning when a pool cannot fit, so a memory reservation the node
    cannot hold hangs the job with idle CPUs (32 partitions ask for 28 GiB;
    a 15 GiB box offers ~10 GiB of ``memory``). The engine's request keeps
    Ray's CPU sizing for a cluster without an autoscaler config (there Ray
    would ask for min(1, CPU / 2 / partitions) per partition instead) and
    ``SPREAD`` placement, and reserves no memory.

    On a real multi-node cluster pass an explicit larger
    ``num_partitions`` sized to total cores; the per-partition CPU request
    and the aggregator count follow Ray's ``DataContext`` settings
    (``join_operator_actor_num_cpus_per_partition_override``,
    ``max_hash_shuffle_aggregators``), which :func:`join_aggregator_args`
    reads."""
    from pero_ocr_ray.util import arrow_meta_free, shuffle_partitions
    if num_partitions is None:
        num_partitions = shuffle_partitions()

    # Normalize both sides to Arrow blocks with hashable schemas (pandas
    # metadata makes every aggregator task warn + skip schema dedup).
    left = arrow_meta_free(left)
    right = arrow_meta_free(right)
    return left.join(right, join_type=join_type, num_partitions=num_partitions,
                     on=(on,), right_on=(right_on or on,),
                     aggregator_ray_remote_args=join_aggregator_args(
                         num_partitions))


def asof_join(left: rd.Dataset, right: rd.Dataset, key: str, ts: str,
              right_cols: list[str] | None = None,
              suffix: str = "_right") -> rd.Dataset:
    """As-of join: each left row matches the latest right row with the same
    ``key`` and ``right.ts <= left.ts`` (backward search, the market-data /
    event-attribution semantics; DuckDB's ``ASOF JOIN`` equivalent).

    Shape: tag sides, align schemas, union, ONE hash shuffle on ``key``,
    then ``pd.merge_asof`` over the ts-sorted group — the composition the
    Dataset API can't express directly (SURVEY custom-operator rule (a)).
    Partitioning assumption: one key's rows fit in one group; salt hot keys
    upstream if not. Inner semantics: left rows with no prior right row are
    dropped (matches SQL ASOF JOIN)."""
    lcols = left.schema().names
    rcols = right_cols or [c for c in right.schema().names
                           if c not in (key, ts)]

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        out = df[lcols].copy()
        out["__side"] = 0
        for c in rcols:
            out[c + suffix] = None
        out[ts + suffix] = None
        return out

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key: df[key]})
        out[ts] = df[ts]
        out["__side"] = 1
        for c in lcols:
            if c not in (key, ts):
                out[c] = None
        for c in rcols:
            out[c + suffix] = df[c]
        out[ts + suffix] = df[ts]
        return out[[*lcols, "__side",
                    *[c + suffix for c in rcols], ts + suffix]]

    unioned = (left.map_batches(tag_left, batch_format="pandas")
               .union(right.map_batches(tag_right, batch_format="pandas")))

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0][[*lcols]].sort_values(ts, kind="mergesort")
        rsub = g[g["__side"] == 1]
        empty = pd.DataFrame({c: pd.Series([], dtype="object")
                              for c in [*lcols,
                                        *[c + suffix for c in rcols],
                                        ts + suffix]})
        if lg.empty or rsub.empty:
            return empty
        rg = pd.DataFrame({ts: rsub[ts + suffix]})
        for c in rcols:
            rg[c + suffix] = rsub[c + suffix].values
        rg[ts + suffix] = rsub[ts + suffix].values
        # secondary sort on the payload columns: among right rows tying on
        # ts, merge_asof takes the LAST, so without a deterministic tie
        # order the surviving payload would depend on shuffle arrival
        # order (ids-always-break-ties invariant). Documented rule: the
        # lexicographically largest payload tuple wins.
        rg = rg.sort_values([ts, *[c + suffix for c in rcols]],
                            kind="mergesort")
        merged = pd.merge_asof(lg, rg, on=ts, direction="backward")
        merged = merged.dropna(subset=[ts + suffix])  # inner semantics
        return merged

    return unioned.groupby(key).map_groups(join_group, batch_format="pandas")


def grouped_join_salted(left: rd.Dataset, right: rd.Dataset, on: str,
                        right_on: str | None = None,
                        salts: int = 8) -> rd.Dataset:
    """Hot-key-safe :func:`grouped_join`, EXACTLY the same result set.

    The plain grouped join assumes one key's rows fit in one group; a
    pathological key (one user with millions of rows) breaks that. Here
    the shuffle keys on (key, salt): left rows are spread round-robin over
    ``salts`` sub-buckets (deterministic cycling index — the output row
    SET is invariant to the assignment) and each right row is REPLICATED
    into every sub-bucket, so any group holds ~1/salts of a hot key's left
    rows plus all its right matches. Cost: right side shuffled ``salts``
    times — the standard skew trade (mirrors sessionize_bucketed's
    two-phase escape hatch)."""
    import numpy as np
    right_on = right_on or on
    lcols = left.schema().names
    rcols = [c for c in right.schema().names if c != right_on]
    overlap = (set(lcols) - {on}) & set(rcols)
    if overlap:
        # the tag/union encoding carries left and right values in the SAME
        # columns — a shared non-key name would silently null the right
        # side; fail loudly instead (rename upstream, or use hash_join,
        # which suffixes)
        raise ValueError(
            f"left and right share non-key column(s) {sorted(overlap)}; "
            f"rename them before the grouped join or use hash_join")

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__key"] = df[on]
        df["__salt"] = np.arange(len(df), dtype=np.int64) % salts
        df["__side"] = 0
        for c in rcols:
            df[c] = None
        return df

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        reps = []
        for s in range(salts):
            out = pd.DataFrame({c: df[c] for c in rcols})
            out["__key"] = df[right_on]
            out["__salt"] = s
            out["__side"] = 1
            for c in lcols:
                out[c] = None
            reps.append(out[[*lcols, "__key", "__salt", "__side", *rcols]])
        return pd.concat(reps, ignore_index=True)

    unioned = (left.map_batches(tag_left, batch_format="pandas")
               .union(right.map_batches(tag_right, batch_format="pandas")))

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0][[*lcols]]
        rg = (g[g["__side"] == 1][[*rcols]]
              .assign(__k=g.loc[g["__side"] == 1, "__key"]))
        if lg.empty or rg.empty:
            return pd.DataFrame({c: pd.Series([], dtype="object")
                                 for c in [*lcols, *rcols]})
        return lg.merge(rg, left_on=on, right_on="__k").drop(columns="__k")

    return unioned.groupby(["__key", "__salt"]).map_groups(
        join_group, batch_format="pandas")


def asof_join_bucketed(left: rd.Dataset, right: rd.Dataset, key: str,
                       ts: str, right_cols: list[str] | None = None,
                       suffix: str = "_right",
                       bucket_freq: str = "D") -> rd.Dataset:
    """Hot-key-safe :func:`asof_join`, EXACTLY the same result set.

    Two-phase (the sessionize_bucketed pattern): the heavy shuffle keys on
    (key, time bucket) — bounded groups regardless of key heat — and each
    bucket resolves its own left rows by an in-bucket merge_asof. A left
    row with no in-bucket predecessor becomes *pending*; each (key,
    bucket) also emits one summary row (its max-ts right row). A second,
    small per-key pass matches every pending row to the latest summary
    from an EARLIER bucket — exact, because any right row in an earlier
    bucket precedes every ts in this bucket.

    Bounded-group assumption: per (key, bucket) activity fits one group,
    and the pending set per bucket is only the left rows before that
    bucket's first right row (small when right events are at least as
    frequent as the bucket size; pick ``bucket_freq`` accordingly)."""
    rcols = right_cols or [c for c in right.schema().names
                           if c not in (key, ts)]
    lcols = left.schema().names
    out_cols = [*lcols, *[c + suffix for c in rcols], ts + suffix]

    def add_bucket(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["__bucket"] = (pd.to_datetime(out[ts]).dt.floor(bucket_freq)
                               .astype("datetime64[us]"))
            out["__side"] = side
            return out
        return fn

    lb = left.map_batches(add_bucket(0), batch_format="pandas")
    rb = (right.map_batches(add_bucket(1), batch_format="pandas")
          .map_batches(lambda df: df[[key, ts, *rcols,
                                      "__bucket", "__side"]],
                       batch_format="pandas"))

    # phase-1 output schema: lineage marker + key/bucket + left columns
    # (null on summaries) + right columns under a __r suffix (null on
    # pendings) — right values never collide with same-named left columns
    r_ts = ts + "__r"
    r_of = {c: c + "__r" for c in rcols}
    p1_cols = ["__kind", key, "__bucket",
               *[c for c in lcols if c != key],
               *r_of.values(), r_ts]

    def _empty_p1() -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype="object")
                             for c in p1_cols})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0][[*lcols]].sort_values(ts, kind="mergesort")
        rsub = g[g["__side"] == 1]
        frames = []
        kval = g[key].iloc[0]
        bval = g["__bucket"].iloc[0]
        rg = None
        if not rsub.empty:
            rg = pd.DataFrame({r_ts: rsub[ts].values})
            for c in rcols:
                rg[r_of[c]] = rsub[c].values
            # same deterministic tie rule as asof_join: equal-ts right
            # rows order by payload tuple, so both the iloc[-1] summary
            # and merge_asof's last-wins pick are shuffle-order-invariant
            rg = rg.sort_values([r_ts, *r_of.values()], kind="mergesort")
            summary = rg.iloc[[-1]].copy()
            summary["__kind"] = "summary"
            summary[key] = kval
            summary["__bucket"] = bval
            frames.append(summary)
        if not lg.empty:
            if rg is None:
                pend = lg.copy()
                pend["__kind"] = "pending"
            else:
                m = pd.merge_asof(lg, rg, left_on=ts, right_on=r_ts,
                                  direction="backward")
                pend = m[m[r_ts].isna()][[*lcols]].copy()
                pend["__kind"] = "pending"
                matched = m.dropna(subset=[r_ts]).copy()
                matched["__kind"] = "match"
                matched["__bucket"] = bval
                frames.append(matched)
            pend["__bucket"] = bval
            frames.append(pend)
        if not frames:
            return _empty_p1()
        out = pd.concat(frames, ignore_index=True)
        for c in p1_cols:
            if c not in out.columns:
                out[c] = None
        return out[p1_cols]

    phase1 = (lb.union(rb).groupby([key, "__bucket"])
              .map_groups(per_bucket, batch_format="pandas"))

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        import numpy as np
        out_rows = []
        for _, r in g[g["__kind"] == "match"].iterrows():
            row = {c: r[c] for c in lcols}
            for c in rcols:
                row[c + suffix] = r[r_of[c]]
            row[ts + suffix] = r[r_ts]
            out_rows.append(row)
        pend = g[g["__kind"] == "pending"]
        summaries = (g[g["__kind"] == "summary"]
                     .sort_values("__bucket", kind="mergesort"))
        if len(pend) and len(summaries):
            sb = pd.to_datetime(summaries["__bucket"]).to_numpy()
            pb = pd.to_datetime(pend["__bucket"]).to_numpy()
            idx = np.searchsorted(sb, pb, side="left") - 1  # latest earlier
            for (_, r), i in zip(pend.iterrows(), idx):
                if i < 0:
                    continue  # no earlier right row: inner semantics drop
                s = summaries.iloc[i]
                row = {c: r[c] for c in lcols}
                for c in rcols:
                    row[c + suffix] = s[r_of[c]]
                row[ts + suffix] = s[r_ts]
                out_rows.append(row)
        if not out_rows:
            return pd.DataFrame({c: pd.Series([], dtype="object")
                                 for c in out_cols})
        return pd.DataFrame(out_rows)[out_cols]

    return phase1.groupby(key).map_groups(per_key, batch_format="pandas")


def grouped_join(left: rd.Dataset, right: rd.Dataset, on: str,
                 right_on: str | None = None) -> rd.Dataset:
    """Portable explicit equi-join: the ``salts=1`` case of
    :func:`grouped_join_salted` (one sub-bucket per key = the plain
    tag/union/groupby/merge pattern, no replication)."""
    return grouped_join_salted(left, right, on, right_on, salts=1)

"""Deduplication operators over a ``documents`` table.

Shapes (all hash-partitioned on content keys, no driver-side row loops):

* exact: md5 content hash -> per-batch (hash, min id, count) combiner ->
  groupby(hash).aggregate(Min, Sum); survivor rows via winner-id semi-join;
* MinHash-LSH near-dup: signature per doc (actor pool) -> explode to
  (band_key, doc_id, signature) -> groupby(band_key) -> candidate pairs with
  signature-estimated Jaccard -> pair dedup -> drop the larger id of each
  confirmed pair;
* SimHash: 64-bit signatures + banded prefix blocking for hamming<=N pairs;
* embedding cosine near-dup: see functions/similarity.py.

Scale notes: the only shuffles are the groupbys on content-hash / band keys
(uniformly distributed by construction). Pair confirmation uses the MinHash
signatures carried with the candidates — no second pass over the corpus.
Survivor choice is "drop any doc that has a confirmed near-dup with a
smaller doc_id" — deterministic and one extra groupby; full connected
components would need iterated label propagation (documented trade-off).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from pero_ocr_ray.kernels import textstats as K
from pero_ocr_ray.functions.textstats import content_hashes


def exact_dedup_groups(ds: rd.Dataset) -> rd.Dataset:
    """-> (doc_id, content_hash, n_copies): survivor (min doc_id) per
    distinct text + group size. Matches SQL GROUP BY text.

    Combiner shape (hot-group-safe): min/count are algebraic, so each batch
    emits one (content_hash, min doc_id, count) partial via a zero-copy
    Arrow group_by and the shuffle merges PARTIALS with
    ``groupby().aggregate(Min, Sum)`` — a text duplicated a million times
    (empty page, parked domain, cookie wall) moves one row per source
    block through the shuffle instead of materializing every copy in a
    single worker's group (the Common-Crawl killer the earlier
    ``map_groups(pick)`` form had)."""
    from ray.data.aggregate import Min, Sum

    hashed = content_hashes(ds)

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["content_hash", "doc_id"])
             .group_by("content_hash")
             .aggregate([("doc_id", "min"), ("doc_id", "count")]))
        return pa.table({"content_hash": g.column("content_hash"),
                         "doc_id_partial": g.column("doc_id_min"),
                         "n_partial": g.column("doc_id_count")})

    agg = (hashed.map_batches(partial, batch_format="pyarrow")
           .groupby("content_hash")
           .aggregate(Min("doc_id_partial", alias_name="doc_id"),
                      Sum("n_partial", alias_name="n_copies")))
    return agg.map_batches(
        lambda t: pa.table({
            "doc_id": pa.compute.cast(t.column("doc_id"), pa.int64()),
            "content_hash": t.column("content_hash"),
            "n_copies": pa.compute.cast(t.column("n_copies"), pa.int64()),
        }),
        batch_format="pyarrow")


def exact_dedup(ds: rd.Dataset) -> rd.Dataset:
    """Full survivor rows (the dedup'd corpus).

    Semi-join shape (hot-group-safe): winner doc_ids come from the
    combiner-form :func:`exact_dedup_groups`; the survivor ROWS are then a
    hash semi-join of those ids against the streamed corpus — no group
    ever holds more than one row per distinct text, regardless of how many
    copies the corpus carries."""
    from pero_ocr_ray.functions.join import hash_join

    # cluster-scaled repartition consolidates the aggregate's output
    # blocks before the join (winners is one row per DISTINCT text — far
    # smaller than the corpus but still corpus-scale at 100 TB, so a fixed
    # tiny block count would serialize it; round-5 change from 8)
    from pero_ocr_ray.util import shuffle_partitions
    winners = (exact_dedup_groups(ds).select_columns(["doc_id"])
               .repartition(shuffle_partitions()))
    return hash_join(ds, winners, on="doc_id")


# -- MinHash-LSH -----------------------------------------------------------


class MinHashStage:
    """Actor pool: signature per doc, exploded to LSH band rows."""

    def __init__(self, k: int = 3):
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        band_keys, doc_ids, sigs = [], [], []
        for did, text in zip(df["doc_id"], df["text"]):
            sig = K.minhash_signature(text, self.k)
            if sig is None:  # no shingles (<k tokens): never a candidate
                continue
            sig_list = sig.astype(np.int64).tolist()
            for key in K.lsh_band_keys(sig):
                band_keys.append(key)
                doc_ids.append(int(did))
                sigs.append(sig_list)
        return pd.DataFrame({"band_key": band_keys, "doc_id": doc_ids,
                             "signature": sigs})


MAX_BUCKET = 512  # hot-bucket guard: pairs are quadratic in bucket size


def _band_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """Candidate pairs within one LSH bucket, Jaccard estimated from the
    signatures riding along (no corpus re-join).

    Buckets beyond MAX_BUCKET docs are truncated to the MAX_BUCKET smallest
    doc_ids (deterministic). A bucket that hot means near-identical boiler
    content; the survivors still link the cluster transitively, and the cap
    keeps the stage from going quadratic on a pathological key at corpus
    scale."""
    if len(group) < 2:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "est_jaccard": pd.Series([], dtype="float64")})
    g = group.drop_duplicates("doc_id").sort_values("doc_id")
    if len(g) > MAX_BUCKET:
        g = g.head(MAX_BUCKET)
    ids = g["doc_id"].to_numpy()
    sigs = np.array(g["signature"].tolist(), dtype=np.int64)
    rows_a, rows_b, est = [], [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            rows_a.append(int(ids[i]))
            rows_b.append(int(ids[j]))
            est.append(float(np.mean(sigs[i] == sigs[j])))
    return pd.DataFrame({"doc_a": rows_a, "doc_b": rows_b, "est_jaccard": est})


def minhash_near_dup_pairs(ds: rd.Dataset, threshold: float = 0.7,
                           k: int = 3, concurrency: int = 2) -> rd.Dataset:
    """-> distinct (doc_a, doc_b, est_jaccard) with doc_a < doc_b and
    estimated Jaccard >= threshold."""
    bands = ds.map_batches(MinHashStage, fn_constructor_kwargs={"k": k},
                           batch_format="pandas", concurrency=concurrency)
    pairs = bands.groupby("band_key").map_groups(_band_pairs,
                                                 batch_format="pandas")
    pairs = pairs.map_batches(
        lambda t: t.filter(pa.compute.greater_equal(t["est_jaccard"], threshold)),
        batch_format="pyarrow")

    def dedup_pair(group: pd.DataFrame) -> pd.DataFrame:
        return group.head(1)

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pair_key"] = df["doc_a"].astype(str) + ":" + df["doc_b"].astype(str)
        return df

    from pero_ocr_ray.util import arrow_meta_free
    # arrow_meta_free: consumers repartition/shuffle this output — pandas
    # blocks would make every reduce task log schema-hash warnings
    return arrow_meta_free(
        pairs.map_batches(add_key, batch_format="pandas")
             .groupby("pair_key").map_groups(dedup_pair, batch_format="pandas")
             .drop_columns(["pair_key"]))


def minhash_dedup_drop_ids(ds: rd.Dataset, threshold: float = 0.7,
                           k: int = 3) -> rd.Dataset:
    """-> (doc_id,) docs to DROP: any doc with a confirmed near-dup of
    smaller id (deterministic approximation of connected components;
    :func:`near_dup_clusters` is the exact transitive variant)."""
    pairs = minhash_near_dup_pairs(ds, threshold, k)

    def drops(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_b")})

    dropped = pairs.map_batches(drops, batch_format="pyarrow")

    def uniq(group: pd.DataFrame) -> pd.DataFrame:
        return group.head(1)

    from pero_ocr_ray.util import arrow_meta_free
    return arrow_meta_free(
        dropped.groupby("doc_id").map_groups(uniq, batch_format="pandas"))


# -- connected components over the near-dup graph --------------------------


def label_propagation_components(pairs: rd.Dataset, max_iters: int = 25
                                 ) -> rd.Dataset:
    """Connected components of an undirected edge list (doc_a, doc_b) ->
    (doc_id, cluster_id) where cluster_id = min doc_id of the component.

    Distributed min-label propagation with pointer jumping: each round
    every node takes the min over its own label, its neighbors' labels,
    AND its label's label (the union-find path-halving trick — labels are
    themselves node ids, so one extra self-join doubles the propagation
    distance per round, making convergence O(log diameter) instead of
    O(diameter)). Labels decrease monotonically, so the sum of labels is a
    convergence certificate — iterate until it stops falling. A component
    that fails to converge within ``max_iters`` raises (silently returning
    partial labels would desynchronize every downstream dedup decision).

    Scale shape: state is one (doc_id, label) row PER NODE THAT HAS A
    NEAR-DUP (not per corpus row), shuffles are keyed on doc_id, and each
    round's result is materialized before the next — the iterative-algorithm
    escape hatch the Dataset API needs (SURVEY custom-operator rule (a))."""
    from ray.data.aggregate import Sum
    from pero_ocr_ray.functions.join import hash_join

    # both union branches below consume ``pairs``: materialize it so its
    # lineage runs once. Unmaterialized, each branch starts its own copy of
    # any upstream actor pool (near_dup_clusters: two MinHashStage pools of
    # 2 CPUs), which on a 4-CPU session holds every CPU while the read
    # tasks feeding them wait for one — a silent deadlock.
    pairs = pairs.materialize()
    edges = pairs.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_a"),
                            "nbr": t.column("doc_b")}),
        batch_format="pyarrow").union(pairs.map_batches(
            lambda t: pa.table({"doc_id": t.column("doc_b"),
                                "nbr": t.column("doc_a")}),
            batch_format="pyarrow")).materialize()
    if edges.count() == 0:
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64())}))

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "label": t.column("doc_id")})

    def min_label(group: pa.Table) -> pa.Table:
        # arrow-native so unioned inputs keep one block type end-to-end
        return pa.table({
            "doc_id": pa.array([group.column("doc_id")[0].as_py()], pa.int64()),
            "label": pa.array(
                [pa.compute.min(group.column("label")).as_py()], pa.int64()),
        })

    # cluster-scaled repartition consolidates map_groups' many tiny
    # output blocks (empty ones are handled by rayfix; this is also its
    # fallback)
    from pero_ocr_ray.util import shuffle_partitions
    labels = (edges.map_batches(init_labels, batch_format="pyarrow")
              .groupby("doc_id").map_groups(min_label, batch_format="pyarrow")
              .repartition(shuffle_partitions()).materialize())
    prev_sum = None
    converged = False
    for _ in range(max_iters):
        # neighbor label offers: edge (u -> v) carries label(u) to v
        offers = hash_join(edges, labels.map_batches(
            lambda t: pa.table({"nbr_key": t.column("doc_id"),
                                "label": t.column("label")}),
            batch_format="pyarrow"), on="nbr", right_on="nbr_key"
        ).select_columns(["doc_id", "label"])
        # pointer jumping: node u also adopts label(label(u))
        jumps = hash_join(
            labels.map_batches(
                lambda t: pa.table({"doc_id": t.column("doc_id"),
                                    "lbl_key": t.column("label")}),
                batch_format="pyarrow"),
            labels.map_batches(
                lambda t: pa.table({"lbl_key2": t.column("doc_id"),
                                    "label": t.column("label")}),
                batch_format="pyarrow"),
            on="lbl_key", right_on="lbl_key2",
        ).select_columns(["doc_id", "label"])
        labels = (labels.union(offers).union(jumps)
                  .groupby("doc_id")
                  .map_groups(min_label, batch_format="pyarrow")
                  .repartition(shuffle_partitions()).materialize())
        agg = labels.aggregate(Sum("label"))
        cur_sum = (agg or {}).get("sum(label)", 0)
        if cur_sum == prev_sum:  # min-labels are monotone: fixed point
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} rounds "
            f"(pointer jumping makes this ~log2 of the largest component "
            f"diameter — raise max_iters only for truly enormous chains)")
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "cluster_id": t.column("label")}),
        batch_format="pyarrow")


def near_dup_clusters(ds: rd.Dataset, threshold: float = 0.7, k: int = 3,
                      max_iters: int = 25) -> rd.Dataset:
    """-> (doc_id, cluster_id) for every doc in a near-dup component:
    MinHash-LSH pairs -> transitive closure by label propagation. Docs with
    no near-dup are absent (their cluster is themselves)."""
    from pero_ocr_ray.util import shuffle_partitions
    pairs = (minhash_near_dup_pairs(ds, threshold, k)
             .repartition(shuffle_partitions()))
    return label_propagation_components(pairs, max_iters)


def minhash_dedup_cluster_drop_ids(ds: rd.Dataset, threshold: float = 0.7,
                                   k: int = 3) -> rd.Dataset:
    """-> (doc_id,) docs to DROP under exact transitive clustering: every
    component keeps only its min doc_id. Unlike
    :func:`minhash_dedup_drop_ids`, chain-shaped clusters (A~B~C with A!~C)
    drop their middle members too."""
    clusters = near_dup_clusters(ds, threshold, k)
    return clusters.map_batches(
        lambda t: pa.table({"doc_id": t.filter(
            pa.compute.not_equal(t.column("doc_id"),
                                 t.column("cluster_id"))).column("doc_id")}),
        batch_format="pyarrow")


# -- exact n-gram Jaccard --------------------------------------------------


def _shingle_digest_col(df: pd.DataFrame, k: int) -> pa.Table:
    """(doc_id, digests): md5-64bit digests of the distinct word shingles,
    packed as one binary blob per doc (Acero hash joins carry binary
    payload columns but not list columns). Digest-set Jaccard equals
    string-set Jaccard up to md5 collisions (2^-64 — far below the float
    printing precision of the gate)."""
    import hashlib
    out_ids, out_digs = [], []
    for did, text in zip(df["doc_id"], df["text"]):
        digs = np.sort(np.frombuffer(
            b"".join(hashlib.md5(s.encode("utf-8")).digest()[:8]
                     for s in sorted(K.word_shingles(text, k))),
            dtype=np.int64))
        out_ids.append(int(did))
        out_digs.append(digs.tobytes())
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                     "digests": pa.array(out_digs, pa.binary())})


def jaccard_near_dup_pairs(ds: rd.Dataset, threshold: float = 0.6,
                           k: int = 3, concurrency: int = 2,
                           candidate_margin: float = 0.25) -> rd.Dataset:
    """EXACT n-gram Jaccard near-dup pairs -> (doc_a, doc_b, jaccard).

    Scale shape: MinHash-LSH generates candidates (no all-pairs), then the
    exact verify joins each candidate against the per-doc shingle-digest
    table (two hash joins keyed on doc ids) and computes set Jaccard on the
    digests. The LSH prefilter admits candidates down to
    ``threshold - candidate_margin`` estimated similarity so borderline
    true pairs aren't lost to estimator noise.

    RECALL ASSUMPTION (the one divergence from the all-pairs oracle): a
    true pair whose 64-perm estimate draws more than ``candidate_margin``
    below its exact Jaccard is silently absent. The estimator's sigma is
    sqrt(j(1-j)/64) ≤ 0.0625, so the default margin 0.25 is a ≥4-sigma
    guard band — a miss requires a ≥4-sigma deviation AND no shared LSH
    band. Callers shrinking ``candidate_margin`` below ~3 sigma trade
    exactness for compute and should cross-check recall on injected
    duplicates (the correctness gate's injected pairs sit at ~0.9 Jaccard,
    far above the risky band)."""
    if candidate_margin < 0.19:
        raise ValueError(
            "candidate_margin below ~3 sigma (0.19) voids the exact-recall "
            "guarantee vs the all-pairs oracle; see docstring")
    shingles = ds.map_batches(
        lambda df: _shingle_digest_col(df, k), batch_format="pandas")
    cands = minhash_near_dup_pairs(
        ds, max(0.0, threshold - candidate_margin), k, concurrency)
    # consolidate before the native join: groupby().map_groups leaves empty
    # null-schema blocks that make Dataset.join fail with "No match ...
    # FieldRef(doc_a)" (a Ray 2.49 hash-shuffle quirk; see CLAUDE.md)
    from pero_ocr_ray.util import shuffle_partitions
    cands = cands.repartition(shuffle_partitions())

    from pero_ocr_ray.functions.join import hash_join

    def as_side(name):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({name: t.column("doc_id"),
                             f"digests_{name}": t.column("digests")})
        return fn

    j = hash_join(cands, shingles.map_batches(as_side("doc_a"),
                                              batch_format="pyarrow"),
                  on="doc_a")
    j = hash_join(j, shingles.map_batches(as_side("doc_b"),
                                          batch_format="pyarrow"),
                  on="doc_b")

    def exact(df: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, jac = [], [], []
        for a, b, da, db in zip(df["doc_a"], df["doc_b"],
                                df["digests_doc_a"], df["digests_doc_b"]):
            sa = set(np.frombuffer(da, dtype=np.int64))
            sb = set(np.frombuffer(db, dtype=np.int64))
            union = len(sa) + len(sb) - len(sa & sb)
            if union == 0:
                # both shingle sets empty (degenerate docs): emit no pair —
                # the trigram oracle emits nothing for such docs either
                continue
            jx = len(sa & sb) / union
            if jx >= threshold:
                rows_a.append(int(a)); rows_b.append(int(b)); jac.append(jx)
        return pd.DataFrame({
            "doc_a": pd.Series(rows_a, dtype="int64"),
            "doc_b": pd.Series(rows_b, dtype="int64"),
            "jaccard": pd.Series(jac, dtype="float64"),
        })

    return j.map_batches(exact, batch_format="pandas")


# -- SimHash ---------------------------------------------------------------


def _to_int64(u: int) -> int:
    """uint64 -> two's-complement int64 (Arrow-friendly), pure Python."""
    return u - (1 << 64) if u >= (1 << 63) else u


class SimHashStage:
    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            # two's-complement int64 view of the uint64 simhash (pure
            # Python int ops: np.uint64(negative) is an error in numpy 2.x)
            "simhash": [_to_int64(K.simhash64(t)) for t in df["text"]],
        })


def simhash_signatures(ds: rd.Dataset, concurrency: int = 2) -> rd.Dataset:
    return ds.map_batches(SimHashStage, batch_format="pandas",
                          concurrency=concurrency)


def simhash_near_dup_pairs(ds: rd.Dataset, max_hamming: int = 3,
                           concurrency: int = 2) -> rd.Dataset:
    """Pairs with hamming distance <= max_hamming via 4-block bucketing:
    two docs within hamming 3 of each other share at least one identical
    16-bit block of the 64-bit simhash (pigeonhole)."""
    sigs = simhash_signatures(ds, concurrency)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"block_key": [], "doc_id": [], "simhash": []}
        for did, sh in zip(df["doc_id"], df["simhash"]):
            u = int(sh) & 0xFFFFFFFFFFFFFFFF  # uint64 view via Python int
            for blk in range(4):
                part = (u >> (16 * blk)) & 0xFFFF
                rows["block_key"].append(f"{blk}:{part}")
                rows["doc_id"].append(int(did))
                rows["simhash"].append(int(sh))
        return pd.DataFrame(rows)

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("doc_id").sort_values("doc_id")
        if len(g) > MAX_BUCKET:
            # same hot-bucket guard as MinHash _band_pairs: a degenerate
            # 16-bit block key (e.g. thousands of near-empty docs) would go
            # quadratic; keep the MAX_BUCKET smallest doc_ids (deterministic)
            g = g.head(MAX_BUCKET)
        ids = g["doc_id"].tolist()
        shs = g["simhash"].tolist()
        out = {"doc_a": [], "doc_b": [], "hamming": []}
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                d = K.hamming64(int(shs[i]) & 0xFFFFFFFFFFFFFFFF,
                                int(shs[j]) & 0xFFFFFFFFFFFFFFFF)
                if d <= max_hamming:
                    out["doc_a"].append(ids[i])
                    out["doc_b"].append(ids[j])
                    out["hamming"].append(d)
        return pd.DataFrame({k: pd.Series(v, dtype="int64")
                             for k, v in out.items()})

    cand = sigs.map_batches(explode, batch_format="pandas")
    found = cand.groupby("block_key").map_groups(pairs, batch_format="pandas")

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pair_key"] = df["doc_a"].astype(str) + ":" + df["doc_b"].astype(str)
        return df

    return (found.map_batches(add_key, batch_format="pandas")
                 .groupby("pair_key")
                 .map_groups(lambda g: g.head(1), batch_format="pandas")
                 .drop_columns(["pair_key"]))


def cluster_representatives(clusters: rd.Dataset, scored: rd.Dataset,
                            score_col: str = "clf_score") -> rd.Dataset:
    """(doc_id, cluster_id) x (doc_id, score) -> (cluster_id,
    rep_doc_id, rep_score): the highest-scoring member per near-dup
    cluster, tie-break smaller doc_id — the "keep the best copy, drop
    the rest" curation step (SemDeDup-style representative selection
    with an explicit quality criterion instead of centroid distance).

    Shape: one native join (cluster rows are the small side — only docs
    inside components) + a bucketed vectorized argmax (`cluster_id %
    256` co-location, one pandas sort+head per bucket — the
    paragraphs.py pattern; a cluster is never split across buckets)."""
    import pandas as pd
    from pero_ocr_ray.functions.join import hash_join

    j = hash_join(clusters, scored, on="doc_id")

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__cb", pa.array(t.column("cluster_id").to_numpy() % 256,
                             pa.int64()))

    def best(g: pd.DataFrame) -> pa.Table:
        top = (g.sort_values(["cluster_id", score_col, "doc_id"],
                             ascending=[True, False, True])
               .groupby("cluster_id", as_index=False).head(1))
        return pa.table({
            "cluster_id": pa.array(top["cluster_id"].to_numpy("int64"),
                                   pa.int64()),
            "rep_doc_id": pa.array(top["doc_id"].to_numpy("int64"),
                                   pa.int64()),
            "rep_score": pa.array(top[score_col].to_numpy("int64"),
                                  pa.int64()),
        })

    return (j.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__cb").map_groups(best, batch_format="pandas"))

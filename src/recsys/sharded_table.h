// Consistent-hash partitioning of an embedding table across shards
// (Sec. V-A: production tables outgrow one node's memory, so the serving
// tier splits them row-wise and routes each lookup to the row's owner).
//
// ShardedEmbeddingTable partitions a source table's rows over N shards with
// the SAME consistent-hash ring the serve router uses (core/hash.h), so a
// shard add/remove moves only ~R/N rows — the property that keeps most of
// every shard's warm cache valid across a resize. Each shard owns a
// CachedEmbeddingTable (PR 7's multi-tier cache) over its row subset: a
// quantized cold tier plus an fp32 hot tier sized per shard.
//
// Live resize (add_shard / remove_shard): the ring delta names exactly the
// rows whose owner changed (~R/(N+1) on an add, the victim's rows on a
// remove), and only shards that gained or lost rows are rebuilt. A rebuilt
// shard's cold tier is assembled by QuantizedEmbeddingTable::gather — every
// migrated row's codes and scale are copied bit-for-bit from its old owner,
// never re-quantized — and rows that were resident in a donor's hot tier
// are re-warmed at their new owner (donors visited in shard-id order, each
// in LRU-to-MRU recency order), so the warm set travels with its rows.
// Post-resize state is IDENTICAL (placement and cold-tier bytes) to fresh
// construction over the new member set, which is what makes
// add-then-remove restore routing and row placement bitwise. Resize is
// all-or-nothing: everything is built into fresh locals first and committed
// by noexcept swaps, so a mid-migration allocation failure (exercised by
// the testkit alloc-fault campaign) leaves the table unchanged.
//
// Shard ids are never reused: add_shard assigns the next id (mirroring
// serve::ShardRouter), remove_shard retires the slot. shard_slots() is the
// id-indexed capacity; num_shards() counts live shards.
//
// Determinism contract: quantization is per-ROW (row-wise symmetric, one
// scale per row), so a shard's sub-table holds exactly the codes and scale
// the full-table quantizer would produce for those rows — partitioning (and
// re-partitioning) changes WHERE a row lives, never its bits. lookup_sum
// fetches each referenced row from its owner shard and accumulates in
// index-list order (the same mul-then-add rounding sequence as the
// unsharded gather, kept unfused by the tree-wide -ffp-contract=off), so
// pooled outputs are bitwise-identical to QuantizedEmbeddingTable(source,
// bits).lookup_sum on the same indices — for ANY shard count, resize
// history, hit/miss pattern, thread count, or kernel backend.
// tests/test_embedding_cache.cpp and tests/test_resize.cpp pin this.
//
// Not thread-safe (same owner contract as CachedEmbeddingTable): per-shard
// cache state mutates on lookup, and a resize restructures the placement
// map. In the sharded deployment each serve shard owns its slice
// exclusively and the control plane serializes resizes, which is exactly
// this contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hash.h"
#include "recsys/cached_embedding_table.h"
#include "recsys/embedding_table.h"

namespace enw::recsys {

class ShardedEmbeddingTable {
 public:
  /// What one resize moved — the migration report the fault campaign and
  /// the bench's rows-migrated column read.
  struct ResizeStats {
    std::size_t shard = 0;            // id added or removed
    std::size_t rows_moved = 0;       // rows whose owner changed (ring delta)
    std::size_t warm_rows_moved = 0;  // moved rows re-warmed at the receiver
  };

  /// Partition `source` across num_shards shards, quantizing each shard's
  /// rows at `bits` (2/4/8) with a hot tier of hot_rows entries PER shard.
  /// vnodes must match across replicas for identical placement.
  ShardedEmbeddingTable(const EmbeddingTable& source, int bits,
                        std::size_t num_shards, std::size_t hot_rows,
                        std::size_t vnodes = 64);

  std::size_t rows() const { return shard_of_.size(); }
  std::size_t dim() const { return dim_; }
  /// Live shard count (retired slots excluded).
  std::size_t num_shards() const { return ring_.members(); }
  /// Id-indexed slot count (== highest ever shard id + 1). Retired slots
  /// stay addressable so id-keyed reports keep their columns.
  std::size_t shard_slots() const { return shards_.size(); }
  /// Whether shard id `s` is live (false for retired or out-of-range ids).
  bool shard_live(std::size_t s) const {
    return s < shards_.size() && shards_[s] != nullptr;
  }

  /// The shard owning global row `r` (ring placement, not load).
  std::size_t shard_of(std::size_t r) const;

  const CachedEmbeddingTable& shard(std::size_t s) const;

  /// Grow by one shard (id = shard_slots()): migrate exactly the ring-delta
  /// rows TO the new shard, donors rebuilt with bit-identical codes/scales,
  /// warm rows travelling. Strong exception guarantee: on any throw
  /// (including an injected allocation failure) the table is unchanged.
  ResizeStats add_shard();

  /// Retire shard `s`: its rows fall to ring successors (bit-identical
  /// codes/scales, warm rows travelling). Strong exception guarantee.
  ResizeStats remove_shard(std::size_t s);

  /// Sum-pool the rows named by GLOBAL indices into out (out.size() ==
  /// dim()), bitwise-equal to the unsharded quantized gather. Mutates the
  /// owner shards' cache state.
  void lookup_sum(std::span<const std::size_t> indices, std::span<float> out);

  /// Rows placed on each shard slot (0 for retired slots) — the
  /// placement-balance counts the bench's imbalance statistic is computed
  /// from.
  std::vector<std::uint64_t> rows_per_shard() const;

  // Aggregate per-reference cache stats across live shards.
  std::uint64_t hot_hits() const;
  std::uint64_t hot_misses() const;

 private:
  static std::size_t check_positive(std::size_t n) {
    ENW_CHECK_MSG(n > 0, "need at least one shard");
    return n;
  }

  /// Shared add/remove engine: target is the id being added (== the next
  /// id, shard_slots()) or removed. Builds the post-resize state into
  /// locals, commits with noexcept swaps.
  ResizeStats rebalance(std::size_t target, bool add);

  std::size_t dim_;
  int bits_;
  std::size_t hot_rows_;
  core::ConsistentHashRing ring_;        // members == live shard ids
  std::vector<std::uint32_t> shard_of_;  // global row -> owner shard id
  std::vector<std::uint32_t> local_of_;  // global row -> row within owner
  std::vector<std::unique_ptr<CachedEmbeddingTable>> shards_;  // id-indexed
  std::vector<float> row_scratch_;  // one dequantized row during pooling
};

}  // namespace enw::recsys

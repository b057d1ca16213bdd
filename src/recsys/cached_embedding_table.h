// Multi-tier embedding cache: a small fp32 hot-row tier in front of an
// int8/int4/int2 quantized cold tier (Sec. V-B).
//
// The analytical perf::LruCache answers "how much Zipf traffic would a
// modest cache absorb?"; this class is the *data-carrying* counterpart that
// turns the predicted hit rate into measured bandwidth savings on the
// serving hot path. It owns a QuantizedEmbeddingTable (the cold tier — the
// full compressed table) plus a flat fp32 array of `hot_rows` dequantized
// rows (the hot tier), with perf::LruCache as the residency/recency engine:
// LruCache's stable slot indices are exactly the hot-tier row indices.
//
// Determinism contract: a hot row holds exactly the dequantized cold row —
// each element is the single product rounding float(code) * scale — and
// pooling adds those values in index-list order, which is the same sequence
// of multiply-then-add roundings the uncached quantized gather performs
// (s8_axpy for int8, the scalar loop for sub-byte; both mul-then-add, never
// FMA: every TU builds with -ffp-contract=off). So lookup_sum /
// lookup_sum_batch return results bitwise-identical to cold().lookup_sum on
// the same indices, regardless of hit/miss pattern, batch composition, thread
// count, or kernel backend. Only *speed* depends on cache state, never values.
//
// Batch-aware prefetch (lookup_sum_batch): the ragged index lists are
// pre-scanned and deduplicated, the LRU metadata is touched once per unique
// row, misses are filled in one grouped pass (each cold row dequantized at
// most once per batch, fills run in parallel over disjoint destinations),
// and pooling then runs parallel over samples reading the hot tier only. A
// batch whose unique rows exceed the hot capacity spills the excess into a
// per-batch overflow scratch instead of thrashing mid-batch evictions.
//
// Hit/miss accounting is per REFERENCE (duplicates of a row inside a batch
// count as hits after its first appearance), matching what a sequential
// analytical LruCache sees on the flattened trace — that is what makes the
// measured hit rate directly comparable to the model's prediction.
//
// Not thread-safe: one owner mutates the cache (the serve collator thread
// in production). The internal parallel_for fan-out is safe because fills
// write disjoint rows and pooling only reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "perf/lru_cache.h"
#include "recsys/embedding_table.h"
#include "tensor/matrix.h"

namespace enw::recsys {

class CachedEmbeddingTable {
 public:
  /// Takes ownership of the cold tier; hot_rows is the hot-tier capacity in
  /// table rows (entries, not bytes).
  CachedEmbeddingTable(QuantizedEmbeddingTable cold, std::size_t hot_rows);

  std::size_t rows() const { return cold_.rows(); }
  std::size_t dim() const { return cold_.dim(); }
  int bits() const { return cold_.bits(); }
  std::size_t hot_rows() const { return lru_.capacity(); }

  const QuantizedEmbeddingTable& cold() const { return cold_; }
  /// The residency/recency metadata tier. Note its internal hit/miss stats
  /// count one access per *unique* row per batch; use hot_hits()/
  /// hot_misses() for the per-reference numbers.
  const perf::LruCache& meta() const { return lru_; }

  /// Same contract as QuantizedEmbeddingTable::lookup_sum, bitwise-equal
  /// output; mutates residency/recency state.
  void lookup_sum(std::span<const std::size_t> indices, std::span<float> out);

  /// Batch-aware path: dedup, grouped fill, parallel pool (see file
  /// comment). Bitwise-equal to per-sample lookup_sum on the same lists.
  /// Rejects any out-of-range index before any cache state changes.
  void lookup_sum_batch(std::span<const std::span<const std::size_t>> index_lists,
                        Matrix& out);

  /// Pre-warm the hot tier: make each id resident (dequantizing on a miss)
  /// and touch it MRU in the given order — feeding a donor cache's
  /// keys_by_recency() reproduces the donor's residency and recency here.
  /// Values are unaffected either way (only speed depends on warmth); fills
  /// count in rows_filled()/bytes_from_cold() but NOT in the per-reference
  /// hit/miss stats, which track serving traffic only.
  void warm_rows(std::span<const std::size_t> ids);

  // Per-reference stats (see file comment for the convention).
  std::uint64_t hot_hits() const { return hits_; }
  std::uint64_t hot_misses() const { return misses_; }
  double hot_hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }
  /// Cold rows dequantized into the hot tier (or overflow scratch).
  std::uint64_t rows_filled() const { return fills_; }
  /// Compressed bytes read from the cold tier by those fills.
  std::uint64_t bytes_from_cold() const { return bytes_from_cold_; }
  /// fp32 bytes pooled out of the hot tier (refs * dim * 4).
  std::uint64_t bytes_from_hot() const { return bytes_from_hot_; }
  void reset_stats();

  std::size_t hot_bytes() const { return hot_.size() * sizeof(float); }

 private:
  void fill_row(std::size_t id, float* dst);

  QuantizedEmbeddingTable cold_;
  perf::LruCache lru_;
  std::size_t dim_;
  std::size_t cold_row_bytes_;  // packed codes + scale, per row
  std::vector<float> hot_;      // hot_rows x dim, indexed by LruCache slot

  // Per-batch scratch (grow-only; reused across batches so the steady-state
  // batch path does not allocate).
  std::vector<std::size_t> uniq_;        // unique row ids, first-appearance order
  std::vector<std::uint32_t> dedup_;     // open-addressed id -> uniq index
  std::vector<std::uint32_t> ref_uniq_;  // flattened per-reference uniq index
  std::vector<std::size_t> ref_offset_;  // per-sample start into ref_uniq_
  std::vector<std::uint8_t> was_hit_;    // per-unique: resident before batch
  std::vector<std::uint32_t> slot_of_;   // per-unique slot from the LRU touch
  std::vector<std::uint32_t> slot_claim_;  // per-slot: last unique to land there
                                           // (stale entries from prior batches
                                           // are never read)
  std::vector<const float*> src_;        // per-unique source row for pooling
  std::vector<std::uint32_t> fill_;      // uniq indices needing a cold fill
  std::vector<float> overflow_;          // rows evicted/unplaceable mid-batch

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t bytes_from_cold_ = 0;
  std::uint64_t bytes_from_hot_ = 0;
};

}  // namespace enw::recsys

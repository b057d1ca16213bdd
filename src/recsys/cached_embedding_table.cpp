// NOTE: like every TU, compiled with -ffp-contract=off (the one rule, set on
// enw_core): the determinism contract needs the fill (mul) and pool (add)
// roundings to match the cold gather's mul-then-add exactly, so no loop here
// may contract into an FMA.
#include "recsys/cached_embedding_table.h"

#include <algorithm>

#include "core/check.h"
#include "core/parallel.h"
#include "obs/obs.h"

namespace enw::recsys {

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t packed_row_bytes(std::size_t dim, int bits) {
  const std::size_t codes_per_byte = bits == 8 ? 1 : (bits == 4 ? 2 : 4);
  return (dim + codes_per_byte - 1) / codes_per_byte + sizeof(float);  // + scale
}

}  // namespace

CachedEmbeddingTable::CachedEmbeddingTable(QuantizedEmbeddingTable cold,
                                           std::size_t hot_rows)
    : cold_(std::move(cold)),
      lru_(hot_rows),
      dim_(cold_.dim()),
      cold_row_bytes_(packed_row_bytes(cold_.dim(), cold_.bits())) {
  hot_.assign(hot_rows * dim_, 0.0f);
  slot_claim_.assign(hot_rows, 0);
}

void CachedEmbeddingTable::fill_row(std::size_t id, float* dst) {
  cold_.dequantize_row(id, std::span<float>(dst, dim_));
}

void CachedEmbeddingTable::warm_rows(std::span<const std::size_t> ids) {
  detail::check_indices(ids, rows());
  std::uint64_t filled = 0;
  for (std::size_t id : ids) {
    const auto res = lru_.access_slot(id);
    if (!res.hit) {
      ++filled;
      fill_row(id, hot_.data() + static_cast<std::size_t>(res.slot) * dim_);
    }
  }
  fills_ += filled;
  bytes_from_cold_ += filled * cold_row_bytes_;
}

void CachedEmbeddingTable::lookup_sum(std::span<const std::size_t> indices,
                                      std::span<float> out) {
  ENW_CHECK_MSG(out.size() == dim_, "output size mismatch");
  detail::check_indices(indices, rows());  // all validation before any mutation
  std::fill(out.begin(), out.end(), 0.0f);
  std::uint64_t filled = 0;
  for (std::size_t idx : indices) {
    const auto res = lru_.access_slot(idx);
    float* row = hot_.data() + static_cast<std::size_t>(res.slot) * dim_;
    if (res.hit) {
      ++hits_;
    } else {
      ++misses_;
      ++filled;
      fill_row(idx, row);
    }
    // Pool immediately so a later miss evicting this slot cannot clobber
    // data we still need (the batch path defers pooling and uses an
    // overflow scratch instead).
    for (std::size_t j = 0; j < dim_; ++j) out[j] += row[j];
  }
  fills_ += filled;
  bytes_from_cold_ += filled * cold_row_bytes_;
  bytes_from_hot_ += indices.size() * dim_ * sizeof(float);
}

void CachedEmbeddingTable::lookup_sum_batch(
    std::span<const std::span<const std::size_t>> index_lists, Matrix& out) {
  ENW_SPAN("recsys.cache.lookup_batch");
  // Phase 1 — validate everything before any cache state changes: an
  // out-of-range index anywhere in the batch must leave residency, recency,
  // and stats untouched.
  const std::size_t refs =
      detail::check_ragged_batch(index_lists, out.rows(), out.cols(), rows(), dim_);
  const std::size_t b = index_lists.size();

  // Phase 2 — dedup in first-appearance order. ref_uniq_ records, per
  // reference, which unique row it pools, so the pool phase never re-probes.
  uniq_.clear();
  ref_uniq_.clear();
  ref_offset_.resize(b + 1);
  const std::size_t table_size = next_pow2(std::max<std::size_t>(16, refs * 2));
  dedup_.assign(table_size, kEmpty);
  const std::size_t mask = table_size - 1;
  for (std::size_t s = 0; s < b; ++s) {
    ref_offset_[s] = ref_uniq_.size();
    for (std::size_t id : index_lists[s]) {
      std::size_t h = perf::detail::mix64(id) & mask;
      while (dedup_[h] != kEmpty && uniq_[dedup_[h]] != id) h = (h + 1) & mask;
      if (dedup_[h] == kEmpty) {
        dedup_[h] = static_cast<std::uint32_t>(uniq_.size());
        uniq_.push_back(id);
      }
      ref_uniq_.push_back(dedup_[h]);
    }
  }
  ref_offset_[b] = ref_uniq_.size();
  const std::size_t n_uniq = uniq_.size();

  // Phase 3 — one LRU metadata touch per unique row, in first-appearance
  // order (the closest batch analogue of the sequential reference stream).
  // Each unique also stamps a claim on the slot it landed in: a later miss
  // that evicts an earlier unique reuses — and re-stamps — that slot, which
  // is how phase 4 detects the theft without a second hash probe per unique
  // (the probes are random-access and dominate the metadata cost at scale).
  was_hit_.resize(n_uniq);
  slot_of_.resize(n_uniq);
  std::uint64_t uniq_hits = 0;
  for (std::size_t u = 0; u < n_uniq; ++u) {
    const auto res = lru_.access_slot(uniq_[u]);
    was_hit_[u] = res.hit ? 1 : 0;
    uniq_hits += res.hit ? 1 : 0;
    slot_of_[u] = res.slot;
    slot_claim_[res.slot] = static_cast<std::uint32_t>(u);
  }
  // Per-reference accounting: duplicates hit by construction.
  hits_ += (refs - n_uniq) + uniq_hits;
  misses_ += n_uniq - uniq_hits;

  // Phase 4 — resolve final residency. With more unique rows than hot
  // capacity, later misses evict earlier uniques; anything not resident
  // *now* gets a row in the per-batch overflow scratch instead, so each
  // cold row is still dequantized at most once. Unique u still owns its
  // slot iff its claim survived phase 3 (stale claims from earlier batches
  // are never read: we only inspect slots stamped this batch).
  src_.resize(n_uniq);
  fill_.clear();
  std::size_t n_ovf = 0;
  for (std::size_t u = 0; u < n_uniq; ++u) {
    const std::uint32_t slot = slot_of_[u];
    if (slot_claim_[slot] != u) {
      // Evicted by a later unique's miss. Encode the overflow row index;
      // pointers are bound after the resize.
      src_[u] = nullptr;
      was_hit_[u] = 2;  // marker: overflow destination
      ++n_ovf;
    } else {
      src_[u] = hot_.data() + static_cast<std::size_t>(slot) * dim_;
      if (!was_hit_[u]) fill_.push_back(static_cast<std::uint32_t>(u));
    }
  }
  if (n_ovf > 0) {
    overflow_.resize(n_ovf * dim_);
    std::size_t next = 0;
    for (std::size_t u = 0; u < n_uniq; ++u) {
      if (was_hit_[u] == 2) {
        src_[u] = overflow_.data() + (next++) * dim_;
        fill_.push_back(static_cast<std::uint32_t>(u));
      }
    }
  }

  // Grain selection targets a fixed amount of work per chunk so that small
  // batches collapse to a single chunk and run inline on the caller (a pool
  // dispatch wake-up costs more than an entire serving-sized batch), while
  // cold starts and wide-row shapes still fan out. Both grains are pure
  // functions of the batch shape, so chunk boundaries — and therefore
  // results — stay independent of the thread count.
  constexpr std::size_t kFillChunkElems = 16384;  // decoded elements per chunk
  constexpr std::size_t kPoolChunkElems = 65536;  // pooled fp32 adds per chunk

  // Phase 5 — grouped fill: dequantize every needed cold row once, in
  // parallel (destinations are disjoint hot slots / overflow rows).
  const std::size_t fill_grain = std::max<std::size_t>(1, kFillChunkElems / dim_);
  parallel::parallel_for(0, fill_.size(), fill_grain,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             const std::uint32_t u = fill_[i];
                             fill_row(uniq_[u], const_cast<float*>(src_[u]));
                           }
                         });
  fills_ += fill_.size();
  bytes_from_cold_ += fill_.size() * cold_row_bytes_;
  bytes_from_hot_ += refs * dim_ * sizeof(float);

  // Phase 6 — pool per sample from the hot tier (reads only; chunking is a
  // pure function of the batch shape, so results are thread-count
  // independent).
  const std::size_t elems_per_sample =
      b > 0 ? std::max<std::size_t>(1, (refs * dim_ + b - 1) / b) : 1;
  const std::size_t pool_grain =
      std::max<std::size_t>(1, kPoolChunkElems / elems_per_sample);
  parallel::parallel_for(0, b, pool_grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      auto row = out.row(s);
      std::fill(row.begin(), row.end(), 0.0f);
      for (std::size_t r = ref_offset_[s]; r < ref_offset_[s + 1]; ++r) {
        const float* src = src_[ref_uniq_[r]];
        for (std::size_t j = 0; j < dim_; ++j) row[j] += src[j];
      }
    }
  });

  obs::counter_add("recsys.cache.batches", 1);
  obs::counter_add("recsys.cache.hits", (refs - n_uniq) + uniq_hits);
  obs::counter_add("recsys.cache.misses", n_uniq - uniq_hits);
  obs::counter_add("recsys.cache.fills", fill_.size());
  obs::counter_add("recsys.cache.bytes_from_cold", fill_.size() * cold_row_bytes_);
  obs::counter_add("recsys.cache.bytes_from_hot", refs * dim_ * sizeof(float));
}

void CachedEmbeddingTable::reset_stats() {
  hits_ = misses_ = fills_ = bytes_from_cold_ = bytes_from_hot_ = 0;
}

}  // namespace enw::recsys

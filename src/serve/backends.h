// Batch-function adapters binding enw::serve to the library's batched
// inference paths. Header-only on purpose: enw_serve itself stays free of
// model dependencies; a binary that uses one of these adapters links the
// matching model library (enw_nn / enw_recsys / enw_mann) as usual.
//
// Every adapter captures its model by reference — the model must outlive the
// Server/replay run — and runs on the collator thread only, so non-const
// backends (SimilaritySearch) need no extra locking.
//
// Value contract: each adapter routes through a batched GEMM path whose
// output rows are independent k-order dot products (see DESIGN.md "Batched
// execution"), so a request's result is bitwise-identical no matter which
// micro-batch the collator lands it in. That independence is what lets the
// serving tests diff served results against the offline predict_batch
// reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/check.h"
#include "data/click_log.h"
#include "mann/similarity_search.h"
#include "nn/mlp.h"
#include "recsys/dlrm.h"
#include "recsys/wide_and_deep.h"
#include "tensor/matrix.h"

namespace enw::serve {

/// Routing key for sharded recommendation serving (ShardRouter::route): the
/// first categorical lookup of the first table — the hot/cold entity id
/// whose embedding locality sharding is meant to exploit. A pure function
/// of the sample, so routing stays deterministic across runs and replicas;
/// samples with no sparse features route by key 0. The key is used raw: the
/// router's ring applies its own mix64, so Zipf-clustered ids still spread.
inline std::uint64_t click_routing_key(const data::ClickSample& s) {
  if (s.sparse.empty() || s.sparse.front().empty()) return 0;
  return static_cast<std::uint64_t>(s.sparse.front().front());
}

/// Serve MLP logits: collate sample vectors into a Matrix, one infer_batch
/// call, split the logit rows back out per request. Net is any model with
/// input_dim() and infer_batch(const Matrix&): nn::Mlp, the simulated-
/// quantization nn::QatMlp, or the deployed int8 engine
/// nn::QatInt8Inference (qgemm_nt int32 accumulation + one rescale per
/// layer). NOTE: int8 activation quantization is per-ROW of the collated
/// batch, i.e. per request — so int8 results stay independent of which
/// micro-batch the collator forms, preserving the serve-vs-offline bitwise
/// diff contract.
template <typename Net>
std::function<std::vector<Vector>(std::span<const Vector>)>
mlp_logits_backend(const Net& net) {
  return [&net](std::span<const Vector> batch) {
    Matrix x(batch.size(), net.input_dim());
    for (std::size_t s = 0; s < batch.size(); ++s) {
      ENW_CHECK_MSG(batch[s].size() == net.input_dim(),
                    "request width != MLP input dim");
      std::copy(batch[s].begin(), batch[s].end(), x.row(s).begin());
    }
    const Matrix logits = net.infer_batch(x);
    std::vector<Vector> out(batch.size());
    for (std::size_t s = 0; s < batch.size(); ++s) {
      out[s].assign(logits.row(s).begin(), logits.row(s).end());
    }
    return out;
  };
}

/// Serve DLRM click probabilities straight off the batched serving path.
/// With enable_embedding_cache() active the predict path gathers through the
/// cache hierarchy: residency changes per batch, but the pooled values are
/// bitwise-equal to the quantized cold-tier gather whatever the hit pattern
/// or micro-batch, so the serve-vs-offline diff contract holds unchanged.
inline std::function<std::vector<float>(std::span<const data::ClickSample>)>
dlrm_backend(const recsys::Dlrm& model) {
  return [&model](std::span<const data::ClickSample> batch) {
    return model.predict_batch(batch);
  };
}

/// Serve Wide&Deep click probabilities; same shape contract as dlrm_backend.
inline std::function<std::vector<float>(std::span<const data::ClickSample>)>
wide_and_deep_backend(const recsys::WideAndDeep& model) {
  return [&model](std::span<const data::ClickSample> batch) {
    return model.predict_batch(batch);
  };
}

/// Serve similarity-search labels: collate queries into a Matrix and score
/// them against the stored memory in one predict_batch call.
inline std::function<std::vector<std::size_t>(std::span<const Vector>)>
search_backend(mann::SimilaritySearch& index) {
  return [&index](std::span<const Vector> batch) {
    Matrix queries(batch.size(), index.dim());
    for (std::size_t s = 0; s < batch.size(); ++s) {
      ENW_CHECK_MSG(batch[s].size() == index.dim(),
                    "query width != index dim");
      std::copy(batch[s].begin(), batch[s].end(), queries.row(s).begin());
    }
    std::vector<std::size_t> out(batch.size());
    index.predict_batch(queries, out);
    return out;
  };
}

}  // namespace enw::serve

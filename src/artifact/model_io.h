// Model save/load on top of the artifact format.
//
// Save captures everything a model's predict paths read: weights, biases,
// activations, embedding tables, quantized cold tiers, learned PACT clips.
// Load rebuilds the model either as a zero-copy view into the artifact
// (Materialize::kView — serving; mutation throws) or as an owning copy
// (Materialize::kCopy — training / when the artifact must not be pinned).
//
// The contract, enforced by tests/test_artifact.cpp: for every model kind,
// save → load → predict_batch is BITWISE identical to the in-memory model,
// in both materializations and both LoadModes. This holds because weights
// are stored as raw IEEE-754 bytes and the predict paths read them through
// the same kernels either way — the artifact changes where bytes live,
// never what arithmetic runs.
//
// Zero-copy lifetime: a kView model holds raw pointers into the Artifact's
// storage, so loaders return Loaded<T> bundling the model WITH the
// shared_ptr<const Artifact> that keeps those pointers alive. kCopy models
// do not need the artifact; Loaded still carries it for uniformity (drop it
// freely).
//
// Scope notes:
//   - Mlp/Dlrm/WideAndDeep dense layers are rebuilt on DigitalLinear. An
//     analog-backed Mlp saves its fp32 weights fine, but the load is always
//     digital — backend choice is runtime configuration, not model state.
//     Their weights are stored input-major as `<prefix>.wt` (in x out), the
//     layout DigitalLinear serves from, so kView borrows them as they lie;
//     a file with only the row-major `.w` of the earlier layout fails with
//     kMissingTensor. QatMlp keeps row-major `qat.layer*.w`.
//   - The Wide part of WideAndDeep (scalar-per-value + dense linear + bias)
//     is always copied: it is tiny, and keeping it owned means kView only
//     pins what is actually large (embedding tables, MLP weights).
//   - Training caches / hot-tier residency are NOT saved: they are runtime
//     state, and the PR 7 cache contract guarantees pooled values are
//     bitwise-invariant to the hit pattern, so a fresh hot tier on load
//     preserves the bitwise round-trip.
#pragma once

#include <memory>
#include <string>

#include "artifact/artifact.h"
#include "nn/mlp.h"
#include "nn/quant.h"
#include "recsys/dlrm.h"
#include "recsys/wide_and_deep.h"

namespace enw::artifact {

enum class Materialize {
  kView,  // borrow weight blobs from the artifact (read-only model)
  kCopy,  // own all weights (trainable model; artifact not pinned)
};

/// A loaded model plus the artifact that (for kView) owns its weight bytes.
template <typename T>
struct Loaded {
  std::shared_ptr<const Artifact> artifact;
  T model;
};

// -- Mlp --------------------------------------------------------------------
void save_mlp(const nn::Mlp& model, const std::string& path);
Loaded<nn::Mlp> load_mlp(std::shared_ptr<const Artifact> a,
                         Materialize mat = Materialize::kView);
Loaded<nn::Mlp> load_mlp(const std::string& path, LoadMode mode = LoadMode::kMap,
                         Materialize mat = Materialize::kView);

// -- QatMlp (and the int8 deployment engine derived from it) ---------------
void save_qat_mlp(const nn::QatMlp& model, const std::string& path);
Loaded<nn::QatMlp> load_qat_mlp(std::shared_ptr<const Artifact> a,
                                Materialize mat = Materialize::kView);
Loaded<nn::QatMlp> load_qat_mlp(const std::string& path,
                                LoadMode mode = LoadMode::kMap,
                                Materialize mat = Materialize::kView);
/// QatInt8Inference is a deterministic re-encoding of the QatMlp lattice
/// weights, so loading the QatMlp and re-deriving the engine reproduces the
/// original engine's codes exactly — no separate artifact kind needed.
Loaded<nn::QatInt8Inference> load_qat_int8(const std::string& path,
                                           LoadMode mode = LoadMode::kMap);

// -- Dlrm -------------------------------------------------------------------
/// Saves the fp32 tables and, when the embedding cache is enabled, the
/// quantized cold tiers + cache geometry; load re-enables the cache from the
/// STORED tiers (byte-identical, not re-quantized).
void save_dlrm(const recsys::Dlrm& model, const std::string& path);
Loaded<recsys::Dlrm> load_dlrm(std::shared_ptr<const Artifact> a,
                               Materialize mat = Materialize::kView);
Loaded<recsys::Dlrm> load_dlrm(const std::string& path,
                               LoadMode mode = LoadMode::kMap,
                               Materialize mat = Materialize::kView);

// -- WideAndDeep ------------------------------------------------------------
void save_wide_and_deep(const recsys::WideAndDeep& model, const std::string& path);
Loaded<recsys::WideAndDeep> load_wide_and_deep(std::shared_ptr<const Artifact> a,
                                               Materialize mat = Materialize::kView);
Loaded<recsys::WideAndDeep> load_wide_and_deep(const std::string& path,
                                               LoadMode mode = LoadMode::kMap,
                                               Materialize mat = Materialize::kView);

}  // namespace enw::artifact

// The per-shard run behind replay_trace and replay_sharded.
//
// Not part of the public API: include only from src/serve TUs (replay.cpp,
// shard_replay.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "serve/replay.h"

namespace enw::serve::detail {

/// replay_trace with a drain instant: from drain_from_ns on (0 = never)
/// flushes stop waiting for size/window triggers and push whatever is
/// queued as soon as the executor frees — how a shard retired by a
/// scripted kRemove drains its admitted requests.
ReplayResult replay_shard(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec,
                          std::uint64_t drain_from_ns);

}  // namespace enw::serve::detail

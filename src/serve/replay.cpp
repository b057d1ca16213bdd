#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "core/check.h"
#include "obs/obs.h"
#include "serve/replay_internal.h"
#include "serve/serve_core.h"

namespace enw::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

void append_ids(std::ostringstream& os, std::span<const std::size_t> ids) {
  os << "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ",";
    os << ids[i];
  }
  os << "]";
}

}  // namespace

std::string ReplayResult::boundary_log() const {
  std::ostringstream os;
  std::size_t s = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (; s < swaps.size() && swaps[s].first_batch == b; ++s) {
      os << "swap: t=" << swaps[s].at_ns << "ns v=" << swaps[s].version
         << " first_batch=" << b << "\n";
    }
    const BatchRecord& rec = batches[b];
    os << "batch " << b << ": t=" << rec.flush_ns
       << "ns reason=" << flush_reason_name(rec.reason)
       << " n=" << rec.executed.size() << " ids=";
    append_ids(os, rec.executed);
    os << " shed=";
    append_ids(os, rec.shed);
    os << " v=" << rec.version << "\n";
  }
  return os.str();
}

ReplayResult replay_trace(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec) {
  return detail::replay_shard(trace, cfg, exec, /*drain_from_ns=*/0);
}

namespace detail {

ReplayResult replay_shard(std::span<const TraceEvent> trace,
                          const ReplayConfig& cfg, const ReplayExec& exec,
                          std::uint64_t drain_from_ns) {
  ENW_SPAN("serve.replay");
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ENW_CHECK_MSG(trace[i - 1].arrival_ns <= trace[i].arrival_ns,
                  "trace arrivals must be non-decreasing");
  }
  for (std::size_t i = 1; i < cfg.swaps.size(); ++i) {
    ENW_CHECK_MSG(cfg.swaps[i - 1].at_ns <= cfg.swaps[i].at_ns,
                  "swap events must be non-decreasing in at_ns");
  }
  // The request handle is the trace index.
  ServeCore<std::size_t> core(cfg.serve, cfg.tenants);
  for (const TraceEvent& e : trace) {
    ENW_CHECK_MSG(e.tenant < core.tenants().size(),
                  "trace event names unknown tenant");
  }

  ReplayResult result;
  result.outcomes.resize(trace.size());
  const auto resolve = [&](std::size_t id, Status s, std::uint64_t t) {
    result.outcomes[id] = {s, t, t - trace[id].arrival_ns};
  };
  // The one executor: the batch running on it, whether its exec threw, and
  // the instant it frees.
  std::optional<ServeCore<std::size_t>::Batch> running;
  bool failed = false;
  std::uint64_t exec_free_ns = 0;
  std::uint64_t now = 0;
  std::size_t next = 0;      // next trace event to process
  std::size_t swap_idx = 0;  // next scripted swap to activate

  while (next < trace.size() || core.queued() != 0 || running) {
    const std::uint64_t done_at = running ? exec_free_ns : kNever;
    // Earliest instant the current queue state can flush (policy + executor).
    // Outside drain the trace plays out to quiescence: the final partial
    // batch flushes by its window like any other.
    std::uint64_t flush_at = kNever;
    if (core.queued() != 0) {
      const FlushDecision d = core.due(now, /*draining=*/false);
      flush_at = std::max(d.due ? now : d.wake_ns, exec_free_ns);
      if (drain_from_ns != 0) {
        // Drain mode: from drain_from_ns the queue flushes as soon as the
        // executor allows, instead of waiting for size/window triggers.
        flush_at =
            std::min(flush_at, std::max({drain_from_ns, now, exec_free_ns}));
      }
    }
    const std::uint64_t next_arrival =
        next < trace.size() ? trace[next].arrival_ns : kNever;

    if (done_at <= std::min(next_arrival, flush_at)) {
      // Completion. It frees its slots and admits blocked arrivals before
      // arrivals and the flush at the same instant (the tie rule).
      now = done_at;
      core.finish(*running, failed, now);
      running.reset();
      continue;
    }

    if (next_arrival <= flush_at) {
      // Arrival. Arrivals at the flush instant are admitted first — the
      // documented tie rule that makes boundaries a pure trace function.
      now = next_arrival;
      const std::size_t id = next++;
      if (core.arrive(id, trace[id].tenant, trace[id].deadline_ns, now) ==
          Admission::kRejected) {
        result.outcomes[id] = {Status::kRejected, now, 0};
      }
      continue;
    }

    // Flush. Activate scripted swaps due by this instant first — the replay
    // twin of the live server's capture-under-lock: the version is fixed
    // BEFORE the batch is collated, so the whole batch runs on one version.
    // A swap scripted after the last flush never reaches this point and
    // stays unactivated.
    now = flush_at;
    while (swap_idx < cfg.swaps.size() && cfg.swaps[swap_idx].at_ns <= now) {
      result.swaps.push_back({cfg.swaps[swap_idx].at_ns,
                              cfg.swaps[swap_idx].version,
                              result.batches.size()});
      core.swap(cfg.swaps[swap_idx].version);
      ++swap_idx;
    }
    ServeCore<std::size_t>::Batch batch =
        core.collate(now, drain_from_ns != 0 && now >= drain_from_ns);
    for (const std::size_t id : batch.shed) resolve(id, Status::kTimedOut, now);
    result.batches.push_back(
        {now, batch.reason, batch.executed, batch.shed, batch.version});
    if (batch.executed.empty()) continue;
    // Typed faults, as Server::run_batch: a throw resolves the whole batch
    // kError and replay continues, with the executor still occupied for the
    // service interval it spent failing.
    failed = false;
    try {
      exec(std::span<const std::size_t>(batch.executed), batch.version);
    } catch (...) {
      failed = true;
    }
    exec_free_ns = now + cfg.service_ns;
    for (const std::size_t id : batch.executed) {
      resolve(id, failed ? Status::kError : Status::kOk, exec_free_ns);
    }
    running = std::move(batch);
  }
  ENW_CHECK_MSG(core.blocked() == 0,
                "blocked arrivals left with no room to free");
  result.stats = core.stats();
  result.tenant_stats = core.tenant_stats();
  return result;
}

}  // namespace detail

std::uint64_t poisson_gap_ns(double mean_gap_ns, double u) {
  ENW_CHECK_MSG(mean_gap_ns >= 0.0, "mean gap must be non-negative");
  // u == 1.0 would give log(0) = -inf; casting the resulting +inf (or any
  // value >= 2^64) to uint64_t is undefined behaviour. Both clamps are
  // no-ops for in-contract draws, so seeded traces are unchanged.
  const double one_minus_u =
      std::max(1.0 - u, std::numeric_limits<double>::min());
  const double gap = -mean_gap_ns * std::log(one_minus_u);
  constexpr double kMaxGap = 9223372036854775808.0;  // 2^63, exact in double
  return static_cast<std::uint64_t>(std::clamp(gap, 0.0, kMaxGap));
}

std::vector<TraceEvent> poisson_trace(std::size_t n, double mean_gap_ns,
                                      std::uint64_t relative_deadline_ns,
                                      Rng& rng) {
  ENW_CHECK_MSG(mean_gap_ns >= 0.0, "mean gap must be non-negative");
  std::vector<TraceEvent> trace(n);
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += poisson_gap_ns(mean_gap_ns, rng.uniform());
    trace[i].arrival_ns = t;
    trace[i].deadline_ns =
        relative_deadline_ns == 0 ? 0 : t + relative_deadline_ns;
  }
  return trace;
}

std::vector<std::uint64_t> tenant_latencies(const ReplayResult& result,
                                            std::span<const TraceEvent> trace,
                                            std::uint32_t tenant) {
  ENW_CHECK_MSG(result.outcomes.size() == trace.size(),
                "outcomes/trace length mismatch");
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].tenant == tenant && result.outcomes[i].status == Status::kOk) {
      out.push_back(result.outcomes[i].latency_ns);
    }
  }
  return out;
}

}  // namespace enw::serve

#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <sstream>

#include "core/check.h"
#include "obs/obs.h"
#include "serve/replay_internal.h"

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
  ENW_CHECK_MSG(cfg.serve.max_batch > 0, "max_batch must be positive");
  ENW_CHECK_MSG(cfg.serve.queue_capacity > 0, "queue_capacity must be positive");
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ENW_CHECK_MSG(trace[i - 1].arrival_ns <= trace[i].arrival_ns,
                  "trace arrivals must be non-decreasing");
  }
  for (std::size_t i = 1; i < cfg.swaps.size(); ++i) {
    ENW_CHECK_MSG(cfg.swaps[i - 1].at_ns <= cfg.swaps[i].at_ns,
                  "swap events must be non-decreasing in at_ns");
  }

  // An empty tenant table is the plain Server: one tenant with the serve
  // config's admission mode and no quota, so only the queue bound admits.
  const std::vector<TenantPolicy> tenants =
      resolve_tenants(cfg.tenants, cfg.serve.admission);
  std::vector<std::size_t> quota(tenants.size(),
                                 std::numeric_limits<std::size_t>::max());
  if (!cfg.tenants.empty()) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      quota[t] = tenant_quota(tenants[t], cfg.serve.queue_capacity);
    }
  }
  for (const TraceEvent& e : trace) {
    ENW_CHECK_MSG(e.tenant < tenants.size(), "trace event names unknown tenant");
  }
  // Absolute shed deadline: the event's own stamp wins; otherwise the
  // tenant's relative SLO deadline counted from arrival (0 = none).
  const auto deadline_of = [&](std::size_t id) -> std::uint64_t {
    if (trace[id].deadline_ns != 0) return trace[id].deadline_ns;
    const std::uint64_t rel = tenants[trace[id].tenant].deadline_ns;
    return rel == 0 ? 0 : trace[id].arrival_ns + rel;
  };

  ReplayResult result;
  result.outcomes.resize(trace.size());
  result.stats.submitted = trace.size();
  result.tenant_stats.resize(tenants.size());

  struct Queued {
    std::size_t id;
    std::uint64_t enqueue_ns;  // admission time: starts the batching window
  };
  std::deque<Queued> queue;
  std::deque<std::size_t> blocked;  // kBlock arrivals waiting for room
  std::vector<std::size_t> held(tenants.size(), 0);  // slots held per tenant
  std::vector<std::size_t> running;  // executing batch, done at exec_free_ns
  std::uint64_t exec_free_ns = 0;    // executor available from this instant
  std::uint64_t now = 0;
  std::size_t next = 0;  // next trace event to process
  std::uint64_t version = 0;   // active backend version (0 = initial)
  std::size_t swap_idx = 0;    // next scripted swap to activate

  // A request takes one of its tenant's slots on admission and returns it
  // at its terminal status.
  const auto enqueue = [&](std::size_t id) {
    queue.push_back({id, now});
    ++held[trace[id].tenant];
    result.stats.queue_peak = std::max(result.stats.queue_peak, queue.size());
  };
  // Blocked arrivals admit FIFO as room frees; their window starts now. A
  // waiter whose tenant is still at quota keeps its place, so an over-budget
  // tenant cannot take room another tenant's waiter could use.
  const auto admit_blocked = [&] {
    for (auto it = blocked.begin();
         it != blocked.end() && queue.size() < cfg.serve.queue_capacity;) {
      const std::uint32_t ten = trace[*it].tenant;
      if (held[ten] < quota[ten]) {
        enqueue(*it);
        it = blocked.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (next < trace.size() || !queue.empty() || !running.empty()) {
    const std::uint64_t done_at = running.empty() ? kNever : exec_free_ns;
    // Earliest instant the current queue state can flush (policy + executor).
    // Outside drain the trace plays out to quiescence: the final partial
    // batch flushes by its window like any other.
    std::uint64_t flush_at = kNever;
    if (!queue.empty()) {
      const FlushDecision d = flush_due(now, queue.front().enqueue_ns,
                                        queue.size(), /*draining=*/false,
                                        cfg.serve);
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
      for (std::size_t id : running) --held[trace[id].tenant];
      running.clear();
      admit_blocked();
      continue;
    }

    if (next_arrival <= flush_at) {
      // Admission. Arrivals at the flush instant are admitted first — the
      // documented tie rule that makes boundaries a pure trace function.
      now = next_arrival;
      const std::size_t id = next++;
      const std::uint32_t ten = trace[id].tenant;
      ++result.tenant_stats[ten].submitted;
      // A tenant is admissible while the shared queue has room AND it holds
      // fewer slots than its quota. Over-budget behaviour follows the
      // TENANT's admission mode, so one tenant's saturation never turns into
      // another tenant's reject.
      if (queue.size() < cfg.serve.queue_capacity && held[ten] < quota[ten]) {
        enqueue(id);
      } else if (tenants[ten].admission == AdmissionPolicy::kReject) {
        ++result.stats.rejected;
        ++result.tenant_stats[ten].rejected;
        result.outcomes[id] = {Status::kRejected, now, 0};
      } else {
        blocked.push_back(id);
      }
      continue;
    }

    // Flush. Re-evaluate the policy AT the flush instant so the recorded
    // reason is the one the trigger actually fired with.
    now = flush_at;
    // Activate scripted swaps due by this flush instant — the replay twin of
    // the live server's capture-under-lock: the version is fixed BEFORE the
    // batch is collated, so the whole batch runs on one version. A swap
    // scripted after the last flush never reaches this point and stays
    // unactivated.
    while (swap_idx < cfg.swaps.size() && cfg.swaps[swap_idx].at_ns <= now) {
      result.swaps.push_back({cfg.swaps[swap_idx].at_ns,
                              cfg.swaps[swap_idx].version,
                              result.batches.size()});
      version = cfg.swaps[swap_idx].version;
      ++swap_idx;
    }
    const bool draining = drain_from_ns != 0 && now >= drain_from_ns;
    const FlushDecision d = flush_due(now, queue.front().enqueue_ns,
                                      queue.size(), draining, cfg.serve);
    ENW_CHECK_MSG(d.due, "flush scheduled but policy not due");

    BatchRecord rec;
    rec.flush_ns = now;
    rec.reason = d.reason;
    rec.version = version;
    const std::size_t take = std::min(queue.size(), cfg.serve.max_batch);
    for (std::size_t i = 0; i < take; ++i) {
      const Queued q = queue.front();
      queue.pop_front();
      const std::uint32_t ten = trace[q.id].tenant;
      if (deadline_expired(deadline_of(q.id), now)) {
        // A shed request reaches its terminal status here: its slot frees.
        --held[ten];
        rec.shed.push_back(q.id);
        ++result.stats.shed;
        ++result.tenant_stats[ten].shed;
        result.outcomes[q.id] = {Status::kTimedOut, now,
                                 now - trace[q.id].arrival_ns};
      } else {
        rec.executed.push_back(q.id);
      }
    }
    admit_blocked();
    if (!rec.executed.empty()) {
      // Typed faults, as Server::run_batch: a throw resolves the whole batch
      // kError and replay continues, with the executor still occupied for
      // the service interval it spent failing.
      bool failed = false;
      try {
        exec(std::span<const std::size_t>(rec.executed), version);
      } catch (...) {
        failed = true;
      }
      const std::uint64_t complete = now + cfg.service_ns;
      exec_free_ns = complete;
      running = rec.executed;
      if (failed) {
        result.stats.errors += rec.executed.size();
        for (std::size_t id : rec.executed) {
          ++result.tenant_stats[trace[id].tenant].errors;
          result.outcomes[id] = {Status::kError, complete,
                                 complete - trace[id].arrival_ns};
        }
      } else {
        for (std::size_t id : rec.executed) {
          ++result.stats.completed;
          ++result.tenant_stats[trace[id].tenant].completed;
          result.outcomes[id] = {Status::kOk, complete,
                                 complete - trace[id].arrival_ns};
        }
        result.stats.record_batch(rec.executed.size());
      }
    }
    result.batches.push_back(std::move(rec));
  }
  ENW_CHECK_MSG(blocked.empty(), "blocked arrivals left with no room to free");
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

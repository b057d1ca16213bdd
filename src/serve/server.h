// Live concurrent serving front-end (enw::serve::Server).
//
// N client threads call submit(); a single collator thread coalesces admitted
// requests into dynamic micro-batches (policy: serve.h flush_due) and runs
// them through a user-supplied BatchFn — typically one of the batched GEMM
// paths wrapped by backends.h. submit() is synchronous: it blocks until its
// request reaches a terminal Status, which is the natural shape for a
// closed-loop client thread and keeps each request's node on the
// submitter's stack. The serving path still allocates: the collator copies
// each request into the batch's input vector and builds a few vectors per
// batch, and the backend allocates its outputs (a counting operator new saw
// 5.8 heap allocations per served MLP request, 4 clients, max_batch 4).
//
// Every serving policy — the bounded queue, tenant quotas, the blocked FIFO,
// deadlines, shedding, versions and stats — lives in the thread-free
// ServeCore (serve_core.h), which replay drives too. This class adds only
// the lock, the collator thread, the clock and the backend capture.
//
// Concurrency design:
//  * One mutex guards the core, the backend, and the completion flags; the
//    collator releases it around BatchFn execution, so admission proceeds
//    while a batch runs (that overlap is what makes the window trigger
//    meaningful under load).
//  * Two condition variables. cv_work_ wakes the collator: a request was
//    queued, or shutdown began. cv_done_ is broadcast when requests reach
//    their terminal status; each submitter waits on it for its own done
//    flag, written under the mutex, and never touches its node after
//    waking. A submitter blocked on a full queue or on its tenant's quota
//    waits on cv_done_ too: the collator admits blocked arrivals itself, in
//    FIFO order, whenever a collation or a completion frees room.
//  * A BatchFn exception (e.g. std::bad_alloc from a Matrix allocation
//    mid-GEMM) marks every request of that batch Status::kError — a definite
//    outcome, never a hang — and the server keeps serving subsequent batches.
//    test_serve_fault.cpp drives this through the testkit fault campaign.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/check.h"
#include "obs/obs.h"
#include "serve/serve.h"
#include "serve/serve_core.h"
#include "serve/shard.h"

namespace enw::serve {

template <typename In, typename Out>
class Server {
 public:
  /// Executes one collated batch; must return exactly one Out per In.
  using BatchFn = std::function<std::vector<Out>(std::span<const In>)>;

  struct Reply {
    Status status = Status::kError;
    Out value{};                    // valid only when status == kOk
    std::uint64_t latency_ns = 0;   // submit entry -> terminal status
  };

  /// `tenants` is the tenant table submit()'s tenant ids index; empty means
  /// one tenant with cfg.admission and no quota (see serve_core.h).
  Server(const ServeConfig& cfg, BatchFn fn,
         const std::vector<TenantPolicy>& tenants = {})
      : core_(cfg, tenants),
        fn_(std::make_shared<const BatchFn>(std::move(fn))) {
    ENW_CHECK_MSG(static_cast<bool>(*fn_), "batch function must be callable");
    collator_ = std::thread([this] { collate_loop(); });
  }

  ~Server() { shutdown(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one request for `tenant` and block until it reaches a terminal
  /// status. deadline_ns is an ABSOLUTE monotonic_now_ns() timestamp; 0 uses
  /// the tenant's relative deadline counted from this call (none if 0). A
  /// request whose deadline has passed when its batch is collated is shed
  /// with Status::kTimedOut instead of being executed.
  Reply submit(const In& input, std::uint64_t deadline_ns = 0,
               std::size_t tenant = 0) {
    ENW_SPAN("serve.enqueue");
    const std::uint64_t arrival = monotonic_now_ns();
    Pending node;
    node.input = &input;
    Reply reply;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (stopping_) {
        node.status = Status::kShutdown;
      } else {
        switch (core_.arrive(&node, tenant, deadline_ns, arrival)) {
          case Admission::kQueued:
            cv_work_.notify_one();
            [[fallthrough]];
          case Admission::kBlocked:
            cv_done_.wait(lk, [&node] { return node.done; });
            break;
          case Admission::kRejected:
            node.status = Status::kRejected;
            obs::counter_add("serve.rejected", 1);
            break;
        }
      }
      reply.status = node.status;
      if (node.status == Status::kOk) reply.value = std::move(node.out);
    }
    reply.latency_ns = monotonic_now_ns() - arrival;
    return reply;
  }

  /// Stop admissions, drain every admitted request, join the collator.
  /// Idempotent and safe to call from multiple threads; the destructor calls
  /// it too. Submitters blocked on a full queue or quota get kShutdown.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
      for (Pending* p : core_.cancel_blocked()) resolve(p, Status::kShutdown);
      cv_done_.notify_all();
      cv_work_.notify_all();
    }
    std::lock_guard<std::mutex> jk(join_mu_);
    if (collator_.joinable()) collator_.join();
  }

  ServerStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return core_.stats();
  }

  /// Atomically replace the backend with `fn`, tagged `version`, WITHOUT
  /// stopping traffic. Atomicity contract:
  ///   * Validation happens before anything is replaced — a non-callable fn
  ///     throws and the old backend keeps serving untouched (the rollback
  ///     guarantee the fault campaign pins down).
  ///   * Each batch runs entirely on the backend captured when the batch is
  ///     collated: a batch in flight during the swap completes on the OLD
  ///     version; the next collated batch runs on the NEW one. No batch ever
  ///     mixes versions and no request is dropped by a swap.
  ///   * The boundary is recorded as a SwapRecord in swap_history().
  void swap_backend(BatchFn fn, std::uint64_t version) {
    ENW_CHECK_MSG(static_cast<bool>(fn), "swap_backend: fn must be callable");
    auto next = std::make_shared<const BatchFn>(std::move(fn));
    std::lock_guard<std::mutex> lk(mu_);
    SwapRecord rec;
    rec.version = version;
    rec.swap_ns = monotonic_now_ns();
    rec.batches_before = core_.stats().batches;
    rec.requests_before = core_.stats().executed_requests;
    swap_history_.push_back(rec);
    fn_ = std::move(next);
    core_.swap(version);
    obs::counter_add("serve.swaps", 1);
  }

  /// Version tag of the currently-installed backend (0 = the constructor
  /// backend, never swapped).
  std::uint64_t backend_version() const {
    std::lock_guard<std::mutex> lk(mu_);
    return core_.version();
  }

  std::vector<SwapRecord> swap_history() const {
    std::lock_guard<std::mutex> lk(mu_);
    return swap_history_;
  }

  /// Requests currently admitted but not yet collated (for tests that need
  /// to sequence submissions against the collator without sleeping).
  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return core_.queued();
  }

 private:
  struct Pending {
    const In* input = nullptr;
    Out out{};
    Status status = Status::kError;
    bool done = false;
  };
  using Core = ServeCore<Pending*>;

  /// Caller holds mu_ and broadcasts cv_done_.
  static void resolve(Pending* p, Status s) {
    p->status = s;
    p->done = true;
  }

  void collate_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (core_.queued() == 0) {
        if (stopping_) return;  // drained
        cv_work_.wait(lk);
        continue;
      }
      const std::uint64_t now = monotonic_now_ns();
      const FlushDecision d = core_.due(now, stopping_);
      if (!d.due) {
        // !due guarantees wake_ns > now (flush_due fires at now >= wake).
        cv_work_.wait_for(lk, std::chrono::nanoseconds(d.wake_ns - now));
        continue;  // re-evaluate: new arrivals / shutdown / window expiry
      }
      run_batch(lk, now);
    }
  }

  /// Collate at `now`, resolve the shed, execute the rest. Enters and leaves
  /// with lk held; drops it around the backend call.
  void run_batch(std::unique_lock<std::mutex>& lk, std::uint64_t now) {
    ENW_SPAN("serve.collate");
    const typename Core::Batch batch = core_.collate(now, stopping_);
    // Shed promptly, before the batch runs: a timed-out request's reply must
    // not also wait out the execution it was shed from.
    if (!batch.shed.empty()) {
      obs::counter_add("serve.shed", batch.shed.size());
      for (Pending* p : batch.shed) resolve(p, Status::kTimedOut);
      cv_done_.notify_all();
    }
    if (batch.executed.empty()) return;
    std::vector<In> inputs;
    inputs.reserve(batch.executed.size());
    for (const Pending* p : batch.executed) inputs.push_back(*p->input);

    // Capture the backend under the lock that collated the batch: THIS is
    // the swap atomicity point. The batch executes entirely on the capture;
    // a concurrent swap_backend replaces fn_ for the NEXT batch and the
    // shared_ptr keeps the old backend (and whatever model storage it
    // closes over) alive until this batch finishes.
    const std::shared_ptr<const BatchFn> fn = fn_;
    lk.unlock();  // admission proceeds during execution
    std::vector<Out> outs;
    bool failed = false;
    {
      ENW_SPAN("serve.execute");
      try {
        outs = (*fn)(std::span<const In>(inputs));
        failed = outs.size() != batch.executed.size();
      } catch (...) {
        failed = true;
      }
    }
    lk.lock();

    core_.finish(batch, failed, monotonic_now_ns());
    if (failed) {
      obs::counter_add("serve.errors", batch.executed.size());
      for (Pending* p : batch.executed) resolve(p, Status::kError);
    } else {
      obs::counter_add("serve.batches", 1);
      obs::counter_add("serve.executed_requests", batch.executed.size());
      for (std::size_t i = 0; i < batch.executed.size(); ++i) {
        batch.executed[i]->out = std::move(outs[i]);
        resolve(batch.executed[i], Status::kOk);
      }
    }
    cv_done_.notify_all();
  }

  mutable std::mutex mu_;
  // Guarded by mu_.
  Core core_;
  // Guarded by mu_; replaced whole by swap_backend, captured per batch.
  std::shared_ptr<const BatchFn> fn_;
  std::vector<SwapRecord> swap_history_;
  std::condition_variable cv_work_;  // collator: work queued / shutdown
  std::condition_variable cv_done_;  // submitters: a request reached terminal
  bool stopping_ = false;

  std::mutex join_mu_;  // serializes concurrent shutdown() joins
  std::thread collator_;
};

}  // namespace enw::serve

#include "perfbench.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "artifact/model_io.h"
#include "bench_util.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "data/synthetic_mnist.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/server.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using enw::Matrix;
using enw::Rng;
using enw::Vector;
using enw::data::ClickSample;
namespace artifact = enw::artifact;
namespace serve = enw::serve;

std::uint64_t now_ns() { return serve::monotonic_now_ns(); }

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string model_path(const std::string& dir) { return dir + "/model.enw"; }
std::string pool_path(const std::string& dir) { return dir + "/pool.bin"; }

// -- pool file ---------------------------------------------------------------
// Inputs and their offline references, written by prepare() and read back by
// run() of the same binary: native-endian u64 counts followed by raw arrays.

class PoolWriter {
 public:
  explicit PoolWriter(const std::string& path) : f_(path, std::ios::binary) {
    if (!f_) throw std::runtime_error("cannot write " + path);
  }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void floats(std::span<const float> v) { raw(v.data(), v.size_bytes()); }
  void sizes(std::span<const std::size_t> v) {
    u64(v.size());
    for (std::size_t x : v) u64(x);
  }
  void close() {
    f_.close();
    if (!f_) throw std::runtime_error("pool file write failed");
  }

 private:
  void raw(const void* p, std::size_t n) {
    f_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }
  std::ofstream f_;
};

class PoolReader {
 public:
  explicit PoolReader(const std::string& path) : f_(path, std::ios::binary) {
    if (!f_) throw std::runtime_error("cannot read " + path);
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  /// A count that must not exceed `limit` (guards the allocations below).
  std::size_t count(std::uint64_t limit) {
    const std::uint64_t n = u64();
    if (n > limit) throw std::runtime_error("pool file: count out of range");
    return static_cast<std::size_t>(n);
  }
  void floats(std::span<float> v) { raw(v.data(), v.size_bytes()); }
  std::vector<std::size_t> sizes() {
    std::vector<std::size_t> v(count(1u << 20));
    for (std::size_t& x : v) x = static_cast<std::size_t>(u64());
    return v;
  }

 private:
  void raw(void* p, std::size_t n) {
    f_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!f_) throw std::runtime_error("pool file truncated");
  }
  std::ifstream f_;
};

constexpr std::uint64_t kMaxPool = 1u << 24;

struct MlpPool {
  Matrix inputs;  // pool x input_dim
  Matrix refs;    // pool x output_dim: one-sample infer_batch of each row
};

struct ClickPool {
  std::vector<ClickSample> samples;
  std::vector<float> refs;  // one-sample predict_batch of each sample
};

void write_pool(const std::string& path, const MlpPool& p) {
  PoolWriter w(path);
  w.u64(p.inputs.rows());
  w.u64(p.inputs.cols());
  w.u64(p.refs.cols());
  w.floats({p.inputs.data(), p.inputs.size()});
  w.floats({p.refs.data(), p.refs.size()});
  w.close();
}

MlpPool read_mlp_pool(const std::string& path) {
  PoolReader r(path);
  const std::size_t n = r.count(kMaxPool);
  const std::size_t in = r.count(1u << 16);
  const std::size_t out = r.count(1u << 16);
  MlpPool p{Matrix(n, in), Matrix(n, out)};
  r.floats({p.inputs.data(), p.inputs.size()});
  r.floats({p.refs.data(), p.refs.size()});
  return p;
}

void write_pool(const std::string& path, const ClickPool& p) {
  PoolWriter w(path);
  w.u64(p.samples.size());
  for (std::size_t i = 0; i < p.samples.size(); ++i) {
    const ClickSample& s = p.samples[i];
    w.u64(s.dense.size());
    w.floats(s.dense);
    w.u64(s.sparse.size());
    for (const auto& list : s.sparse) w.sizes(list);
    w.floats({&s.label, 1});
    w.floats({&p.refs[i], 1});
  }
  w.close();
}

ClickPool read_click_pool(const std::string& path) {
  PoolReader r(path);
  ClickPool p;
  p.samples.resize(r.count(kMaxPool));
  p.refs.resize(p.samples.size());
  for (std::size_t i = 0; i < p.samples.size(); ++i) {
    ClickSample& s = p.samples[i];
    s.dense.resize(r.count(1u << 16));
    r.floats(s.dense);
    s.sparse.resize(r.count(1u << 16));
    for (auto& list : s.sparse) list = r.sizes();
    r.floats({&s.label, 1});
    r.floats({&p.refs[i], 1});
  }
  return p;
}

/// Wait until `path` is on disk, so the kernel's write-back of a freshly
/// written artifact does not compete with the measured process.
void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + path);
  }
  ::close(fd);
}

// -- seeded models and inputs ------------------------------------------------
// One seed, independent streams: weights, inputs and tenant assignment.

enw::nn::Mlp make_mlp(const Spec& spec) {
  Rng rng(spec.seed);
  enw::nn::MlpConfig cfg;
  cfg.dims = spec.mlp_dims;
  cfg.hidden_activation = enw::nn::Activation::kRelu;
  return enw::nn::Mlp(cfg, enw::nn::DigitalLinear::factory(rng));
}

enw::data::ClickLogConfig click_config(const Spec& spec) {
  enw::data::ClickLogConfig c;
  c.num_dense = spec.dlrm.num_dense;
  c.num_tables = spec.dlrm.num_tables;
  c.rows_per_table = spec.dlrm.rows_per_table;
  c.seed = spec.seed;
  return c;
}

Rng input_rng(const Spec& spec) { return Rng(spec.seed ^ 0x1A7B'0000'0000'0001ULL); }

// -- timing helpers ------------------------------------------------------------

std::uint64_t pct(std::vector<std::uint64_t>& v, double p) {
  std::sort(v.begin(), v.end());
  return serve::percentile_sorted_ns(v, p);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Calls fn repeatedly (at least `min_calls` times and ~`budget_ns`) and
/// returns the median duration of one call.
template <typename Fn>
std::uint64_t median_call_ns(Fn&& fn, std::size_t min_calls, std::uint64_t budget_ns) {
  std::vector<std::uint64_t> t;
  const std::uint64_t begin = now_ns();
  while (t.size() < min_calls || now_ns() - begin < budget_ns) {
    const std::uint64_t a = now_ns();
    fn();
    t.push_back(now_ns() - a);
  }
  return pct(t, 50.0);
}

/// Pin the calling thread, and so every thread it creates afterwards, to the
/// last CPU it may run on; returns that CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return c;
  }
  throw std::runtime_error("no CPU in the affinity mask");
}

/// Keeps the pinned CPU busy at SCHED_IDLE priority, so the vCPU never
/// halts: every other thread preempts it at once, and a timer or futex
/// wake-up no longer waits for the host to resume a halted vCPU.
class IdleSpinner {
 public:
  IdleSpinner() : thread_([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();  // spare the core's other hardware thread
#endif
    }
  }) {
    sched_param p{};
    if (pthread_setschedparam(thread_.native_handle(), SCHED_IDLE, &p) != 0) {
      stop();
      throw std::runtime_error("cannot set SCHED_IDLE");
    }
  }
  ~IdleSpinner() { stop(); }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The program's peak resident set over set-up and the measured phase.
/// `setup_mib` is the peak at the end of set-up. Read again right after the
/// measured phase, the peak also holds `record_bytes` of the benchmark's own
/// per-request records, which only grow during the phase and grow with the
/// request rate; leaving them out gives the program's own peak exactly when
/// that peak falls at the end of the phase (a flat or growing resident
/// set), and undercounts an earlier transient by at most `record_bytes`.
double program_peak_rss_mib(double setup_mib, std::size_t record_bytes) {
  const double phase_mib = peak_rss_mib();
  const double record_mib = static_cast<double>(record_bytes) / (1024.0 * 1024.0);
  std::printf("peak RSS: %.3f MiB at the end of set-up; %.3f MiB after the measured "
              "phase, of which %.3f MiB are the benchmark's request records\n",
              setup_mib, phase_mib, record_mib);
  return std::max(setup_mib, phase_mib - record_mib);
}

// -- serving harness -----------------------------------------------------------

/// Reply type of every served workload: the backend's value plus which batch
/// produced it and when that batch ran (stamped in traced runs only).
template <typename T>
struct Stamped {
  T value{};
  std::uint64_t batch = 0;  // 1-based sequence number on its collator
  std::uint32_t batch_size = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Wrap a library backend so every reply says which batch served it.
template <typename In, typename T>
std::function<std::vector<Stamped<T>>(std::span<const In>)> stamped(
    std::function<std::vector<T>(std::span<const In>)> inner, bool trace) {
  // Runs on the server's single collator thread, so `seq` needs no lock.
  return [inner = std::move(inner), trace,
          seq = std::uint64_t{0}](std::span<const In> batch) mutable {
    const std::uint64_t start = trace ? now_ns() : 0;
    std::vector<T> outs = inner(batch);
    const std::uint64_t end = trace ? now_ns() : 0;
    ++seq;
    std::vector<Stamped<T>> replies(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      replies[i] = {std::move(outs[i]), seq, static_cast<std::uint32_t>(batch.size()),
                    start, end};
    }
    return replies;
  };
}

/// One request as its client saw it.
struct Record {
  std::size_t pool_idx = 0;
  bool ok = false;
  std::uint64_t batch = 0;
  std::uint32_t batch_size = 0;
  Stamps t;
};

std::span<const float> floats_of(const Vector& v) { return v; }
std::span<const float> floats_of(const float& x) { return {&x, 1}; }

/// Stamp the reply's return and check it against the offline reference.
template <typename Reply>
void finish(Record& r, const Reply& reply, std::span<const float> ref) {
  r.t.return_ns = now_ns();
  if (reply.status != serve::Status::kOk) return;
  r.ok = bitwise_equal(floats_of(reply.value.value), ref);
  r.batch = reply.value.batch;
  r.batch_size = reply.value.batch_size;
  r.t.batch_start_ns = reply.value.start_ns;
  r.t.batch_end_ns = reply.value.end_ns;
}

struct Phase {
  std::vector<std::vector<Record>> per_client;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

/// Closed loop: `clients` threads each call submit(client, k) back to back,
/// `count` times each, or (count == 0) until `seconds` have passed.
template <typename Submit>
Phase drive(std::size_t clients, std::size_t count, double seconds,
            const Submit& submit) {
  Phase ph;
  ph.per_client.resize(clients);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::vector<Record>& recs = ph.per_client[c];
        // Reserve for 200k requests/s, so the buffer never regrows: its
        // untouched capacity is not resident, and its filled pages are taken
        // out of the peak resident set, which a regrowth's freed copy would
        // still hold.
        recs.reserve(count != 0 ? count
                                : static_cast<std::size_t>(seconds * 2e5) / clients + 1024);
        for (std::size_t k = 0;
             count == 0 ? !stop.load(std::memory_order_relaxed) : k < count; ++k) {
          recs.push_back(submit(c, k));
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  ph.t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (count == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    ph.t1 = now_ns();
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) t.join();
  if (count != 0) ph.t1 = now_ns();
  if (error) std::rethrow_exception(error);
  return ph;
}

/// Client c's k-th request: clients walk the pool from evenly spaced offsets.
std::size_t pool_index(const Spec& spec, std::size_t pool, std::size_t c,
                       std::size_t k) {
  return (c * (pool / spec.clients) + k) % pool;
}

// -- accounting -----------------------------------------------------------------

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  void add(const Phase& ph) {
    for (const auto& recs : ph.per_client) {
      sent += recs.size();
      for (const Record& r : recs) failed += r.ok ? 0 : 1;
    }
  }
};

std::size_t resident_record_bytes(const Phase& ph) {
  std::size_t bytes = 0;
  for (const auto& recs : ph.per_client) {
    bytes += resident_bytes(recs.data(), recs.capacity() * sizeof(Record));
  }
  return bytes;
}

std::uint64_t client_gap_p50(const Phase& ph) {
  std::vector<std::uint64_t> gaps;
  for (const auto& recs : ph.per_client) {
    for (std::size_t i = 1; i < recs.size(); ++i) {
      if (recs[i - 1].t.submit_ns >= ph.t0 && recs[i].t.return_ns <= ph.t1) {
        gaps.push_back(recs[i].t.submit_ns - recs[i - 1].t.return_ns);
      }
    }
  }
  return pct(gaps, 50.0);
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> load_s;
  std::size_t artifact_bytes = 0;
  double peak_rss_mib = 0.0;  // at the end of the last set-up
};

/// What every workload measures; run() turns it into metrics.
struct Measurement {
  Tally tally;
  SetupTimes setup;
  double peak_rss_mib = 0.0;  // program_peak_rss_mib()
  std::vector<Event> events;  // requests answered correctly (offline: every call)
  std::uint64_t t0 = 0, t1 = 0;  // measured window
  double samples_per_event = 1.0;
  // Traced runs only.
  std::vector<Record> served;      // measured requests with batch stamps
  std::uint64_t gap_p50_ns = 0;
  std::vector<std::uint64_t> nn_ns;  // per replayed batch / offline call
  double nn_share = 0.0;
  std::vector<std::uint64_t> predict_ns;  // per replayed DLRM batch
  std::uint64_t gather_ns = 0;            // summed over replayed batches
  std::uint64_t gather_bytes = 0;
  std::uint64_t predict_total_ns = 0;
  std::size_t matmul_m = 0, matmul_k = 0, matmul_n = 0;
  std::size_t max_batch = 0;
};

/// Group measured requests by batch and keep the first `limit` batches.
std::map<std::uint64_t, std::vector<std::size_t>> batches_of(
    std::span<const Record> recs, std::size_t limit) {
  std::map<std::uint64_t, std::vector<std::size_t>> b;
  for (const Record& r : recs) b[r.batch].push_back(r.pool_idx);
  while (b.size() > limit) b.erase(std::prev(b.end()));
  return b;
}

/// Share of request time a per-batch layer time accounts for, over the
/// requests whose batch was replayed.
double share_of_requests(std::span<const Record> recs,
                         const std::map<std::uint64_t, std::uint64_t>& layer_ns) {
  std::uint64_t layer = 0;
  std::uint64_t total = 0;
  for (const Record& r : recs) {
    const auto it = layer_ns.find(r.batch);
    if (it == layer_ns.end()) continue;
    layer += it->second;
    total += r.t.return_ns - r.t.submit_ns;
  }
  return total == 0 ? 0.0 : static_cast<double>(layer) / static_cast<double>(total);
}

/// Set up `setup_repeats` times: tear_down() the previous set-up untimed,
/// then time build(), which returns when its artifact load finished.
template <typename TearDown, typename Build>
void timed_setups(const Spec& spec, SetupTimes& times, const TearDown& tear_down,
                  const Build& build) {
  for (std::size_t rep = 0; rep < spec.setup_repeats; ++rep) {
    tear_down();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t loaded = build();
    const std::uint64_t t1 = now_ns();
    times.total_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    times.load_s.push_back(static_cast<double>(loaded - t0) / 1e9);
  }
  times.peak_rss_mib = peak_rss_mib();
}

void finish_serving(const Spec& spec, const Phase& ph, Measurement& m) {
  m.peak_rss_mib = program_peak_rss_mib(m.setup.peak_rss_mib, resident_record_bytes(ph));
  m.tally.add(ph);
  // Requests sent and answered inside the measured window. A failed one
  // carries no batch stamps, so only correct answers are timed and split.
  std::vector<Record> recs;
  std::size_t left_out = 0;
  for (const auto& client : ph.per_client) {
    for (const Record& r : client) {
      if (r.t.submit_ns < ph.t0 || r.t.return_ns > ph.t1) continue;
      if (r.ok) {
        recs.push_back(r);
      } else {
        ++left_out;
      }
    }
  }
  std::printf("measured window: %zu requests answered correctly; %zu failed, left out "
              "of the timing and stage metrics\n",
              recs.size(), left_out);
  m.events.reserve(recs.size());
  for (const Record& r : recs) {
    m.events.push_back({r.t.return_ns, r.t.return_ns - r.t.submit_ns});
  }
  m.t0 = ph.t0;
  m.t1 = ph.t1;
  if (spec.trace) {
    m.served = recs;
    m.gap_p50_ns = client_gap_p50(ph);
  }
}

// -- workloads -------------------------------------------------------------------

Measurement run_mlp_window(const Spec& spec, const std::string& dir) {
  using Srv = serve::Server<Vector, Stamped<Vector>>;
  const MlpPool pool = read_mlp_pool(pool_path(dir));
  std::vector<Vector> inputs;
  std::vector<Vector> refs;
  for (std::size_t i = 0; i < pool.inputs.rows(); ++i) {
    inputs.emplace_back(pool.inputs.row(i).begin(), pool.inputs.row(i).end());
    refs.emplace_back(pool.refs.row(i).begin(), pool.refs.row(i).end());
  }

  Measurement m;
  std::unique_ptr<artifact::Loaded<enw::nn::Mlp>> model;
  std::unique_ptr<Srv> srv;
  const auto submit = [&](std::size_t c, std::size_t k) {
    Record r;
    r.pool_idx = pool_index(spec, inputs.size(), c, k);
    r.t.submit_ns = now_ns();
    const auto reply = srv->submit(inputs[r.pool_idx]);
    finish(r, reply, refs[r.pool_idx]);
    return r;
  };
  const auto tear_down = [&] {
    srv.reset();
    model.reset();
  };
  timed_setups(spec, m.setup, tear_down, [&] {
    model = std::make_unique<artifact::Loaded<enw::nn::Mlp>>(artifact::load_mlp(
        model_path(dir), artifact::LoadMode::kMap, artifact::Materialize::kView));
    const std::uint64_t loaded = now_ns();
    m.setup.artifact_bytes = model->artifact->file_bytes();
    srv = std::make_unique<Srv>(
        spec.serve, stamped<Vector, Vector>(serve::mlp_logits_backend(model->model),
                                            spec.trace));
    m.tally.add(drive(spec.clients, spec.warmup, 0.0, submit));
    return loaded;
  });
  const Phase ph = drive(spec.clients, 0, spec.seconds, submit);
  srv->shutdown();
  finish_serving(spec, ph, m);
  m.max_batch = spec.serve.max_batch;
  m.matmul_m = spec.clients;
  m.matmul_k = spec.mlp_dims[0];
  m.matmul_n = spec.mlp_dims[1];

  if (spec.trace) {
    std::map<std::uint64_t, std::uint64_t> nn_by_batch;
    for (const auto& [seq, idx] : batches_of(m.served, spec.replay_batches)) {
      Matrix x(idx.size(), pool.inputs.cols());
      for (std::size_t s = 0; s < idx.size(); ++s) {
        std::copy(inputs[idx[s]].begin(), inputs[idx[s]].end(), x.row(s).begin());
      }
      const std::uint64_t t0 = now_ns();
      (void)model->model.infer_batch(x);
      const std::uint64_t t = now_ns() - t0;
      nn_by_batch[seq] = t;
      m.nn_ns.push_back(t);
    }
    m.nn_share = share_of_requests(m.served, nn_by_batch);
  }
  return m;
}

Measurement run_dlrm_fullbatch(const Spec& spec, const std::string& dir) {
  using Srv = serve::MultiShardServer<ClickSample, Stamped<float>>;
  const ClickPool pool = read_click_pool(pool_path(dir));

  serve::MultiShardConfig cfg;
  cfg.shard = spec.serve;
  cfg.num_shards = 1;
  serve::TenantPolicy tenant;
  tenant.admission = serve::AdmissionPolicy::kBlock;
  tenant.queue_share = 0.5;
  tenant.name = "a";
  cfg.tenants.push_back(tenant);
  tenant.name = "b";
  cfg.tenants.push_back(tenant);

  Measurement m;
  std::unique_ptr<artifact::Loaded<enw::recsys::Dlrm>> model;
  std::unique_ptr<Srv> srv;
  const auto submit = [&](std::size_t c, std::size_t k) {
    Record r;
    r.pool_idx = pool_index(spec, pool.samples.size(), c, k);
    const ClickSample& s = pool.samples[r.pool_idx];
    // Clients alternate tenants request by request, so the tenant gate runs
    // on every request; the seed picks which tenant goes first.
    const std::size_t ten = (c + k + spec.seed) % 2;
    r.t.submit_ns = now_ns();
    const auto reply = srv->submit(s, serve::click_routing_key(s), ten);
    finish(r, reply, floats_of(pool.refs[r.pool_idx]));
    return r;
  };
  const auto tear_down = [&] {
    srv.reset();
    model.reset();
  };
  timed_setups(spec, m.setup, tear_down, [&] {
    model = std::make_unique<artifact::Loaded<enw::recsys::Dlrm>>(artifact::load_dlrm(
        model_path(dir), artifact::LoadMode::kMap, artifact::Materialize::kView));
    const std::uint64_t loaded = now_ns();
    m.setup.artifact_bytes = model->artifact->file_bytes();
    srv = std::make_unique<Srv>(cfg, [&](std::size_t) {
      return stamped<ClickSample, float>(serve::dlrm_backend(model->model), spec.trace);
    });
    m.tally.add(drive(spec.clients, spec.warmup, 0.0, submit));
    return loaded;
  });
  const Phase ph = drive(spec.clients, 0, spec.seconds, submit);
  srv->shutdown();
  finish_serving(spec, ph, m);
  const enw::recsys::Dlrm& dlrm = model->model;
  m.max_batch = spec.serve.max_batch;
  m.matmul_m = spec.serve.max_batch;
  m.matmul_k = dlrm.interaction_dim();
  m.matmul_n = dlrm.top().front().out_dim();

  if (spec.trace) {
    // Replay each recorded batch through the model's own calls: the whole
    // predict_batch, each table's gather, and the two dense stacks.
    const std::size_t tables = dlrm.config().num_tables;
    const std::size_t dim = dlrm.config().embed_dim;
    Rng rng(spec.seed);
    std::map<std::uint64_t, std::uint64_t> nn_by_batch;
    for (const auto& [seq, idx] : batches_of(m.served, spec.replay_batches)) {
      const std::size_t b = idx.size();
      std::vector<ClickSample> batch;
      for (std::size_t i : idx) batch.push_back(pool.samples[i]);

      std::uint64_t t0 = now_ns();
      (void)dlrm.predict_batch(batch);
      const std::uint64_t predict = now_ns() - t0;
      m.predict_ns.push_back(predict);
      m.predict_total_ns += predict;

      std::vector<std::span<const std::size_t>> lists(b);
      Matrix pooled(b, dim);
      for (std::size_t t = 0; t < tables; ++t) {
        for (std::size_t s = 0; s < b; ++s) {
          lists[s] = batch[s].sparse[t];
          m.gather_bytes += lists[s].size() * dim * sizeof(float);
        }
        t0 = now_ns();
        dlrm.tables()[t].lookup_sum_batch(lists, pooled);
        m.gather_ns += now_ns() - t0;
      }

      Matrix dense(b, dlrm.config().num_dense);
      for (std::size_t s = 0; s < b; ++s) {
        std::copy(batch[s].dense.begin(), batch[s].dense.end(), dense.row(s).begin());
      }
      Matrix top = Matrix::uniform(b, dlrm.interaction_dim(), -1.0f, 1.0f, rng);
      t0 = now_ns();
      for (const auto& layer : dlrm.bottom()) dense = layer.infer_batch(dense);
      for (const auto& layer : dlrm.top()) top = layer.infer_batch(top);
      const std::uint64_t nn = now_ns() - t0;
      nn_by_batch[seq] = nn;
      m.nn_ns.push_back(nn);
    }
    m.nn_share = share_of_requests(m.served, nn_by_batch);
  }
  return m;
}

Measurement run_mlp_offline(const Spec& spec, const std::string& dir) {
  const MlpPool pool = read_mlp_pool(pool_path(dir));
  const std::size_t bs = spec.offline_batch;
  const std::size_t nb = pool.inputs.rows() / bs;
  if (nb == 0) throw std::runtime_error("pool smaller than one offline batch");
  std::vector<Matrix> batches;
  for (std::size_t b = 0; b < nb; ++b) {
    Matrix x(bs, pool.inputs.cols());
    for (std::size_t s = 0; s < bs; ++s) {
      const auto row = pool.inputs.row(b * bs + s);
      std::copy(row.begin(), row.end(), x.row(s).begin());
    }
    batches.push_back(std::move(x));
  }

  Measurement m;
  std::unique_ptr<artifact::Loaded<enw::nn::Mlp>> model;
  // One call: infer a batch and check every row against its reference.
  std::size_t calls = 0;
  const auto call = [&](std::uint64_t& t0, std::uint64_t& t1) {
    const std::size_t b = calls++ % nb;
    t0 = now_ns();
    const Matrix y = model->model.infer_batch(batches[b]);
    t1 = now_ns();
    for (std::size_t s = 0; s < bs; ++s) {
      ++m.tally.sent;
      if (!bitwise_equal(y.row(s), pool.refs.row(b * bs + s))) ++m.tally.failed;
    }
  };
  timed_setups(spec, m.setup, [&] { model.reset(); }, [&] {
    model = std::make_unique<artifact::Loaded<enw::nn::Mlp>>(artifact::load_mlp(
        model_path(dir), artifact::LoadMode::kMap, artifact::Materialize::kView));
    const std::uint64_t loaded = now_ns();
    m.setup.artifact_bytes = model->artifact->file_bytes();
    std::uint64_t a = 0, b = 0;
    for (std::size_t i = 0; i < spec.warmup; ++i) call(a, b);
    return loaded;
  });

  // Reserved for 200k calls/s, so the buffer never regrows (see drive()).
  m.events.reserve(static_cast<std::size_t>(spec.seconds * 2e5) + 1024);
  std::uint64_t busy = 0;
  m.t0 = now_ns();
  m.t1 = m.t0 + static_cast<std::uint64_t>(spec.seconds * 1e9);
  for (;;) {
    std::uint64_t t0 = 0, t1 = 0;
    call(t0, t1);
    if (t1 > m.t1) break;
    m.events.push_back({t1, t1 - t0});
    busy += t1 - t0;
  }
  m.peak_rss_mib = program_peak_rss_mib(
      m.setup.peak_rss_mib,
      resident_bytes(m.events.data(), m.events.capacity() * sizeof(Event)));
  m.samples_per_event = static_cast<double>(bs);
  m.matmul_m = bs;
  m.matmul_k = spec.mlp_dims[0];
  m.matmul_n = spec.mlp_dims[1];
  if (spec.trace) {
    // The timed call is the benchmark's own call into nn.
    for (const Event& e : m.events) m.nn_ns.push_back(e.latency_ns);
    const std::uint64_t span = m.events.empty() ? 0 : m.events.back().end_ns - m.t0;
    m.nn_share = span == 0 ? 0.0 : static_cast<double>(busy) / static_cast<double>(span);
    std::vector<std::uint64_t> gaps;  // one call's end -> the next call's start
    for (std::size_t i = 1; i < m.events.size(); ++i) {
      gaps.push_back(m.events[i].end_ns - m.events[i].latency_ns - m.events[i - 1].end_ns);
    }
    m.gap_p50_ns = pct(gaps, 50.0);
  }
  return m;
}

// -- report ----------------------------------------------------------------------

void print_context(const Spec& spec, int cpu) {
  const enw::bench::MachineInfo info = enw::bench::machine_info();
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(spec.workload), static_cast<unsigned long long>(spec.seed),
              spec.seconds, spec.trace ? 1 : 0);
  std::printf("context: nproc=%u pinned_cpu=%d cpu_features=\"%s\" "
              "kernel_backend=%s isa=%s kernel_threads=%zu\n",
              std::thread::hardware_concurrency(), cpu, info.cpu_features.c_str(),
              info.backend.c_str(), info.backend_isa.c_str(),
              enw::parallel::thread_count());
  if (spec.workload == Workload::kMlpOffline) {
    std::printf("context: clients=1 batch=%zu\n", spec.offline_batch);
  } else {
    std::printf("context: clients=%zu max_batch=%zu max_wait_ns=%llu "
                "queue_capacity=%zu admission=block%s\n",
                spec.clients, spec.serve.max_batch,
                static_cast<unsigned long long>(spec.serve.max_wait_ns),
                spec.serve.queue_capacity,
                spec.workload == Workload::kDlrmFullbatch
                    ? " shards=1 tenants=2x0.5"
                    : "");
  }
  if (spec.workload == Workload::kDlrmFullbatch) {
    const auto& d = spec.dlrm;
    std::printf("context: model=dlrm dense=%zu tables=%zu rows=%zu dim=%zu "
                "lookups=%zu bottom_hidden=%zu top_hidden=%zu pool=%zu\n",
                d.num_dense, d.num_tables, d.rows_per_table, d.embed_dim,
                click_config(spec).lookups_per_table, d.bottom_hidden.front(),
                d.top_hidden.front(), spec.pool);
  } else {
    std::string dims;
    for (std::size_t d : spec.mlp_dims) dims += (dims.empty() ? "" : "-") + std::to_string(d);
    std::printf("context: model=mlp dims=%s hidden=relu pool=%zu\n", dims.c_str(),
                spec.pool);
  }
}

double gflops(std::size_t m, std::size_t k, std::size_t n, std::uint64_t ns) {
  return ns == 0 ? 0.0 : 2.0 * static_cast<double>(m * k * n) / static_cast<double>(ns);
}

/// Per-layer metrics of a traced run, named as per_layer_names().
std::vector<Metric> layer_metrics(const Spec& spec, Measurement& m, double p50_ms) {
  std::map<std::string, double> v;
  if (!m.served.empty()) {
    std::vector<std::uint64_t> wait, exec, wake;
    std::uint64_t sum_wait = 0, sum_exec = 0, sum_wake = 0, sum_lat = 0;
    std::map<std::uint64_t, std::uint32_t> sizes;
    for (const Record& r : m.served) {
      const Stages st = split_stages(r.t);
      wait.push_back(st.wait_ns);
      exec.push_back(st.exec_ns);
      wake.push_back(st.wake_ns);
      sum_wait += st.wait_ns;
      sum_exec += st.exec_ns;
      sum_wake += st.wake_ns;
      sum_lat += r.t.return_ns - r.t.submit_ns;
      sizes[r.batch] = r.batch_size;
    }
    const double lat = static_cast<double>(sum_lat);
    v["serve.wait_p50_ms"] = ms(pct(wait, 50.0));
    v["serve.wait_p90_ms"] = ms(pct(wait, 90.0));
    v["serve.wait_share"] = static_cast<double>(sum_wait) / lat;
    v["serve.exec_p50_ms"] = ms(pct(exec, 50.0));
    v["serve.exec_share"] = static_cast<double>(sum_exec) / lat;
    v["serve.wake_p50_ms"] = ms(pct(wake, 50.0));
    v["serve.wake_p90_ms"] = ms(pct(wake, 90.0));
    v["serve.wake_share"] = static_cast<double>(sum_wake) / lat;
    double total = 0.0;
    std::size_t partial = 0;
    for (const auto& [seq, size] : sizes) {
      total += size;
      partial += size < m.max_batch ? 1 : 0;
    }
    v["serve.mean_batch"] = total / static_cast<double>(sizes.size());
    v["serve.window_flush_share"] =
        static_cast<double>(partial) / static_cast<double>(sizes.size());
  }
  v["nn.infer_p50_ms"] = ms(pct(m.nn_ns, 50.0));
  v["nn.infer_share"] = m.nn_share;

  Rng rng(spec.seed);
  const Matrix a = Matrix::uniform(m.matmul_m, m.matmul_k, -1.0f, 1.0f, rng);
  const Matrix w = Matrix::uniform(m.matmul_n, m.matmul_k, -1.0f, 1.0f, rng);
  const Matrix wt = enw::transpose(w);
  const std::uint64_t budget = 30'000'000;
  v["tensor.matmul_nt_gflops"] =
      gflops(m.matmul_m, m.matmul_k, m.matmul_n,
             median_call_ns([&] { (void)enw::matmul_nt(a, w); }, 20, budget));
  v["tensor.matmul_gflops"] =
      gflops(m.matmul_m, m.matmul_k, m.matmul_n,
             median_call_ns([&] { (void)enw::matmul(a, wt); }, 20, budget));

  if (!m.predict_ns.empty()) {
    v["recsys.predict_p50_ms"] = ms(pct(m.predict_ns, 50.0));
    v["recsys.gather_share"] = static_cast<double>(m.gather_ns) /
                               static_cast<double>(m.predict_total_ns);
    v["recsys.gather_gbps"] =
        static_cast<double>(m.gather_bytes) / static_cast<double>(m.gather_ns);
  }
  const double load_s = median(m.setup.load_s);
  v["artifact.load_s"] = load_s;
  v["artifact.load_gbps"] =
      load_s > 0.0 ? static_cast<double>(m.setup.artifact_bytes) / load_s / 1e9 : 0.0;
  v["client.gap_p50_ms"] = ms(m.gap_p50_ns);
  v["traced.p50_ms"] = p50_ms;

  std::vector<Metric> out = per_layer_names();
  for (Metric& x : out) x.value = v.count(x.name) ? v[x.name] : 0.0;
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& x : metrics) {
    std::printf("  %-26s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

}  // namespace

// -- public ----------------------------------------------------------------------

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kMlpWindow, Workload::kDlrmFullbatch, Workload::kMlpOffline}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kMlpWindow:
      return "mlp_window";
    case Workload::kDlrmFullbatch:
      return "dlrm_fullbatch";
    case Workload::kMlpOffline:
      return "mlp_offline";
  }
  return "?";
}

Spec default_spec(Workload w, std::uint64_t seed) {
  Spec s;
  s.workload = w;
  s.seed = seed;
  switch (w) {
    case Workload::kMlpWindow:
      s.setup_repeats = 9;
      break;
    case Workload::kDlrmFullbatch:
      // The batch cap equals the client count: batches flush by size.
      s.serve.max_batch = s.clients;
      s.pool = 4096;
      s.warmup = 256;
      break;
    case Workload::kMlpOffline:
      s.setup_repeats = 9;
      break;
  }
  return s;
}

void prepare(const Spec& spec, const std::string& dir) {
  const std::string path = model_path(dir);
  if (spec.workload == Workload::kDlrmFullbatch) {
    {
      Rng rng(spec.seed);
      const enw::recsys::Dlrm model(spec.dlrm, rng);
      artifact::save_dlrm(model, path);
    }
    ClickPool pool;
    {
      const enw::data::ClickLogGenerator gen(click_config(spec));
      Rng rng = input_rng(spec);
      pool.samples = gen.batch(spec.pool, rng);
    }
    const auto loaded =
        artifact::load_dlrm(path, artifact::LoadMode::kMap, artifact::Materialize::kView);
    for (const ClickSample& s : pool.samples) {
      pool.refs.push_back(loaded.model.predict_batch({&s, 1}).front());
    }
    write_pool(pool_path(dir), pool);
    sync_file(path);
    return;
  }
  artifact::save_mlp(make_mlp(spec), path);
  enw::data::SyntheticMnistConfig mc;
  mc.image_size = 28;
  mc.seed = spec.seed;
  const enw::data::SyntheticMnist mnist(mc);
  if (mnist.feature_dim() != spec.mlp_dims.front()) {
    throw std::runtime_error("MLP input width must be 784 (28x28 images)");
  }
  Rng rng = input_rng(spec);
  MlpPool pool{mnist.sample(spec.pool, rng).features, Matrix()};
  const auto loaded =
      artifact::load_mlp(path, artifact::LoadMode::kMap, artifact::Materialize::kView);
  pool.refs = Matrix(spec.pool, loaded.model.output_dim());
  Matrix one(1, pool.inputs.cols());
  for (std::size_t i = 0; i < spec.pool; ++i) {
    std::copy(pool.inputs.row(i).begin(), pool.inputs.row(i).end(), one.row(0).begin());
    const Matrix y = loaded.model.infer_batch(one);
    std::copy(y.row(0).begin(), y.row(0).end(), pool.refs.row(i).begin());
  }
  write_pool(pool_path(dir), pool);
  sync_file(path);
}

Result run(const Spec& spec, const std::string& dir) {
  // Every thread of the run shares one CPU: spread over the shared host's
  // vCPUs, each closed loop waits for its slowest, preempted, vCPU. One
  // kernel thread: with the pool at nproc, identical runs were bimodal.
  // The spinner keeps that CPU from halting while every thread waits (on
  // mlp_window, most of the time); see NOTES.md.
  const int cpu = pin_to_one_cpu();
  const IdleSpinner spinner;
  enw::parallel::set_thread_count(1);
  print_context(spec, cpu);

  Measurement m;
  switch (spec.workload) {
    case Workload::kMlpWindow:
      m = run_mlp_window(spec, dir);
      break;
    case Workload::kDlrmFullbatch:
      m = run_dlrm_fullbatch(spec, dir);
      break;
    case Workload::kMlpOffline:
      m = run_mlp_offline(spec, dir);
      break;
  }

  Result res;
  res.attempted = m.tally.sent;
  res.failed = m.tally.failed;
  const double failed_share =
      res.attempted == 0 ? 1.0
                         : static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  std::printf("requests: sent=%llu succeeded=%llu failed=%llu failed_share=%.6g\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.attempted - res.failed),
              static_cast<unsigned long long>(res.failed), failed_share);
  std::printf("setup: median %.6f s over %zu set-ups (artifact load median %.6f s, "
              "%zu bytes)\n",
              median(m.setup.total_s), m.setup.total_s.size(), median(m.setup.load_s),
              m.setup.artifact_bytes);

  const Summary sum =
      summarize(m.events, m.t0, m.t1, spec.slices, m.samples_per_event);
  std::printf("samples_per_s by slice:");
  for (double r : sum.slice_rates) std::printf(" %.0f", r);
  std::printf("\n");
  std::vector<std::uint64_t> lat;
  for (const Event& e : m.events) lat.push_back(e.latency_ns);
  std::printf("latency over the whole phase (ms; p99 is not a metric): n=%zu",
              lat.size());
  std::sort(lat.begin(), lat.end());
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::printf(" p%g %.6f", p, ms(serve::percentile_sorted_ns(lat, p)));
  }
  std::printf("\n");

  if (!spec.trace) {
    res.metrics = end_to_end_names();
    const double values[] = {sum.p50_ms,
                             sum.p90_ms,
                             sum.samples_per_s,
                             median(m.setup.total_s),
                             m.peak_rss_mib,
                             1.0 - failed_share};
    for (std::size_t i = 0; i < res.metrics.size(); ++i) res.metrics[i].value = values[i];
    std::printf("end-to-end metrics:\n");
    print_metrics(res.metrics);
    return res;
  }

  res.metrics = layer_metrics(spec, m, sum.p50_ms);
  std::printf("per-layer metrics (0 = layer not on this workload's path):\n");
  print_metrics(res.metrics);
  std::map<std::string, double> v;
  for (const Metric& x : res.metrics) v[x.name] = x.value;
  if (spec.workload != Workload::kMlpOffline) {
    std::printf("stages: wait %.4f + exec %.4f + wake %.4f = %.4f of request time\n",
                v["serve.wait_share"], v["serve.exec_share"], v["serve.wake_share"],
                v["serve.wait_share"] + v["serve.exec_share"] + v["serve.wake_share"]);
  }
  switch (spec.workload) {
    case Workload::kMlpWindow:
      std::printf("isolation: serve wait share %.4f (expect >= 0.80)\n",
                  v["serve.wait_share"]);
      break;
    case Workload::kDlrmFullbatch:
      std::printf("isolation: serve exec share %.4f (expect >= 0.50)\n",
                  v["serve.exec_share"]);
      break;
    case Workload::kMlpOffline:
      std::printf("isolation: Mlp::infer_batch share of call loop %.4f (expect >= 0.95)\n",
                  v["nn.infer_share"]);
      break;
  }
  return res;
}

Stages split_stages(const Stamps& s) {
  return {s.batch_start_ns - s.submit_ns, s.batch_end_ns - s.batch_start_ns,
          s.return_ns - s.batch_end_ns};
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

Summary summarize(std::span<const Event> events, std::uint64_t t0, std::uint64_t t1,
                  std::size_t slices, double weight) {
  Summary out;
  if (t1 <= t0 || slices == 0) return out;
  const double len = static_cast<double>(t1 - t0) / static_cast<double>(slices);
  std::vector<std::size_t> per_slice(slices);
  std::vector<std::uint64_t> latency_ns;
  for (const Event& e : events) {
    if (e.end_ns < t0 || e.end_ns >= t1) continue;
    latency_ns.push_back(e.latency_ns);
    ++per_slice[std::min(static_cast<std::size_t>(static_cast<double>(e.end_ns - t0) / len),
                         slices - 1)];
  }
  out.samples_per_s = weight * static_cast<double>(latency_ns.size()) * 1e9 /
                      static_cast<double>(t1 - t0);
  out.p50_ms = ms(pct(latency_ns, 50.0));
  out.p90_ms = ms(serve::percentile_sorted_ns(latency_ns, 90.0));
  for (std::size_t n : per_slice) {
    out.slice_rates.push_back(weight * static_cast<double>(n) * 1e9 / len);
  }
  return out;
}

std::size_t resident_bytes(const void* data, std::size_t bytes) {
  if (bytes == 0) return 0;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = begin / page * page;
  std::vector<unsigned char> in_core((begin + bytes - first + page - 1) / page);
  if (mincore(reinterpret_cast<void*>(first), in_core.size() * page, in_core.data()) != 0) {
    throw std::runtime_error("mincore failed");
  }
  return page * static_cast<std::size_t>(std::count_if(
                    in_core.begin(), in_core.end(), [](unsigned char c) { return (c & 1) != 0; }));
}

std::vector<Metric> end_to_end_names() {
  return {{"p50_ms", 0.0, "ms"},       {"p90_ms", 0.0, "ms"},
          {"samples_per_s", 0.0, "1/s"}, {"setup_s", 0.0, "s"},
          {"peak_rss_mb", 0.0, "MiB"}, {"ok_share", 0.0, "ratio"}};
}

std::vector<Metric> per_layer_names() {
  return {{"serve.wait_p50_ms", 0.0, "ms"},
          {"serve.wait_p90_ms", 0.0, "ms"},
          {"serve.wait_share", 0.0, "ratio"},
          {"serve.exec_p50_ms", 0.0, "ms"},
          {"serve.exec_share", 0.0, "ratio"},
          {"serve.wake_p50_ms", 0.0, "ms"},
          {"serve.wake_p90_ms", 0.0, "ms"},
          {"serve.wake_share", 0.0, "ratio"},
          {"serve.mean_batch", 0.0, "count"},
          {"serve.window_flush_share", 0.0, "ratio"},
          {"nn.infer_p50_ms", 0.0, "ms"},
          {"nn.infer_share", 0.0, "ratio"},
          {"tensor.matmul_nt_gflops", 0.0, "GFLOP/s"},
          {"tensor.matmul_gflops", 0.0, "GFLOP/s"},
          {"recsys.predict_p50_ms", 0.0, "ms"},
          {"recsys.gather_share", 0.0, "ratio"},
          {"recsys.gather_gbps", 0.0, "GB/s"},
          {"artifact.load_s", 0.0, "s"},
          {"artifact.load_gbps", 0.0, "GB/s"},
          {"client.gap_p50_ms", 0.0, "ms"},
          {"traced.p50_ms", 0.0, "ms"}};
}

}  // namespace perfbench

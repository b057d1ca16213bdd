// bench_serve — serving throughput and tail latency versus the dynamic
// batching window, across three batched backends:
//
//   mlp     784-256-10 MLP logits        (Mlp::infer_batch)
//   dlrm    DLRM CTR serving             (Dlrm::predict_batch)
//   search  ExactSearch cosine labels    (ExactSearch::predict_batch)
//
// Closed-loop harness: C client threads each submit R single-sample requests
// synchronously against a live enw::serve::Server, so the collator sees the
// batching-versus-latency trade-off the TPU study describes — a wider window
// coalesces bigger batches (throughput) at the cost of queueing time (p99).
// Each row reports throughput plus p50/p99 reply latency for one
// (backend, window) point. Two sharded legs ride along:
//
//   dlrm-sharded    live MultiShardServer, 4 DLRM shard replicas from one
//                   seed, two equal-share tenants — per-TENANT p50/p99 rows
//                   plus the routed-load imbalance statistic;
//   replay-sharded  virtual-time sharded replay of a Zipf-keyed two-tenant
//                   trace (no-op exec) — simulator events/sec, with
//                   per-tenant percentiles in VIRTUAL time (byte-stable);
//   mlp-hotswap     the mlp leg with one mid-drive Server::swap_backend to a
//                   second build — reports the swap call's latency and the
//                   requests in flight across the version boundary;
//   dlrm-resize     the sharded DLRM leg with one mid-drive add_shard +
//                   remove_shard — p99 during the migration window vs steady
//                   state, the embedding rows the matching data-tier resize
//                   migrates, and the victim shard's drain time.
//
// Regenerate the committed record with:
//   ./scripts/run_bench_serve.sh           (writes BENCH_serve.json)
// CI runs `bench_serve --smoke` to catch harness crashes cheaply.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/click_log.h"
#include "mann/similarity_search.h"
#include "nn/digital_linear.h"
#include "nn/mlp.h"
#include "obs/obs.h"
#include "recsys/dlrm.h"
#include "recsys/embedding_table.h"
#include "recsys/sharded_table.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "serve/shard_replay.h"
#include "tensor/matrix.h"

namespace {

using enw::Matrix;
using enw::Rng;
using enw::Vector;
using enw::serve::ServeConfig;
using enw::serve::Server;
using enw::serve::ServerStats;
using enw::serve::Status;

struct Options {
  bool smoke = false;
  std::string out_path;  // empty = don't write JSON
};

struct Row {
  const char* backend;
  const char* tenant = "-";  // "-" for the single-tenant legs
  std::size_t shards = 1;
  std::size_t max_batch = 0;
  std::uint64_t window_us = 0;
  std::size_t clients = 0;
  std::size_t requests = 0;  // completed (Status::kOk)
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  double imbalance = 0.0;  // max/mean routed load (0 = single server)
  double swap_us = 0.0;    // swap_backend() call latency (hot-swap leg only)
  std::size_t in_flight_at_swap = 0;  // admitted-but-unfinished at the swap
  std::size_t rows_moved = 0;  // embedding rows the data-tier resize migrated
  double drain_us = 0.0;       // remove_shard() drain latency (resize leg)
};

Matrix random_matrix(std::size_t r, std::size_t c, unsigned seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

/// Closed-loop drive: `clients` threads each submit `per_client` requests
/// drawn round-robin from `inputs`; returns the latency/throughput row.
template <typename In, typename Out>
Row drive(const char* name, const ServeConfig& cfg,
          typename Server<In, Out>::BatchFn fn, const std::vector<In>& inputs,
          std::size_t clients, std::size_t per_client) {
  ENW_SPAN("bench.serve.drive");
  Server<In, Out> srv(cfg, std::move(fn));
  std::vector<std::vector<std::uint64_t>> lat(clients);
  enw::bench::Timer t;
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      lat[c].reserve(per_client);
      for (std::size_t r = 0; r < per_client; ++r) {
        const In& x = inputs[(c * per_client + r) % inputs.size()];
        const auto reply = srv.submit(x);
        if (reply.status == Status::kOk) lat[c].push_back(reply.latency_ns);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall = t.seconds();
  srv.shutdown();

  std::vector<std::uint64_t> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const ServerStats stats = srv.stats();

  Row row;
  row.backend = name;
  row.max_batch = cfg.max_batch;
  row.window_us = cfg.max_wait_ns / 1000;
  row.clients = clients;
  row.requests = all.size();
  row.throughput_rps = wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
  row.p50_us = static_cast<double>(enw::serve::percentile_ns(all, 50.0)) / 1000.0;
  row.p99_us = static_cast<double>(enw::serve::percentile_ns(all, 99.0)) / 1000.0;
  row.mean_batch = stats.mean_batch();
  return row;
}

ServeConfig window_config(std::uint64_t window_us) {
  ServeConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait_ns = window_us * 1000;
  cfg.queue_capacity = 256;
  return cfg;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"context\": {\n    \"threads\": %zu,\n",
               enw::parallel::thread_count());
  std::fprintf(f, "%s", enw::bench::machine_json_fields("    ").c_str());
  std::fprintf(f, "    \"unit\": \"requests_per_second, microseconds\"\n  },\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"tenant\": \"%s\", "
                 "\"shards\": %zu, \"max_batch\": %zu, "
                 "\"window_us\": %llu, \"clients\": %zu, \"requests\": %zu, "
                 "\"throughput_rps\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"mean_batch\": %.2f, "
                 "\"imbalance\": %.2f, \"swap_us\": %.1f, "
                 "\"in_flight_at_swap\": %zu, \"rows_moved\": %zu, "
                 "\"drain_us\": %.1f}%s\n",
                 r.backend, r.tenant, r.shards, r.max_batch,
                 static_cast<unsigned long long>(r.window_us), r.clients,
                 r.requests, r.throughput_rps, r.p50_us, r.p99_us,
                 r.mean_batch, r.imbalance, r.swap_us, r.in_flight_at_swap,
                 r.rows_moved, r.drain_us, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 1;
    }
  }

  const std::size_t clients = opt.smoke ? 2 : 8;
  const std::size_t per_client_mlp = opt.smoke ? 8 : 400;
  const std::size_t per_client_dlrm = opt.smoke ? 8 : 200;
  const std::size_t per_client_search = opt.smoke ? 8 : 400;
  const std::vector<std::uint64_t> windows_us = {100, 1000};

  enw::bench::header("serve", "dynamic-batching serving: latency vs window",
                     "in-datacenter inference batches under a tail-latency "
                     "deadline; the window trades p99 for batch size");

  std::vector<Row> rows;
  {
    ENW_SPAN("bench.serve");

    // MLP logits backend.
    Rng mlp_rng(1);
    enw::nn::MlpConfig mlp_cfg;
    mlp_cfg.dims = {784, 256, 10};
    mlp_cfg.hidden_activation = enw::nn::Activation::kRelu;
    const enw::nn::Mlp net(mlp_cfg, enw::nn::DigitalLinear::factory(mlp_rng));
    const Matrix mlp_in = random_matrix(256, 784, 2);
    std::vector<Vector> mlp_inputs;
    for (std::size_t i = 0; i < mlp_in.rows(); ++i) {
      mlp_inputs.emplace_back(mlp_in.row(i).begin(), mlp_in.row(i).end());
    }
    for (std::uint64_t w : windows_us) {
      rows.push_back(drive<Vector, Vector>(
          "mlp", window_config(w), enw::serve::mlp_logits_backend(net),
          mlp_inputs, clients, per_client_mlp));
    }

    // Hot-swap leg: the same MLP traffic, but mid-drive the backend is
    // swapped to a second (differently-seeded, same-shape) build via
    // Server::swap_backend. The atomicity claims — no drops, no mixed
    // batches, in-flight batch finishes on the old version — are pinned by
    // tests; this leg prices the operation: the swap call's latency and how
    // many admitted requests were in flight across the boundary.
    {
      Rng swap_rng(9);
      const enw::nn::Mlp net_v1(mlp_cfg,
                                enw::nn::DigitalLinear::factory(swap_rng));
      const ServeConfig cfg = window_config(1000);
      Server<Vector, Vector> srv(cfg, enw::serve::mlp_logits_backend(net));
      std::vector<std::vector<std::uint64_t>> lat(clients);
      enw::bench::Timer t;
      std::vector<std::thread> workers;
      for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          lat[c].reserve(per_client_mlp);
          for (std::size_t r = 0; r < per_client_mlp; ++r) {
            const Vector& x =
                mlp_inputs[(c * per_client_mlp + r) % mlp_inputs.size()];
            const auto reply = srv.submit(x);
            if (reply.status == Status::kOk) lat[c].push_back(reply.latency_ns);
          }
        });
      }
      // Swap once roughly half the traffic has executed, so both versions
      // serve under load.
      const std::uint64_t half =
          static_cast<std::uint64_t>(clients * per_client_mlp) / 2;
      while (srv.stats().executed_requests < half) std::this_thread::yield();
      const ServerStats at_swap = srv.stats();
      enw::bench::Timer swap_t;
      srv.swap_backend(enw::serve::mlp_logits_backend(net_v1), 1);
      const double swap_s = swap_t.seconds();
      for (std::thread& w : workers) w.join();
      const double wall = t.seconds();
      srv.shutdown();

      std::vector<std::uint64_t> all;
      for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      const ServerStats stats = srv.stats();

      Row row;
      row.backend = "mlp-hotswap";
      row.max_batch = cfg.max_batch;
      row.window_us = 1000;
      row.clients = clients;
      row.requests = all.size();
      row.throughput_rps =
          wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
      row.p50_us =
          static_cast<double>(enw::serve::percentile_sorted_ns(all, 50.0)) /
          1000.0;
      row.p99_us =
          static_cast<double>(enw::serve::percentile_sorted_ns(all, 99.0)) /
          1000.0;
      row.mean_batch = stats.mean_batch();
      row.swap_us = swap_s * 1e6;
      row.in_flight_at_swap = static_cast<std::size_t>(
          at_swap.submitted - at_swap.completed - at_swap.rejected -
          at_swap.shed - at_swap.errors);
      rows.push_back(row);
    }

    // DLRM CTR backend.
    Rng dlrm_rng(3);
    enw::recsys::DlrmConfig dlrm_cfg;
    dlrm_cfg.rows_per_table = opt.smoke ? 500 : 2000;
    const enw::recsys::Dlrm model(dlrm_cfg, dlrm_rng);
    enw::data::ClickLogConfig log_cfg;
    log_cfg.num_dense = dlrm_cfg.num_dense;
    log_cfg.num_tables = dlrm_cfg.num_tables;
    log_cfg.rows_per_table = dlrm_cfg.rows_per_table;
    const enw::data::ClickLogGenerator gen(log_cfg);
    Rng data_rng(4);
    const std::vector<enw::data::ClickSample> samples = gen.batch(256, data_rng);
    for (std::uint64_t w : windows_us) {
      rows.push_back(drive<enw::data::ClickSample, float>(
          "dlrm", window_config(w), enw::serve::dlrm_backend(model), samples,
          clients, per_client_dlrm));
    }

    // Sharded multi-tenant DLRM: per-shard model replicas built from ONE
    // seed (the numeric-identity invariant), consistent-hash routing on the
    // first sparse id, two equal-share tenants driven by alternating
    // clients. Rows are per tenant; imbalance is max/mean routed load.
    {
      const std::size_t kShards = opt.smoke ? 2 : 4;
      std::vector<std::unique_ptr<enw::recsys::Dlrm>> replicas;
      for (std::size_t s = 0; s < kShards; ++s) {
        Rng rng(3);
        replicas.push_back(std::make_unique<enw::recsys::Dlrm>(dlrm_cfg, rng));
      }
      enw::serve::MultiShardConfig mcfg;
      mcfg.shard = window_config(1000);
      mcfg.num_shards = kShards;
      enw::serve::TenantPolicy online;
      online.name = "online";
      online.queue_share = 0.5;
      online.admission = enw::serve::AdmissionPolicy::kBlock;
      enw::serve::TenantPolicy batch = online;
      batch.name = "batch";
      mcfg.tenants = {online, batch};

      enw::serve::MultiShardServer<enw::data::ClickSample, float> ms(
          mcfg,
          [&](std::size_t s) { return enw::serve::dlrm_backend(*replicas[s]); });
      enw::bench::Timer t;
      std::vector<std::thread> workers;
      for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          for (std::size_t r = 0; r < per_client_dlrm; ++r) {
            const auto& s = samples[(c * per_client_dlrm + r) % samples.size()];
            (void)ms.submit(s, enw::serve::click_routing_key(s), c % 2);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double wall = t.seconds();
      ms.shutdown();

      const double imbalance = ms.imbalance();
      const double mean_batch = ms.stats().mean_batch();
      for (std::size_t ten = 0; ten < 2; ++ten) {
        const auto rep = ms.tenant_report(ten);
        Row row;
        row.backend = "dlrm-sharded";
        row.tenant = ten == 0 ? "online" : "batch";
        row.shards = kShards;
        row.max_batch = mcfg.shard.max_batch;
        row.window_us = 1000;
        row.clients = clients / 2;
        row.requests = rep.completed;
        row.throughput_rps =
            wall > 0.0 ? static_cast<double>(rep.completed) / wall : 0.0;
        row.p50_us = static_cast<double>(rep.p50_ns) / 1000.0;
        row.p99_us = static_cast<double>(rep.p99_ns) / 1000.0;
        row.mean_batch = mean_batch;
        row.imbalance = imbalance;
        rows.push_back(row);
      }
    }

    // Live resize leg: the sharded DLRM traffic, but mid-drive shards are
    // added and drained (kCycles add+remove pairs) while clients keep
    // submitting. Correctness — every request served exactly once, bitwise —
    // is pinned by tests; this leg prices the operation: p99 inside the
    // migration window vs steady state, the mean remove_shard call latency
    // (= the victim's drain time), and the embedding rows the matching
    // data-tier ShardedEmbeddingTable resize migrates for one shard joining.
    {
      const std::size_t kShards = opt.smoke ? 2 : 4;
      const std::size_t kCycles = opt.smoke ? 1 : 4;
      std::vector<std::unique_ptr<enw::recsys::Dlrm>> replicas;
      for (std::size_t s = 0; s < kShards + kCycles; ++s) {
        Rng rng(3);
        replicas.push_back(std::make_unique<enw::recsys::Dlrm>(dlrm_cfg, rng));
      }
      enw::serve::MultiShardConfig mcfg;
      mcfg.shard = window_config(1000);
      mcfg.num_shards = kShards;
      enw::serve::TenantPolicy tenant;
      tenant.admission = enw::serve::AdmissionPolicy::kBlock;
      mcfg.tenants = {tenant};
      const auto factory = [&](std::size_t s) {
        return enw::serve::dlrm_backend(*replicas[s]);
      };
      enw::serve::MultiShardServer<enw::data::ClickSample, float> ms(mcfg,
                                                                     factory);

      // Clients bucket each completion by whether the control-plane resize
      // was in progress when they submitted.
      std::atomic<bool> resizing{false};
      std::vector<std::vector<std::uint64_t>> steady(clients);
      std::vector<std::vector<std::uint64_t>> migr(clients);
      enw::bench::Timer t;
      std::vector<std::thread> workers;
      for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          for (std::size_t r = 0; r < per_client_dlrm; ++r) {
            const auto& s = samples[(c * per_client_dlrm + r) % samples.size()];
            const bool in_window = resizing.load(std::memory_order_relaxed);
            const auto reply = ms.submit(s, enw::serve::click_routing_key(s));
            if (reply.status == enw::serve::Status::kOk) {
              (in_window ? migr : steady)[c].push_back(reply.latency_ns);
            }
          }
        });
      }
      // Start churning once roughly a quarter of the traffic has completed,
      // so every cycle overlaps live load. Each cycle grows the ring by one
      // shard, then drains a victim: first an original shard, then the shard
      // the previous cycle added. The window stays open until traffic
      // submitted during each cycle completes, so the migrating bucket
      // reflects resize-coincident requests.
      const std::uint64_t total =
          static_cast<std::uint64_t>(clients * per_client_dlrm);
      while (ms.stats().completed < total / 4) std::this_thread::yield();
      resizing.store(true, std::memory_order_relaxed);
      double drain_total_s = 0.0;
      std::size_t victim = 1;
      for (std::size_t i = 0; i < kCycles; ++i) {
        const std::size_t added = ms.add_shard(factory);
        enw::bench::Timer drain_t;
        ms.remove_shard(victim);
        drain_total_s += drain_t.seconds();
        victim = added;
        const std::uint64_t mark = ms.stats().completed + clients;
        while (ms.stats().completed < mark && ms.stats().completed < total) {
          std::this_thread::yield();
        }
      }
      resizing.store(false, std::memory_order_relaxed);
      for (std::thread& w : workers) w.join();
      const double wall = t.seconds();
      ms.shutdown();

      // Data-tier cost of the same membership change: rows a quantized
      // sharded embedding table migrates when a shard joins the ring.
      Rng erng(12);
      const enw::recsys::EmbeddingTable src(
          opt.smoke ? 2000 : 20000, dlrm_cfg.embed_dim, erng);
      enw::recsys::ShardedEmbeddingTable table(src, 8, kShards, 256);
      const auto mig = table.add_shard();

      const double imbalance = ms.imbalance();
      const double mean_batch = ms.stats().mean_batch();
      const char* phases[2] = {"steady", "migrating"};
      for (int p = 0; p < 2; ++p) {
        std::vector<std::uint64_t> all;
        const auto& buckets = p == 0 ? steady : migr;
        for (const auto& v : buckets) all.insert(all.end(), v.begin(), v.end());
        std::sort(all.begin(), all.end());
        Row row;
        row.backend = "dlrm-resize";
        row.tenant = phases[p];
        row.shards = kShards;
        row.max_batch = mcfg.shard.max_batch;
        row.window_us = 1000;
        row.clients = clients;
        row.requests = all.size();
        row.throughput_rps =
            wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
        row.p50_us =
            static_cast<double>(enw::serve::percentile_sorted_ns(all, 50.0)) /
            1000.0;
        row.p99_us =
            static_cast<double>(enw::serve::percentile_sorted_ns(all, 99.0)) /
            1000.0;
        row.mean_batch = mean_batch;
        row.imbalance = imbalance;
        if (p == 1) {
          row.rows_moved = mig.rows_moved;
          row.drain_us = drain_total_s / static_cast<double>(kCycles) * 1e6;
        }
        rows.push_back(row);
      }
    }

    // Sharded replay simulator throughput: virtual-time events/sec of
    // replay_sharded itself over a Zipf-keyed two-tenant trace (no-op exec).
    // Latency percentiles here are VIRTUAL time — identical on every run.
    {
      const std::size_t n = opt.smoke ? 20000 : 1000000;
      Rng trng(7);
      std::vector<enw::serve::TraceEvent> trace =
          enw::serve::poisson_trace(n, 1000.0, 0, trng);
      const enw::ZipfSampler zipf(1000000, 1.05);
      Rng krng(8);
      for (std::size_t i = 0; i < n; ++i) {
        trace[i].key = static_cast<std::uint64_t>(zipf.sample(krng));
        trace[i].tenant = static_cast<std::uint32_t>(i % 2);
      }
      enw::serve::ReplayConfig rcfg;
      rcfg.serve.max_batch = 32;
      rcfg.serve.max_wait_ns = 200000;  // 200us window
      rcfg.serve.queue_capacity = 256;
      rcfg.service_ns = 20000;
      enw::serve::TenantPolicy online;
      online.queue_share = 0.5;
      online.deadline_ns = 2000000;  // 2ms SLO: backlog sheds, not queues
      enw::serve::TenantPolicy batch;
      batch.queue_share = 0.5;
      rcfg.tenants = {online, batch};

      for (const std::size_t kShards : {std::size_t{1}, std::size_t{4}}) {
        enw::serve::ShardedReplayConfig scfg;
        scfg.replay = rcfg;
        scfg.num_shards = kShards;
        enw::bench::Timer t;
        const enw::serve::ShardedReplayResult res = enw::serve::replay_sharded(
            trace, scfg,
            [](std::size_t, std::span<const std::size_t>, std::uint64_t) {});
        const double wall = t.seconds();

        for (std::uint32_t ten = 0; ten < 2; ++ten) {
          std::vector<std::uint64_t> lat;
          for (std::size_t i = 0; i < n; ++i) {
            if (trace[i].tenant == ten &&
                res.outcomes[i].status == Status::kOk) {
              lat.push_back(res.outcomes[i].latency_ns);
            }
          }
          Row row;
          row.backend = "replay-sharded";
          row.tenant = ten == 0 ? "online" : "batch";
          row.shards = kShards;
          row.max_batch = rcfg.serve.max_batch;
          row.window_us = rcfg.serve.max_wait_ns / 1000;
          row.requests = lat.size();
          row.throughput_rps =
              wall > 0.0 ? static_cast<double>(n) / wall : 0.0;  // events/s
          row.p50_us =
              static_cast<double>(enw::serve::percentile_ns(lat, 50.0)) / 1000.0;
          row.p99_us =
              static_cast<double>(enw::serve::percentile_ns(lat, 99.0)) / 1000.0;
          row.mean_batch = res.stats.mean_batch();
          row.imbalance = res.imbalance();
          rows.push_back(row);
        }
      }
    }

    // Similarity-search backend.
    enw::mann::ExactSearch index(64, enw::Metric::kCosineSimilarity);
    const Matrix keys = random_matrix(512, 64, 5);
    for (std::size_t i = 0; i < keys.rows(); ++i) index.add(keys.row(i), i % 5);
    const Matrix queries = random_matrix(256, 64, 6);
    std::vector<Vector> query_inputs;
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      query_inputs.emplace_back(queries.row(i).begin(), queries.row(i).end());
    }
    for (std::uint64_t w : windows_us) {
      rows.push_back(drive<Vector, std::size_t>(
          "search", window_config(w), enw::serve::search_backend(index),
          query_inputs, clients, per_client_search));
    }
  }

  enw::bench::section("serving latency/throughput");
  enw::bench::Table table({"backend", "tenant", "shards", "window_us",
                           "clients", "throughput_rps", "p50_us", "p99_us",
                           "mean_batch", "imbalance", "swap_us", "rows_moved",
                           "drain_us"});
  for (const Row& r : rows) {
    table.row({r.backend, r.tenant, std::to_string(r.shards),
               std::to_string(r.window_us), std::to_string(r.clients),
               enw::bench::fmt(r.throughput_rps, 0), enw::bench::fmt(r.p50_us, 1),
               enw::bench::fmt(r.p99_us, 1), enw::bench::fmt(r.mean_batch, 2),
               enw::bench::fmt(r.imbalance, 2), enw::bench::fmt(r.swap_us, 1),
               std::to_string(r.rows_moved), enw::bench::fmt(r.drain_us, 1)});
  }
  table.print();

  if (!opt.out_path.empty()) write_json(opt.out_path, rows);
  enw::bench::export_trace("serve");
  return 0;
}

// bench_kernels — Google Benchmark microbenchmarks for the tensor kernel
// layer: the naive scalar references, plus per-backend rows
// (reference/simd fp32 kernels and int8 qgemm) registered dynamically from
// the runtime backend registry.
//
// Regenerate the committed machine-readable record with:
//   ./scripts/run_bench_kernels.sh         (writes BENCH_kernels.json)
// The *_Reference benchmarks are the scalar oracles; the BM_*/<backend>/...
// rows time each registered backend on the same products (every backend
// computes the same bits, so the rows differ only in speed).
// `--backend=NAME` restricts the dynamic rows to one backend (CI uses it to
// keep the smoke run cheap).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/backend.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "nn/quant.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"

namespace {

using enw::Matrix;
using enw::Rng;
using enw::Vector;

Matrix random_matrix(std::size_t r, std::size_t c, unsigned seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.normal());
  return m;
}

Vector random_vector(std::size_t n, unsigned seed) {
  Rng rng(seed);
  Vector v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// --- matmul -----------------------------------------------------------------

void BM_MatmulReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(enw::matmul_reference(a, b));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_MatmulReference)->Arg(64)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

// --- matvec -----------------------------------------------------------------

void BM_MatvecReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Vector x = random_vector(n, 4);
  for (auto _ : state) benchmark::DoNotOptimize(enw::matvec_reference(a, x));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n);
}
BENCHMARK(BM_MatvecReference)->Arg(128)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

// --- matvec_transposed ------------------------------------------------------

void BM_MatvecTransposedReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 5);
  const Vector x = random_vector(n, 6);
  for (auto _ : state)
    benchmark::DoNotOptimize(enw::matvec_transposed_reference(a, x));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n);
}
BENCHMARK(BM_MatvecTransposedReference)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// --- transpose --------------------------------------------------------------

void BM_TransposeReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 7);
  for (auto _ : state) benchmark::DoNotOptimize(enw::transpose_reference(a));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n);
}
BENCHMARK(BM_TransposeReference)->Arg(128)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

// --- rank1_update -----------------------------------------------------------

void BM_Rank1UpdateReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_matrix(n, n, 8);
  const Vector u = random_vector(n, 9);
  const Vector v = random_vector(n, 10);
  for (auto _ : state) {
    enw::rank1_update_reference(a, u, v, 1e-6f);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n);
}
BENCHMARK(BM_Rank1UpdateReference)->Arg(128)->Arg(512)->Arg(2048)->Unit(benchmark::kMicrosecond);

// --- per-backend rows (dynamic: the registry is only known at runtime) ------

// Ratios that read directly off these rows:
//   BM_MatmulBackend/simd/256      vs BM_MatmulBackend/reference/256
//   BM_Matvec/simd/<n>             vs BM_MatvecReference/<n>
//   BM_QatInferBatch/int8_simd/64  vs BM_QatInferBatch/fp32_simd/64
//   BM_DenseForward/simd/kn/<shape> vs BM_DenseForward/simd/nt/<shape>

void register_backend_benchmarks(const std::string& only) {
  for (const enw::core::KernelBackend* bk : enw::core::available_backends()) {
    const std::string name = bk->name();
    if (!only.empty() && name != only) continue;

    for (std::size_t n : {std::size_t{64}, std::size_t{256}, std::size_t{512}}) {
      if (name == "reference" && n > 256) continue;  // minutes per iteration
      benchmark::RegisterBenchmark(
          ("BM_MatmulBackend/" + name + "/" + std::to_string(n)).c_str(),
          [bk, n](benchmark::State& state) {
            const Matrix a = random_matrix(n, n, 1);
            const Matrix b = random_matrix(n, n, 2);
            for (auto _ : state)
              benchmark::DoNotOptimize(bk->matmul(a, b, enw::ZeroSkip::kNone));
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
          })
          ->Unit(benchmark::kMillisecond);
    }

    // Square matvec (the m = 1 product) on one kernel thread: one k-ordered
    // chain per output, so simd packs A's rows k-major before its FMA lanes
    // can run across outputs.
    for (std::size_t n : {std::size_t{128}, std::size_t{512}, std::size_t{2048}}) {
      benchmark::RegisterBenchmark(
          ("BM_Matvec/" + name + "/" + std::to_string(n)).c_str(),
          [bk, n](benchmark::State& state) {
            const Matrix a = random_matrix(n, n, 3);
            const Vector x = random_vector(n, 4);
            const std::size_t threads = enw::parallel::thread_count();
            enw::parallel::set_thread_count(1);
            for (auto _ : state) benchmark::DoNotOptimize(bk->matvec(a, x));
            enw::parallel::set_thread_count(threads);
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) * 2 * n * n);
          })
          ->Unit(benchmark::kMicrosecond);
    }

    // Dense-layer forward at the shapes the MLP and DLRM serve (m = batch,
    // k = in, n = out), on one kernel thread as perfbench serves them: `nt`
    // is the row-major pairing matmul_nt(X, W), `kn` the input-major
    // matmul(X, W^T) that DigitalLinear runs. Same products and the same
    // bits; only the kernel (packed gemm_nt vs gemm_kn straight over W^T)
    // differs.
    struct DenseShape {
      std::size_t m, k, n;
    };
    for (const DenseShape d : {DenseShape{64, 784, 256}, DenseShape{4, 784, 256},
                               DenseShape{64, 256, 10}, DenseShape{4, 332, 32}}) {
      const std::string shape = "m" + std::to_string(d.m) + "_k" +
                                std::to_string(d.k) + "_n" + std::to_string(d.n);
      const auto flops = static_cast<std::int64_t>(2 * d.m * d.k * d.n);
      benchmark::RegisterBenchmark(
          ("BM_DenseForward/" + name + "/nt/" + shape).c_str(),
          [bk, d, flops](benchmark::State& state) {
            const Matrix x = random_matrix(d.m, d.k, 1);
            const Matrix w = random_matrix(d.n, d.k, 2);
            const std::size_t threads = enw::parallel::thread_count();
            enw::parallel::set_thread_count(1);
            for (auto _ : state) benchmark::DoNotOptimize(bk->matmul_nt(x, w));
            enw::parallel::set_thread_count(threads);
            state.SetItemsProcessed(state.iterations() * flops);
          })
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          ("BM_DenseForward/" + name + "/kn/" + shape).c_str(),
          [bk, d, flops](benchmark::State& state) {
            const Matrix x = random_matrix(d.m, d.k, 1);
            const Matrix wt = enw::transpose(random_matrix(d.n, d.k, 2));
            const std::size_t threads = enw::parallel::thread_count();
            enw::parallel::set_thread_count(1);
            for (auto _ : state)
              benchmark::DoNotOptimize(bk->matmul(x, wt, enw::ZeroSkip::kNone));
            enw::parallel::set_thread_count(threads);
            state.SetItemsProcessed(state.iterations() * flops);
          })
          ->Unit(benchmark::kMicrosecond);
    }

    // int8 twin of the 512-cubed fp32 rows above: same MAC count, int8
    // operands, int32 accumulation (scales not applied — this isolates the
    // GEMM core).
    benchmark::RegisterBenchmark(
        ("BM_QgemmNtS32/" + name + "/512").c_str(),
        [bk](benchmark::State& state) {
          const std::size_t n = 512;
          const enw::Int8RowMatrix a = enw::quantize_rows_s8(random_matrix(n, n, 1));
          const enw::Int8RowMatrix b = enw::quantize_rows_s8(random_matrix(n, n, 2));
          std::vector<std::int32_t> c32(n * n);
          for (auto _ : state) {
            bk->qgemm_nt_s32(a.codes.data(), b.codes.data(), c32.data(), n, n, n);
            benchmark::DoNotOptimize(c32.data());
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
        })
        ->Unit(benchmark::kMillisecond);

    // QAT MLP batch-64 inference, fp32 simulated-quantization path. Backend
    // selection is ambient here (infer_batch goes through the dispatch
    // wrappers), so pin it around each iteration batch.
    benchmark::RegisterBenchmark(
        ("BM_QatInferBatch/fp32_" + name + "/64").c_str(),
        [name](benchmark::State& state) {
          Rng rng(11);
          enw::nn::QatConfig cfg;
          cfg.dims = {784, 256, 10};
          const enw::nn::QatMlp net(cfg, rng);
          const Matrix x = random_matrix(64, 784, 12);
          enw::core::set_backend(name);
          for (auto _ : state) benchmark::DoNotOptimize(net.infer_batch(x));
          enw::core::reset_backend_selection();
          state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
        })
        ->Unit(benchmark::kMillisecond);

    // The deployed int8 engine on the same model and inputs.
    benchmark::RegisterBenchmark(
        ("BM_QatInferBatch/int8_" + name + "/64").c_str(),
        [name](benchmark::State& state) {
          Rng rng(11);
          enw::nn::QatConfig cfg;
          cfg.dims = {784, 256, 10};
          const enw::nn::QatMlp net(cfg, rng);
          const enw::nn::QatInt8Inference engine(net);
          const Matrix x = random_matrix(64, 784, 12);
          enw::core::set_backend(name);
          for (auto _ : state) benchmark::DoNotOptimize(engine.infer_batch(x));
          enw::core::reset_backend_selection();
          state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

// Expanded BENCHMARK_MAIN so that (a) --backend can be stripped before
// Google Benchmark sees the arg list, (b) the per-backend rows can be
// registered from the runtime registry, (c) the machine identity (cpu
// features + resolved backend) lands in the JSON context, and (d) the obs
// trace (kernel spans recorded while the benchmarks ran) can be exported
// after the run when ENW_PROF=1.
int main(int argc, char** argv) {
  std::string only;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      only = argv[i] + 10;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!only.empty()) enw::core::set_backend(only);  // throws on a bogus name

  register_backend_benchmarks(only);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const enw::bench::MachineInfo info = enw::bench::machine_info();
  benchmark::AddCustomContext("cpu_features", info.cpu_features);
  benchmark::AddCustomContext("kernel_backend", info.backend);
  benchmark::AddCustomContext("kernel_backend_isa", info.backend_isa);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  enw::bench::export_trace("kernels");
  return 0;
}

#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/prng.hpp"
#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "host.hpp"
#include "kernels/kernel_registry.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sparse/matrix_market.hpp"
#include "spans.hpp"
#include "tuner/bottleneck.hpp"
#include "tuner/host_profiler.hpp"

namespace perfbench {

namespace {

using sparta::CsrMatrix;
using sparta::index_t;
using sparta::Timer;
using sparta::value_t;
using sparta::kernels::ConstDenseBlockView;
using sparta::kernels::DenseBlockView;
using sparta::kernels::PreparedSpmv;
using Vec = sparta::aligned_vector<value_t>;

enum class Kind { kCg, kBicgstab, kSpmm };

struct Workload {
  std::string_view name;
  Kind kind;
  /// A session sets up from the input, then runs `ops` closed-loop solves or
  /// sweeps (its work phase). A pass runs at least this many sessions, and
  /// more while it has spent less than --seconds.
  int min_sessions;
  int ops;            // solves or sweeps in every work phase
  int pool;           // distinct x* or operand blocks; op i of the pass uses i % pool
  index_t width;      // operand columns k of every product
  double tolerance;   // engine stopping rule on ||r|| / ||b|| (solves)
  double check_tol;   // solves: ||x - x*|| / ||x*||; sweeps: |y - y_ref| / max(1, |y_ref|)
};

constexpr Workload kWorkloads[] = {
    // One CG solve per set-up; the two sessions solve different x*.
    {"cg_stencil27_dram", Kind::kCg, 2, 1, 2, 1, 1e-7, 1e-3},
    // Every set-up solves the whole pool of 64 right-hand sides back to back.
    {"bicgstab_circuit_llc", Kind::kBicgstab, 4, 64, 64, 1, 1e-8, 1e-5},
    // Every set-up runs 100 k = 8 sweeps, cycling through 4 operand blocks.
    {"spmm8_powerlaw_mtx", Kind::kSpmm, 5, 100, 4, 8, 0.0, 1e-10},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
}

std::string fmt(double v) {
  std::string s;
  sparta::obs::json::append_number(s, v);
  return s;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : sparta::stats::median(v);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

Vec random_vector(std::size_t n, std::uint64_t seed) {
  sparta::Xoshiro256 rng{seed};
  Vec v(n);
  for (value_t& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

double norm2(const Vec& v) {
  double s = 0.0;
  for (value_t e : v) s += e * e;
  return std::sqrt(s);
}

/// ||got - want|| / ||want||; NaN when got holds a NaN (so every check fails).
double relative_error(const Vec& got, const Vec& want) {
  double d = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) d += (got[i] - want[i]) * (got[i] - want[i]);
  return std::sqrt(d) / norm2(want);
}

/// Every entry within tol * max(1, |want|) — the differential harness rule.
/// A NaN fails the comparison. No early exit, so the loop vectorizes.
bool entries_match(const value_t* got, const value_t* want, std::size_t n, double tol) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    ok &= std::abs(got[i] - want[i]) <= tol * std::max(1.0, std::abs(want[i]));
  }
  return ok;
}

/// Y = A X column by column with the serial reference kernel (X, Y row-major).
Vec reference_block(const CsrMatrix& a, const Vec& x, index_t width) {
  const auto nr = static_cast<std::size_t>(a.nrows());
  const auto nc = static_cast<std::size_t>(a.ncols());
  const auto k = static_cast<std::size_t>(width);
  Vec y(nr * k), xc(nc), yc(nr);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < nc; ++i) xc[i] = x[i * k + c];
    sparta::spmv_reference(a, xc, yc);
    for (std::size_t i = 0; i < nr; ++i) y[i * k + c] = yc[i];
  }
  return y;
}

/// Smallest cube side whose 27-point stencil value array, 8 (3n-2)^3 bytes,
/// is at least 4x the LLC; capped at 200 (2.6 GB of CSR).
index_t stencil_side(double llc_bytes) {
  index_t n = 2;
  while (n < 200 && 8.0 * std::pow(3.0 * static_cast<double>(n) - 2.0, 3) < 4.0 * llc_bytes) {
    ++n;
  }
  return n;
}

/// Deletes a generated file when the run ends, on error paths too.
struct FileGuard {
  std::string path;
  FileGuard() = default;
  FileGuard(const FileGuard&) = delete;
  FileGuard& operator=(const FileGuard&) = delete;
  ~FileGuard() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove(path, ec);
  }
};

// ---------------------------------------------------------------- inputs --

/// Everything the benchmark generates before the program sees anything.
struct Inputs {
  CsrMatrix a;            // the generated matrix (the sweep reference for the .mtx path)
  std::string mtx_path;   // spmm: the file handed to the program
  double mtx_bytes = 0.0;
  std::vector<Vec> xs;    // solves: x*; sweeps: X blocks (ncols x k, row-major)
  std::vector<Vec> refs;  // solves: b = A x*; sweeps: A X, both by spmv_reference
};

/// The matrices are fixed instances (generator seeds of their own); the run
/// seed draws x*, the right-hand sides and the operand blocks.
Inputs make_inputs(const Workload& w, const RunOptions& o, double llc_bytes, FileGuard& file) {
  sparta::SplitMix64 seeds{o.seed};
  Inputs in;
  switch (w.kind) {
    case Kind::kCg: {
      const index_t n = o.tiny ? 10 : stencil_side(llc_bytes);
      in.a = sparta::gen::stencil27(n, n, n);
      break;
    }
    case Kind::kBicgstab: {
      // The suite's circuit5M analogue (its parameters and seed), made
      // strictly diagonally dominant.
      const CsrMatrix c = o.tiny ? sparta::gen::circuit_like(3000, 4, 2, 500, 115)
                                 : sparta::gen::circuit_like(120000, 4, 8, 60000, 115);
      in.a = sparta::gen::make_diagonally_dominant(c, 115);
      break;
    }
    case Kind::kSpmm: {
      // webbase-1M's exponent, degree cap and seed at 400 k rows.
      in.a = o.tiny ? sparta::gen::powerlaw(3000, 1.9, 200, 111)
                    : sparta::gen::powerlaw(400000, 1.9, 4000, 111);
      file.path = o.out_dir + "/" + std::string{w.name} + "-seed" + std::to_string(o.seed) + ".mtx";
      sparta::mm::write_file(file.path, in.a);
      in.mtx_path = file.path;
      in.mtx_bytes = static_cast<double>(std::filesystem::file_size(file.path));
      break;
    }
  }
  const auto width = static_cast<std::size_t>(w.width);
  for (int i = 0; i < w.pool; ++i) {
    in.xs.push_back(random_vector(static_cast<std::size_t>(in.a.ncols()) * width, seeds.next()));
    if (w.kind == Kind::kSpmm) {
      in.refs.push_back(reference_block(in.a, in.xs.back(), w.width));
    } else {
      Vec b(static_cast<std::size_t>(in.a.nrows()));
      sparta::spmv_reference(in.a, in.xs.back(), b);
      in.refs.push_back(std::move(b));
    }
  }
  return in;
}

// ----------------------------------------------------------------- setup --

/// mm::read_coo on a file, as a "sparse.read_coo" span.
sparta::CooMatrix read_mtx(const std::string& path, double bytes, SpanRecorder& rec) {
  const auto sp = rec.scope("sparse.read_coo");
  sp.attr("bytes", bytes);
  std::ifstream f{path};
  if (!f) throw std::runtime_error{"cannot open " + path};
  return sparta::mm::read_coo(f);
}

struct Setup {
  std::unique_ptr<CsrMatrix> parsed;  // the .mtx workload's matrix
  const CsrMatrix* a = nullptr;
  sparta::OptimizationPlan plan;
  std::unique_ptr<sparta::engine::SolverEngine> engine;
  double seconds = 0.0;

  /// Drop the engine before the matrix it points to.
  void release() {
    engine.reset();
    parsed.reset();
    a = nullptr;
  }
};

/// Input reaching the program -> ready engine: parse + CSR build (.mtx
/// workload), tune_host, then a second preparation for the engine.
Setup set_up(const Workload& w, const Inputs& in, int threads, SpanRecorder& rec) {
  Setup s;
  const Timer total;
  {
    const auto root = rec.scope("setup");
    if (w.kind == Kind::kSpmm) {
      const sparta::CooMatrix coo = read_mtx(in.mtx_path, in.mtx_bytes, rec);
      const auto sp = rec.scope("sparse.from_coo");
      s.parsed = std::make_unique<CsrMatrix>(CsrMatrix::from_coo(coo, threads));
    }
    s.a = s.parsed ? s.parsed.get() : &in.a;
    {
      const auto sp = rec.scope("tuner.tune_host");
      sparta::HostProfileOptions opts;
      opts.threads = threads;
      opts.name = std::string{w.name};
      opts.collect_trace = rec.enabled();
      s.plan = sparta::tune_host(*s.a, opts);
      sp.attr("gflops", s.plan.gflops);
    }
    const auto sp = rec.scope("engine.construct");
    std::shared_ptr<const PreparedSpmv> prepared;
    {
      const auto kp = rec.scope("kernels.prepare");
      prepared = std::make_shared<const PreparedSpmv>(
          *s.a, sparta::kernels::SpmvOptions{.config = s.plan.config,
                                             .threads = threads,
                                             .first_touch = true,
                                             .block_width = w.width});
      kp.attr("bytes_per_spmv", prepared->bytes_per_run(1));
      kp.attr("bytes_per_spmm8", prepared->bytes_per_run(8));
      kp.attr("delta_applied", prepared->delta_applied());
      kp.attr("symmetric_applied", prepared->symmetric_applied());
      kp.attr("first_touch_applied", prepared->first_touch_applied());
    }
    sparta::engine::EngineOptions eo;
    eo.threads = threads;
    eo.tolerance = w.tolerance;
    s.engine = std::make_unique<sparta::engine::SolverEngine>(*s.a, std::move(prepared), eo);
  }
  s.seconds = total.seconds();
  return s;
}

/// Plan record: detected classes, kernel variant, applied flags.
std::string plan_record(const Setup& s) {
  const PreparedSpmv& p = s.engine->prepared();
  return "classes=" + sparta::to_string(s.plan.classes) + " config=" + s.plan.config.describe() +
         " delta_applied=" + std::to_string(int{p.delta_applied()}) +
         " symmetric_applied=" + std::to_string(int{p.symmetric_applied()}) +
         " first_touch_applied=" + std::to_string(int{p.first_touch_applied()});
}

// ------------------------------------------------------------- work loop --

struct OpResult {
  double seconds = 0.0;
  double products = 0.0;  // k-wide matrix products the operation ran
  bool ok = false;
};

/// One closed-loop operation on the set-up engine, timed alone; its check
/// runs after the clock stops.
OpResult run_op(const Workload& w, const Setup& s, const Inputs& in, int index, bool perturb,
                SpanRecorder& rec, Vec& out) {
  OpResult r;
  const auto j = static_cast<std::size_t>(index) % in.xs.size();
  if (w.kind == Kind::kSpmm) {
    const CsrMatrix& a = *s.a;
    {
      const auto sp = rec.scope("engine.spmm");
      const Timer t;
      s.engine->spmm(ConstDenseBlockView{in.xs[j].data(), a.ncols(), w.width, w.width},
                     DenseBlockView{out.data(), a.nrows(), w.width, w.width});
      r.seconds = t.seconds();
    }
    r.products = 1.0;
    if (perturb) out[0] += 1.0 + std::abs(out[0]);
    r.ok = entries_match(out.data(), in.refs[j].data(), out.size(), w.check_tol);
    return r;
  }
  std::fill(out.begin(), out.end(), 0.0);
  sparta::solvers::SolveResult res;
  {
    const auto sp = rec.scope(w.kind == Kind::kCg ? "engine.cg" : "engine.bicgstab");
    const Timer t;
    res = w.kind == Kind::kCg ? s.engine->cg(in.refs[j], out) : s.engine->bicgstab(in.refs[j], out);
    r.seconds = t.seconds();
    sp.attr("iterations", res.iterations);
    sp.attr("spmv_seconds", res.spmv_seconds);
    sp.attr("solver_seconds", res.seconds);
  }
  // CG: one product per iteration plus the initial residual. BiCGSTAB: two
  // per iteration plus the initial residual (a final half-iteration that
  // converges early is counted whole).
  r.products = w.kind == Kind::kCg ? res.iterations + 1.0 : 2.0 * res.iterations + 1.0;
  if (perturb) out[0] += norm2(in.xs[j]);
  r.ok = res.converged && relative_error(out, in.xs[j]) <= w.check_tol;
  return r;
}

struct Pass {
  // One entry per session.
  std::vector<double> setup_s;
  std::vector<double> solve_s;  // summed operation time of the work phase, checks excluded
  std::vector<double> gflops;   // useful matrix flops of the work phase / its solve_s
  std::vector<std::string> plans;
  std::vector<std::shared_ptr<const sparta::obs::TuneTrace>> tune_traces;
  long attempted = 0;
  long failed = 0;
  Setup last;  // the last session's engine

  // Medians over sessions: every session ran its own tune_host plan, so a
  // plan the tuner picks in most set-ups sets them.
  [[nodiscard]] double setup_median() const { return median(setup_s); }
  [[nodiscard]] double solve_median() const { return median(solve_s); }
  [[nodiscard]] double gflops_median() const { return median(gflops); }
  [[nodiscard]] double time_to_solution() const { return setup_median() + solve_median(); }
};

/// Sessions until at least `w.min_sessions` have run and the pass has spent
/// `o.seconds`. Each session releases the previous engine, sets up again
/// from the input and runs its work phase on the new engine.
Pass run_pass(const Workload& w, const Inputs& in, const RunOptions& o, int threads,
              SpanRecorder& rec) {
  Pass p;
  Vec out(static_cast<std::size_t>(in.a.nrows()) * static_cast<std::size_t>(w.width));
  const double flops_per_product =
      2.0 * static_cast<double>(in.a.nnz()) * static_cast<double>(w.width);
  const Timer elapsed;
  for (int s = 0; s < w.min_sessions || elapsed.seconds() < o.seconds; ++s) {
    p.last.release();
    p.last = set_up(w, in, threads, rec);
    p.setup_s.push_back(p.last.seconds);
    p.plans.push_back(plan_record(p.last));
    if (p.last.plan.trace) p.tune_traces.push_back(p.last.plan.trace);
    const auto work = rec.scope("work");
    double solve = 0.0, flops = 0.0;
    for (int i = 0; i < w.ops; ++i) {
      const int index = s * w.ops + i;
      const OpResult op = run_op(w, p.last, in, index, o.perturb && index == 0, rec, out);
      solve += op.seconds;
      flops += op.products * flops_per_product;
      ++p.attempted;
      if (!op.ok) ++p.failed;
    }
    p.solve_s.push_back(solve);
    p.gflops.push_back(ratio(flops, solve) * 1e-9);
  }
  return p;
}

// ------------------------------------------------------ traced-run probes --

struct CheckCount {
  long attempted = 0;
  long failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One-shot PreparedSpmv::run timings as "kernels.run" spans: one warm-up,
/// then at least 3 and at most 50 repetitions within about 0.3 s.
void time_one_shot(SpanRecorder& rec, const PreparedSpmv& p, ConstDenseBlockView x,
                   DenseBlockView y) {
  p.run(x, y);
  const Timer total;
  for (int r = 0; r < 50 && (r < 3 || total.seconds() < 0.3); ++r) {
    const auto sp = rec.scope("kernels.run");
    sp.attr("width", x.width);
    sp.attr("threads", p.threads());
    p.run(x, y);
  }
}

/// Layer probes after the traced pass: one-shot k = 1 and k = 8 products on
/// the engine's prepared kernel, the same plan prepared at one thread, and
/// (solve workloads, which parse no file) a .mtx round trip of a row slice.
void run_probes(const Workload& w, Pass& b, const Inputs& in, const RunOptions& o,
                SpanRecorder& rec, CheckCount& checks) {
  const CsrMatrix& a = *b.last.a;
  const auto nr = static_cast<std::size_t>(a.nrows());
  const auto nc = static_cast<std::size_t>(a.ncols());
  const Vec x = random_vector(nc, o.seed + 17);
  Vec want(nr), y(nr);
  sparta::spmv_reference(a, x, want);
  {
    const auto probe = rec.scope("probe.kernels");
    const PreparedSpmv& p = b.last.engine->prepared();
    time_one_shot(rec, p, ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y));
    checks.add(entries_match(y.data(), want.data(), nr, 1e-10));

    constexpr index_t k = 8;
    Vec x8(nc * k), y8(nr * k);
    for (std::size_t i = 0; i < nc; ++i) {
      for (std::size_t c = 0; c < k; ++c) x8[i * k + c] = x[i] * static_cast<double>(c + 1);
    }
    time_one_shot(rec, p, ConstDenseBlockView{x8.data(), a.ncols(), k, k},
                  DenseBlockView{y8.data(), a.nrows(), k, k});
    bool ok = true;
    for (std::size_t i = 0; i < nr && ok; ++i) ok = entries_match(&y8[i * k], &want[i], 1, 1e-10);
    checks.add(ok);
  }
  {
    // The single-threaded baseline: the engine goes first, so at most two
    // copies of the matrix are resident.
    const auto probe = rec.scope("probe.one_thread");
    const sparta::kernels::KernelConfig cfg = b.last.plan.config;
    b.last.engine.reset();
    const PreparedSpmv p1{a, sparta::kernels::SpmvOptions{.config = cfg, .threads = 1}};
    std::fill(y.begin(), y.end(), 0.0);
    time_one_shot(rec, p1, ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y));
    checks.add(entries_match(y.data(), want.data(), nr, 1e-10));
  }
  if (w.kind == Kind::kSpmm) return;
  const auto rp = in.a.rowptr();
  const auto rows = static_cast<index_t>(
      std::upper_bound(rp.begin(), rp.end(), sparta::offset_t{1000000}) - rp.begin() - 1);
  const CsrMatrix slice = in.a.slice_rows(0, std::max<index_t>(1, rows));
  FileGuard file;
  file.path = o.out_dir + "/" + std::string{w.name} + "-slice-seed" + std::to_string(o.seed) + ".mtx";
  sparta::mm::write_file(file.path, slice);
  const auto bytes = static_cast<double>(std::filesystem::file_size(file.path));
  const auto probe = rec.scope("probe.sparse_slice");
  const sparta::CooMatrix coo = read_mtx(file.path, bytes, rec);
  const auto sp = rec.scope("sparse.from_coo");
  checks.add(CsrMatrix::from_coo(coo) == slice);
}

// --------------------------------------------------------------- metrics --

std::vector<double> durations(const SpanRecorder& rec, std::string_view name) {
  std::vector<double> out;
  for (const Span* s : rec.named(name)) out.push_back(s->seconds());
  return out;
}

double last_attr(const SpanRecorder& rec, std::string_view name, std::string_view key) {
  const auto spans = rec.named(name);
  return spans.empty() ? 0.0 : spans.back()->attr(key);
}

/// Median one-shot run time (seconds) at this width and thread count.
double one_shot_seconds(const SpanRecorder& rec, index_t width, int threads) {
  std::vector<double> t;
  for (const Span* s : rec.named("kernels.run")) {
    if (s->attr("width") == width && s->attr("threads") == threads) t.push_back(s->seconds());
  }
  return median(t);
}

double sample_value(const std::vector<sparta::obs::MetricSample>& samples, std::string_view name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

/// The per-layer table, computed from the traced pass's spans, its
/// TuneTraces, the library's registry counters and the host facts alone.
std::vector<Metric> layer_metrics(const Workload& w, const SpanRecorder& rec, const HostFacts& host,
                                  const Pass& b, const std::vector<std::string>& all_plans,
                                  const CsrMatrix& a, double tts_untraced) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  };
  constexpr double kMiB = 1 << 20;
  const int threads = host.threads;

  add("machine.triad_gbs", host.triad_gbs, "GB/s");
  add("machine.triad_array_mib", host.triad_array_bytes / kMiB, "MiB");
  add("machine.llc_mib", host.llc_bytes / kMiB, "MiB");
  add("machine.probe_main_gbs", host.probe_main_gbs, "GB/s");

  const double parse_s = median(durations(rec, "sparse.read_coo"));
  add("sparse.value_array_mib", static_cast<double>(a.value_bytes()) / kMiB, "MiB");
  add("sparse.mtx_parse_s", parse_s, "s");
  add("sparse.mtx_parse_mbps", ratio(last_attr(rec, "sparse.read_coo", "bytes") * 1e-6, parse_s),
      "MB/s");
  add("sparse.csr_build_s", median(durations(rec, "sparse.from_coo")), "s");

  add("tuner.tune_s", median(durations(rec, "tuner.tune_host")), "s");
  for (const char* phase : {"bounds", "features", "prepare", "measure"}) {
    std::vector<double> t;
    for (const auto& tr : b.tune_traces) t.push_back(tr->phase_micros(phase) * 1e-6);
    add(std::string{"tuner."} + phase + "_s", median(t), "s");
  }
  std::map<std::string, int> counts;
  int top = 0;
  for (const auto& p : all_plans) top = std::max(top, ++counts[p]);
  add("tuner.plan_agreement", ratio(top, static_cast<double>(all_plans.size())), "ratio");
  add("tuner.plans_distinct", static_cast<double>(counts.size()), "count");
  std::vector<double> plan_gflops;
  for (const Span* s : rec.named("tuner.tune_host")) plan_gflops.push_back(s->attr("gflops"));
  add("tuner.plan_gflops", median(plan_gflops), "GF/s");

  const double spmv_bytes = last_attr(rec, "kernels.prepare", "bytes_per_spmv");
  const double spmv_s = one_shot_seconds(rec, 1, threads);
  const double spmv_1t_s = one_shot_seconds(rec, 1, 1);
  const double spmm8_s = one_shot_seconds(rec, 8, threads);
  add("kernels.bytes_per_spmv_mb", spmv_bytes * 1e-6, "MB");
  add("kernels.delta_applied", last_attr(rec, "kernels.prepare", "delta_applied"), "flag");
  add("kernels.symmetric_applied", last_attr(rec, "kernels.prepare", "symmetric_applied"), "flag");
  add("kernels.first_touch_applied", last_attr(rec, "kernels.prepare", "first_touch_applied"),
      "flag");
  add("kernels.spmv_ms", spmv_s * 1e3, "ms");
  add("kernels.spmv_gbs", ratio(spmv_bytes, spmv_s) * 1e-9, "GB/s");
  add("kernels.spmv_stream_frac", ratio(ratio(spmv_bytes, spmv_s) * 1e-9, host.triad_gbs), "ratio");
  add("kernels.spmv_ms_1t", spmv_1t_s * 1e3, "ms");
  add("kernels.thread_speedup", ratio(spmv_1t_s, spmv_s), "x");
  add("kernels.spmm8_ms", spmm8_s * 1e3, "ms");
  add("kernels.spmm8_vs_8spmv", ratio(8.0 * spmv_s, spmm8_s), "x");

  add("engine.construct_s", median(durations(rec, "engine.construct")), "s");
  std::vector<double> iters, iter_s, share, op_ms;
  double sweep_s = 0.0, iter_bytes = 0.0, per_iter_products = 1.0;
  if (w.kind == Kind::kSpmm) {
    for (const Span* s : rec.named("engine.spmm")) op_ms.push_back(s->seconds() * 1e3);
    sweep_s = median(op_ms) * 1e-3;
    double in_spmm = 0.0, in_work = 0.0;
    for (double t : durations(rec, "engine.spmm")) in_spmm += t;
    for (double t : durations(rec, "work")) in_work += t;
    iters.push_back(w.ops);
    iter_s.push_back(sweep_s);
    share.push_back(ratio(in_spmm, in_work));
    iter_bytes = last_attr(rec, "kernels.prepare", "bytes_per_spmm8");
  } else {
    per_iter_products = w.kind == Kind::kCg ? 1.0 : 2.0;
    for (const Span* s : rec.named(w.kind == Kind::kCg ? "engine.cg" : "engine.bicgstab")) {
      const double it = s->attr("iterations");
      iters.push_back(it);
      iter_s.push_back(ratio(s->attr("solver_seconds"), it));
      share.push_back(ratio(s->attr("spmv_seconds"), s->attr("solver_seconds")));
      op_ms.push_back(s->seconds() * 1e3);
    }
    iter_bytes = per_iter_products * spmv_bytes;
  }
  const double iter_ms = median(iter_s) * 1e3;
  add("engine.iterations", median(iters), "count");
  add("engine.iter_ms", iter_ms, "ms");
  add("engine.iter_stream_frac", ratio(ratio(iter_bytes, iter_ms * 1e-3) * 1e-9, host.triad_gbs),
      "ratio");
  add("engine.spmv_share", median(share), "ratio");
  add("engine.sync_ms_per_iter",
      iter_ms - (w.kind == Kind::kSpmm ? spmm8_s : per_iter_products * spmv_s) * 1e3, "ms");
  add("engine.op_ms_p50", sparta::stats::percentile(op_ms, 50.0), "ms");
  add("engine.op_ms_p95", sparta::stats::percentile(op_ms, 95.0), "ms");
  add("engine.op_samples", static_cast<double>(op_ms.size()), "count");

  const auto samples = sparta::obs::Registry::global().snapshot();
  add("obs.trace_overhead_frac",
      ratio(b.time_to_solution(), tts_untraced) - 1.0, "ratio");
  add("obs.span_count", static_cast<double>(rec.spans().size()), "count");
  add("obs.kernels_run_calls", sample_value(samples, "kernels.run.calls"), "count");
  add("obs.engine_iterations",
      sample_value(samples, "engine.cg.iterations") +
          sample_value(samples, "engine.bicgstab.iterations") +
          sample_value(samples, "engine.spmm.calls"),
      "count");
  return m;
}

void write_trace(const std::string& path, const SpanRecorder& rec, const Pass& b,
                 const std::vector<std::string>& all_plans, const std::vector<Metric>& metrics,
                 const std::vector<std::string>& notes) {
  namespace json = sparta::obs::json;
  std::ofstream f{path};
  if (!f) throw std::runtime_error{"cannot write " + path};
  const auto header = [&](std::string_view type) {
    std::string s = "{\"type\":";
    json::append_quoted(s, type);
    s += ",\"run\":";
    json::append_quoted(s, rec.run_id());
    return s;
  };
  for (const std::string& n : notes) {
    std::string s = header("note") + ",\"text\":";
    json::append_quoted(s, n);
    f << s << "}\n";
  }
  for (std::size_t i = 0; i < all_plans.size(); ++i) {
    std::string s = header("plan") + ",\"index\":" + std::to_string(i) + ",\"plan\":";
    json::append_quoted(s, all_plans[i]);
    f << s << "}\n";
  }
  rec.write_jsonl(f);
  for (const auto& t : b.tune_traces) f << header("tune_trace") << ",\"trace\":" << t->to_jsonl() << "}\n";
  sparta::obs::write_jsonl(f, sparta::obs::Registry::global().snapshot());
  for (const Metric& m : metrics) {
    std::string s = header("metric") + ",\"name\":";
    json::append_quoted(s, m.name);
    s += ",\"value\":";
    json::append_number(s, m.value);
    s += ",\"unit\":";
    json::append_quoted(s, m.unit);
    f << s << "}\n";
  }
}

}  // namespace

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> out;
  for (const Workload& w : kWorkloads) out.push_back(w.name);
  return out;
}

RunReport run_workload(const RunOptions& o) {
  const Workload& w = find_workload(o.workload);
  sparta::obs::set_enabled(false);
  sparta::obs::Registry::global().reset();
  std::filesystem::create_directories(o.out_dir);

  RunReport rep;
  const Timer host_timer;
  const HostFacts host = measure_host(o.tiny);
  const double host_s = host_timer.seconds();
  rep.notes.push_back("workload=" + o.workload + " seed=" + std::to_string(o.seed) +
                      " trace=" + std::to_string(int{o.trace}) + " tiny=" + std::to_string(int{o.tiny}));
  rep.notes.push_back("threads=" + std::to_string(host.threads) + " OMP_NUM_THREADS=" +
                      host.omp_num_threads + " OMP_PROC_BIND=" + host.omp_proc_bind +
                      " OMP_PLACES=" + host.omp_places);
  rep.notes.push_back("llc_mib=" + fmt(host.llc_bytes / (1 << 20)) +
                      " triad_array_mib=" + fmt(host.triad_array_bytes / (1 << 20)) +
                      " triad_gbs=" + fmt(host.triad_gbs) +
                      " stream_triad_probe_main_gbs=" + fmt(host.probe_main_gbs) +
                      " stream_triad_probe_llc_gbs=" + fmt(host.probe_llc_gbs));

  FileGuard mtx;
  const Timer inputs_timer;
  const Inputs in = make_inputs(w, o, host.llc_bytes, mtx);
  rep.notes.push_back("host_facts_s=" + fmt(host_s) + " inputs_s=" + fmt(inputs_timer.seconds()));
  const double value_bytes = static_cast<double>(in.a.value_bytes());
  rep.notes.push_back("matrix rows=" + std::to_string(in.a.nrows()) +
                      " nnz=" + std::to_string(in.a.nnz()) +
                      " value_array_mib=" + fmt(value_bytes / (1 << 20)) +
                      " value_array_over_llc=" + fmt(value_bytes / host.llc_bytes) +
                      (in.mtx_path.empty() ? "" : " mtx_mb=" + fmt(in.mtx_bytes * 1e-6)) +
                      " tolerance=" + fmt(w.tolerance) + " check_tol=" + fmt(w.check_tol));

  SpanRecorder untraced{false, ""};
  const bool hwm_reset = reset_peak_rss();
  Pass a = run_pass(w, in, o, host.threads, untraced);
  const double rss_mb = peak_rss_mb();
  rep.attempted = a.attempted;
  rep.failed = a.failed;
  std::vector<std::string> all_plans = a.plans;
  const double tts = a.time_to_solution();

  if (!o.trace) {
    const auto add = [&rep](std::string name, double value, std::string unit) {
      rep.metrics.push_back({std::move(name), value, std::move(unit)});
    };
    add("setup_s", a.setup_median(), "s");
    add("solve_s", a.solve_median(), "s");
    add("time_to_solution_s", tts, "s");
    add("gflops", a.gflops_median(), "GF/s");
    add("peak_rss_mb", rss_mb, "MB");
    add("passed_frac", 1.0 - ratio(static_cast<double>(a.failed), a.attempted), "ratio");
    rep.notes.push_back("sessions=" + std::to_string(a.setup_s.size()) +
                        " ops_per_session=" + std::to_string(w.ops) +
                        " solve_s_mean=" + fmt(sparta::stats::mean(a.solve_s)) + " peak_rss_reset=" +
                        std::to_string(int{hwm_reset}) + " failed_frac=" +
                        fmt(ratio(static_cast<double>(a.failed), a.attempted)));
  } else {
    a.last.release();
    sparta::obs::Registry::global().reset();
    sparta::obs::set_enabled(true);
    SpanRecorder rec{true, o.workload + "-seed" + std::to_string(o.seed) + "-pid" +
                               std::to_string(::getpid())};
    Pass b = run_pass(w, in, o, host.threads, rec);
    all_plans.insert(all_plans.end(), b.plans.begin(), b.plans.end());
    CheckCount probes;
    run_probes(w, b, in, o, rec, probes);
    rep.metrics = layer_metrics(w, rec, host, b, all_plans, *b.last.a, tts);
    sparta::obs::set_enabled(false);
    rep.attempted += b.attempted + probes.attempted;
    rep.failed += b.failed + probes.failed;
    const std::string path = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             ".trace.jsonl";
    rep.notes.push_back("trace=" + path);
    write_trace(path, rec, b, all_plans, rep.metrics, rep.notes);
  }
  for (std::size_t i = 0; i < all_plans.size(); ++i) {
    rep.notes.push_back("plan[" + std::to_string(i) + "] " + all_plans[i]);
  }
  for (std::size_t i = 0; i < a.setup_s.size(); ++i) {
    rep.notes.push_back("session[" + std::to_string(i) + "] setup_s=" + fmt(a.setup_s[i]) +
                        " solve_s=" + fmt(a.solve_s[i]) + " gflops=" + fmt(a.gflops[i]));
  }
  rep.correct = rep.failed == 0;
  return rep;
}

std::string result_json(const RunReport& r) {
  namespace json = sparta::obs::json;
  std::string s = "{\"correct\":";
  s += r.correct ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(r.attempted) + ",\"failed\":" + std::to_string(r.failed) +
       ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i != 0) s.push_back(',');
    json::append_quoted(s, r.metrics[i].name);
    s += ":{\"value\":";
    json::append_number(s, r.metrics[i].value);
    s += ",\"unit\":";
    json::append_quoted(s, r.metrics[i].unit);
    s.push_back('}');
  }
  s += "}}";
  return s;
}

}  // namespace perfbench

#ifndef SAMA_BENCH_BENCH_UTIL_H_
#define SAMA_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/engine.h"
#include "datasets/lubm.h"
#include "index/path_index.h"
#include "text/thesaurus.h"

namespace sama {
namespace bench {

// JSON has no literal for inf/nan; fprintf would happily emit "inf"
// and break every reader of the bench_wal, bench_readers and bench_obs
// artifacts (Python's json.load rejects it). Clamp every ratio before
// it reaches a %.4f.
// Trivial queries make this real: a near-zero denominator pushes the
// raw ratio to inf even when both operands are "guarded" against 0.
inline double FiniteOr(double v, double fallback = 0.0) {
  return std::isfinite(v) ? v : fallback;
}

// Global size multiplier: SAMA_BENCH_SCALE=1 approximates the paper's
// dataset sizes (hours of indexing); the default keeps every harness
// within a few minutes on one machine while preserving the *shapes* the
// paper reports.
inline double EnvScale() {
  const char* s = std::getenv("SAMA_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

// Owns a scratch directory: destroying the pointer removes the tree.
struct DirRemover {
  void operator()(const std::string* dir) const {
    std::error_code ignored;
    std::filesystem::remove_all(*dir, ignored);
    delete dir;
  }
};
using ScopedDir = std::unique_ptr<const std::string, DirRemover>;

// A ready-to-query LUBM environment, optionally with a disk-backed
// index under a scratch directory that is removed with the environment.
struct LubmEnv {
  // First member, so it is destroyed last: after the engine and the
  // index have released their files.
  ScopedDir dir;
  std::unique_ptr<DataGraph> graph;
  std::unique_ptr<PathIndex> index;
  Thesaurus thesaurus;
  std::unique_ptr<SamaEngine> engine;
};

// `num_threads` configures intra-query parallelism (0 = hardware
// concurrency); answers are identical for every value.
inline LubmEnv MakeLubmEnv(size_t universities, bool on_disk,
                           const std::string& tag, size_t num_threads = 1) {
  LubmEnv env;
  LubmConfig config;
  config.universities = universities;
  env.graph = std::make_unique<DataGraph>(
      DataGraph::FromTriples(GenerateLubm(config)));
  env.index = std::make_unique<PathIndex>();
  PathIndexOptions options;
  if (on_disk) {
    env.dir.reset(new std::string(
        (std::filesystem::temp_directory_path() / ("sama_bench_" + tag))
            .string()));
    std::filesystem::create_directories(*env.dir);
    options.dir = *env.dir;
  }
  Status s = env.index->Build(*env.graph, options);
  if (!s.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  env.thesaurus = Thesaurus::BuiltinEnglish();
  EngineOptions engine_options;
  engine_options.num_threads = num_threads;
  env.engine = std::make_unique<SamaEngine>(env.graph.get(),
                                            env.index.get(),
                                            &env.thesaurus,
                                            engine_options);
  return env;
}

// Least-squares fit of y = a·x² + b·x + c (the Figure-7 trendlines).
struct QuadraticFit {
  double a = 0;
  double b = 0;
  double c = 0;
};

inline QuadraticFit FitQuadratic(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  // Normal equations for the 3-parameter least-squares system.
  double s0 = static_cast<double>(x.size());
  double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  double t0 = 0, t1 = 0, t2 = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    double xi = x[i], xi2 = xi * xi;
    s1 += xi;
    s2 += xi2;
    s3 += xi2 * xi;
    s4 += xi2 * xi2;
    t0 += y[i];
    t1 += y[i] * xi;
    t2 += y[i] * xi2;
  }
  // Solve the symmetric 3x3 system by Cramer's rule.
  double m[3][3] = {{s4, s3, s2}, {s3, s2, s1}, {s2, s1, s0}};
  double rhs[3] = {t2, t1, t0};
  auto det3 = [](double a[3][3]) {
    return a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
           a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
           a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
  };
  double d = det3(m);
  QuadraticFit fit;
  if (d == 0) return fit;
  for (int col = 0; col < 3; ++col) {
    double mm[3][3];
    for (int r = 0; r < 3; ++r) {
      for (int cc = 0; cc < 3; ++cc) mm[r][cc] = m[r][cc];
    }
    for (int r = 0; r < 3; ++r) mm[r][col] = rhs[r];
    double value = det3(mm) / d;
    if (col == 0) fit.a = value;
    if (col == 1) fit.b = value;
    if (col == 2) fit.c = value;
  }
  return fit;
}

}  // namespace bench
}  // namespace sama

#endif  // SAMA_BENCH_BENCH_UTIL_H_

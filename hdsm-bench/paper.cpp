// paper_sl: the paper's §5 applications on its heterogeneous SL pair — a
// big-endian solaris_sparc32 home and two linux_ia32 remotes on a
// dsm::Cluster over in-process channels — with the paper's adaptivity on
// (adaptive tuner plus the adaptive codec).  Every solve of matmul, LU or
// SOR at n = 255 runs on a freshly constructed cluster, and every result is
// checked bit-exactly against its serial reference.  The inputs are fixed
// by the paper's generators; the seed argument does not change them.
//
// A run is kSlices slices.  Each slice gives every app an equal share of
// its time and solves it back to back until the share is used (see
// run_slice), so the short apps get enough solves for a p90 within a slice.
// A slice's figures combine the apps by geometric mean, so each app weighs
// the same although LU's solve takes 25x matmul's.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dsm/cluster.hpp"
#include "workloads/lu.hpp"
#include "workloads/matmul.hpp"
#include "workloads/sor.hpp"

namespace bench {

namespace {

namespace dsm = hdsm::dsm;
namespace plat = hdsm::plat;
namespace work = hdsm::work;

constexpr std::uint32_t kN = 255;
constexpr std::uint32_t kSorIters = 8;

struct App {
  const char* name;
  hdsm::tags::TypePtr gthv;
  /// Solve on `cluster` and compare with the reference bit for bit.
  std::function<bool(dsm::Cluster&)> solve_and_check;
};

template <typename T>
bool bit_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<App> make_apps() {
  auto mm_ref = std::make_shared<std::vector<std::int32_t>>(
      work::matmul_reference(kN));
  auto lu_ref = std::make_shared<std::vector<double>>(work::lu_reference(kN));
  auto sor_ref = std::make_shared<std::vector<double>>(
      work::sor_reference(kN, kSorIters, 1.5));
  return {
      {"matmul", work::matmul_gthv(kN),
       [mm_ref](dsm::Cluster& c) {
         return bit_equal(work::run_matmul(c, kN), *mm_ref);
       }},
      {"lu", work::lu_gthv(kN),
       [lu_ref](dsm::Cluster& c) {
         return bit_equal(work::run_lu(c, kN), *lu_ref);
       }},
      {"sor", work::sor_gthv(kN),
       [sor_ref](dsm::Cluster& c) {
         return bit_equal(work::run_sor(c, kN, kSorIters, 1.5), *sor_ref);
       }},
  };
}

dsm::HomeOptions paper_options() {
  dsm::HomeOptions opts;
  opts.dsd.adaptive = true;
  opts.dsd.codec = dsm::CodecMode::Adaptive;
  return opts;
}

constexpr std::uint32_t kSlices = 12;

/// One app's solves over the slices of one kind (traced or not).
struct AppRecord {
  std::vector<double> solve_s;  ///< every solve, run_* start -> checked
  double wall_s = 0.0;          ///< set-up + solve time spent on the app
  double cpu_s = 0.0;           ///< process CPU time over the same span
  dsm::ShareStats stats;        ///< summed over the app's clusters
};

/// Solves summed over the slices that ran with (or without) tracing.
struct Phase {
  std::vector<AppRecord> app;  ///< [app]
  std::uint64_t solves = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;                    ///< per solve
  std::vector<double> ops_per_s, p50_us, p90_us;  ///< per slice
  SpanLog spans;
};

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// One slice of `seconds`: each app in turn, solved until its share of
/// the slice has passed.  A solve is started only when it is expected to
/// end less than half a solve past the share, so that an LU solve (longer
/// than the share on a busy host) does not stretch every slice.
void run_slice(const std::vector<App>& apps, double seconds, bool traced,
               Phase& ph) {
  ph.app.resize(apps.size());
  const dsm::HomeOptions opts = paper_options();
  const std::vector<const plat::PlatformDesc*> remotes = {
      &plat::linux_ia32(), &plat::linux_ia32()};
  const double share_s = seconds / static_cast<double>(apps.size());
  std::vector<double> rate, p50, p90;  // [app], this slice
  for (std::size_t a = 0; a < apps.size(); ++a) {
    AppRecord& rec = ph.app[a];
    std::vector<double> solve_s;
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    double last_s = 0.0;  // the previous solve, set-up included
    do {
      const std::uint64_t id = ph.solves;  // rank 0: the master drives it
      const std::int64_t t_setup = now_ns();
      dsm::Cluster cluster(apps[a].gthv, plat::solaris_sparc32(), remotes,
                           opts);
      const std::int64_t t_solve = now_ns();
      bool ok = false;
      try {
        ok = apps[a].solve_and_check(cluster);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "paper_sl: %s threw: %s\n", apps[a].name,
                     e.what());
      }
      const std::int64_t t_done = now_ns();
      last_s = static_cast<double>(t_done - t_setup) / 1e9;
      if (!ok) {
        std::fprintf(stderr, "paper_sl: %s result differs from reference\n",
                     apps[a].name);
        ++ph.failed;
      }
      ++ph.solves;
      ph.setup_s.push_back(static_cast<double>(t_solve - t_setup) / 1e9);
      solve_s.push_back(static_cast<double>(t_done - t_solve) / 1e9);
      rec.stats += cluster.total_stats();
      if (traced) {
        const auto app = static_cast<std::uint8_t>(a);
        using N = SpanName;
        ph.spans.push_back({id, N::Setup, N::None, t_setup, t_solve, app});
        ph.spans.push_back({id, N::Solve, N::None, t_solve, t_done, app});
      }
    } while (seconds_since(t0) + last_s / 2 < share_s);
    const double wall_s = seconds_since(t0);
    rec.wall_s += wall_s;
    rec.cpu_s += process_cpu_s() - cpu0;
    rec.solve_s.insert(rec.solve_s.end(), solve_s.begin(), solve_s.end());
    rate.push_back(static_cast<double>(solve_s.size()) / wall_s);
    p50.push_back(quantile(solve_s, 0.5));
    p90.push_back(quantile(solve_s, 0.9));
  }
  ph.ops_per_s.push_back(geomean(rate));
  ph.p50_us.push_back(geomean(p50) * 1e6);
  ph.p90_us.push_back(geomean(p90) * 1e6);
}

/// Solves per second of wall time, each app weighing the same.
double app_rate(const Phase& ph) {
  std::vector<double> rate;
  for (const AppRecord& rec : ph.app) {
    rate.push_back(static_cast<double>(rec.solve_s.size()) / rec.wall_s);
  }
  return geomean(rate);
}

}  // namespace

Outcome run_paper(const RunArgs& args) {
  const std::vector<App> apps = make_apps();
  Outcome out;
  Phase untraced;
  Phase timed;
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    const bool traced = traced_slice(args.trace, s);
    run_slice(apps, args.seconds / kSlices, traced,
              args.trace && !traced ? untraced : timed);
  }
  out.attempted = timed.solves + untraced.solves;
  // A failed reference check fails every solve of the run.
  out.correct = timed.failed + untraced.failed == 0;
  out.failed = out.correct ? 0 : out.attempted;

  if (!args.trace) {
    out.add("setup_s", median(timed.setup_s), "s");
    out.add("ops_per_s", fast_decile_rate(timed.ops_per_s), "ops/s");
    out.add("episode_p50_us", fast_decile_time(timed.p50_us), "us");
    out.add("episode_p90_us", fast_decile_time(timed.p90_us), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const std::string name = apps[a].name;
      out.note(name + "_s", median(timed.app[a].solve_s), "s");
      out.note(name + "_solves",
               static_cast<double>(timed.app[a].solve_s.size()), "count");
    }
    out.note("failed_frac",
             static_cast<double>(out.failed) /
                 static_cast<double>(out.attempted),
             "ratio");
    out.note("pooled_ops_per_s", app_rate(timed), "ops/s");
    out.note_series("slice_ops_per_s", timed.ops_per_s);
    out.note_series("slice_episode_p50_us", timed.p50_us);
    out.note_series("slice_episode_p90_us", timed.p90_us);
    return out;
  }

  // Counters per pass (one solve of each app): each app's total is
  // weighted by the product of the other apps' solve counts, and the sum
  // divided by the product of all of them.
  std::uint64_t all = 1;
  dsm::ShareStats per_pass;
  double cpu_per_pass_s = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  for (const AppRecord& rec : timed.app) all *= rec.solve_s.size();
  for (const AppRecord& rec : timed.app) {
    const std::uint64_t n = rec.solve_s.size();
    per_pass += stats_scaled(rec.stats, all / n);
    cpu_per_pass_s += rec.cpu_s / static_cast<double>(n);
    cpu_s += rec.cpu_s;
    wall_s += rec.wall_s;
  }
  add_layer_counters(out, per_pass, static_cast<double>(all));
  for (std::size_t a = 0; a < apps.size(); ++a) {
    out.add(std::string("solve.") + apps[a].name + "_s",
            median(timed.app[a].solve_s), "s");
  }
  const std::vector<double> self = mean_self_us({&timed.spans});
  auto self_of = [&](SpanName n) { return self[static_cast<std::size_t>(n)]; };
  out.add("self.setup_us", self_of(SpanName::Setup), "us");
  out.add("self.solve_us", self_of(SpanName::Solve), "us");
  out.add("proc.cpu_util",
          cpu_s / (wall_s * std::thread::hardware_concurrency()), "ratio");
  out.add("proc.cpu_us", cpu_per_pass_s * 1e6, "us/op");
  const double traced_rate = app_rate(timed);
  const double untraced_rate = app_rate(untraced);
  out.add("trace.ops_per_s", traced_rate, "ops/s");
  out.add("trace.untraced_ops_per_s", untraced_rate, "ops/s");
  out.add("trace.overhead_pct",
          (untraced_rate - traced_rate) / untraced_rate * 100.0, "%");
  std::vector<std::string> app_names;
  for (const App& a : apps) app_names.emplace_back(a.name);
  if (!args.spans_out.empty() &&
      !write_spans(args.spans_out, {&timed.spans}, app_names)) {
    std::fprintf(stderr, "paper_sl: cannot write spans to %s\n",
                 args.spans_out.c_str());
  }
  return out;
}

}  // namespace bench

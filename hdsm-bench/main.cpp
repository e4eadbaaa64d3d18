// hdsm_bench: one workload per process.
//
//   hdsm_bench --workload kv_object|kv_page|paper_sl --seed N --seconds S
//              --trace 0|1 [--spans-out FILE] [--commit ID]
//
// Prints the build/machine context, one "name value unit" line per metric,
// and as its last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when untraced and the per-layer metrics when
// traced.  Exits 1 when any result fails its correctness check, 2 on bad
// arguments or an unoptimised build.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Minimal JSON string escaping for context values.
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "hdsm_bench: %s\nusage: hdsm_bench --workload "
               "kv_object|kv_page|paper_sl --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--commit ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "hdsm_bench: refusing to report from an unoptimised build "
               "(build type %s)\n",
               HDSM_BENCH_BUILD_TYPE);
  return 2;
#endif
  bench::RunArgs args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string_view(val) == "1";
    } else if (key == "--spans-out") {
      args.spans_out = val;
    } else if (key == "--commit") {
      commit = val;
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const bool kv = args.workload == "kv_object" || args.workload == "kv_page";
  if (!kv && args.workload != "paper_sl") return usage("unknown workload");

  std::printf(
      "context {\"workload\": %s, \"seed\": %llu, \"seed_use\": %s, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"cpu\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"commit\": %s}\n",
      quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      kv ? "\"ranks draw Zipfian keys seeded seed + rank\""
         : "\"none: inputs fixed by the paper's generators\"",
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      quoted(cpu_model()).c_str(), quoted(HDSM_BENCH_COMPILER).c_str(),
      quoted(HDSM_BENCH_BUILD_TYPE).c_str(), quoted(commit).c_str());
  std::fflush(stdout);

  const bench::Outcome out =
      kv ? bench::run_kv(args, args.workload == "kv_object")
         : bench::run_paper(args);

  for (const bench::Metric& m : out.metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const bench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return out.correct ? 0 : 1;
}

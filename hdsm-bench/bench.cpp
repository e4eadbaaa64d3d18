#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace bench {

void Outcome::note(std::string name, double value, std::string unit) {
  std::ostringstream line;
  line.precision(6);
  line << name << ' ' << value << ' ' << unit;
  notes.push_back(line.str());
}

void Outcome::note_series(std::string name,
                          const std::vector<double>& values) {
  for (double v : values) {
    name += ' ';
    name += std::to_string(v);
  }
  notes.push_back(std::move(name));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::None: return "";
    case SpanName::Op: return "op";
    case SpanName::Acquire: return "acquire";
    case SpanName::Critical: return "critical";
    case SpanName::FirstWrite: return "first_write";
    case SpanName::Release: return "release";
    case SpanName::Setup: return "setup";
    case SpanName::Solve: return "solve";
  }
  return "?";
}

std::vector<double> mean_self_us(const std::vector<const SpanLog*>& logs) {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::Solve) + 1;
  auto at = [](SpanName n) { return static_cast<std::size_t>(n); };
  std::vector<double> total_ns(kNames, 0.0);
  std::vector<double> count(kNames, 0.0);
  for (const SpanLog* log : logs) {
    // Child time summed per parent name within the current op.
    std::vector<double> child_ns(kNames, 0.0);
    std::uint64_t op = 0;
    for (const Span& s : *log) {
      if (s.id != op) {
        std::fill(child_ns.begin(), child_ns.end(), 0.0);
        op = s.id;
      }
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      total_ns[at(s.name)] += dur - child_ns[at(s.name)];
      child_ns[at(s.name)] = 0.0;
      count[at(s.name)] += 1.0;
      if (s.parent != SpanName::None) child_ns[at(s.parent)] += dur;
    }
  }
  std::vector<double> mean(kNames, 0.0);
  for (std::size_t k = 0; k < kNames; ++k) {
    if (count[k] > 0) mean[k] = total_ns[k] / count[k] / 1e3;
  }
  return mean;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& detail_names) {
  std::int64_t origin = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : *log) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"format\": \"hdsm-bench spans v1\", \"record_bytes\": 24, "
         "\"names\": [";
  for (auto n = SpanName::None; n <= SpanName::Solve;
       n = static_cast<SpanName>(static_cast<int>(n) + 1)) {
    out << (n == SpanName::None ? "" : ", ") << '"' << span_name(n) << '"';
  }
  out << "], \"details\": [";
  for (std::size_t i = 0; i < detail_names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << detail_names[i] << '"';
  }
  out << "], \"origin_ns\": " << origin << "}\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : *log) {
      unsigned char rec[24] = {};
      const std::int64_t start = s.start_ns - origin;
      const auto dur = static_cast<std::uint32_t>(
          std::min<std::int64_t>(s.end_ns - s.start_ns, 0xffffffffLL));
      std::memcpy(rec, &s.id, 8);  // the build targets little-endian hosts
      std::memcpy(rec + 8, &start, 8);
      std::memcpy(rec + 16, &dur, 4);
      rec[20] = static_cast<unsigned char>(s.name);
      rec[21] = static_cast<unsigned char>(s.parent);
      rec[22] = s.detail;
      out.write(reinterpret_cast<const char*>(rec), sizeof rec);
    }
  }
  return static_cast<bool>(out.flush());
}

hdsm::dsm::ShareStats stats_delta(const hdsm::dsm::ShareStats& a,
                                  const hdsm::dsm::ShareStats& b) {
  hdsm::dsm::ShareStats d;
#define HDSM_X(field) d.field = a.field - b.field;
  HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
  return d;
}

hdsm::dsm::ShareStats stats_scaled(const hdsm::dsm::ShareStats& a,
                                   std::uint64_t k) {
  hdsm::dsm::ShareStats d;
#define HDSM_X(field) d.field = a.field * k;
  HDSM_SHARE_STATS_FIELDS(HDSM_X)
#undef HDSM_X
  return d;
}

void add_layer_counters(Outcome& out, const hdsm::dsm::ShareStats& d,
                        double per) {
  auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  auto ratio = [&](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : f(num) / f(den);
  };
  const double n = per > 0 ? per : 1.0;
  auto per_op = [&](std::uint64_t v) { return f(v) / n; };
  auto us_per_op = [&](std::uint64_t ns) { return f(ns) / 1e3 / n; };

  out.add("memory.dirty_pages", per_op(d.dirty_pages), "pages/op");
  out.add("index.t_index_us", us_per_op(d.index_ns), "us/op");
  out.add("tags.t_tag_us", us_per_op(d.tag_ns), "us/op");
  out.add("tags.tags", per_op(d.tags_generated), "tags/op");
  out.add("dsm.t_pack_us", us_per_op(d.pack_ns), "us/op");
  out.add("dsm.t_unpack_us", us_per_op(d.unpack_ns), "us/op");
  out.add("dsm.update_blocks", per_op(d.updates_sent), "blocks/op");
  out.add("dsm.update_bytes", per_op(d.update_bytes_sent), "B/op");
  out.add("dsm.plan_cache_hit_ratio",
          ratio(d.plan_cache_hits, d.plan_cache_hits + d.plan_cache_misses),
          "ratio");
  out.add("convert.t_conv_us", us_per_op(d.conv_ns), "us/op");
  out.add("convert.fastpath_ratio",
          ratio(d.fastpath_blocks, d.updates_received), "ratio");
  out.add("dsm.pool_batches", per_op(d.parallel_batches), "batches/op");
  out.add("dsm.pool_lanes_per_batch",
          ratio(d.conv_threads, d.parallel_batches), "lanes/batch");
  out.add("adapt.episodes", per_op(d.adapt_episodes), "episodes/op");
  out.add("adapt.switch_ratio", ratio(d.adapt_switches, d.adapt_episodes),
          "ratio");
  out.add("adapt.page_promotions", per_op(d.whole_page_promotions),
          "pages/op");
  out.add("codec.blocks", per_op(d.codec_blocks), "blocks/op");
  out.add("codec.wire_ratio", ratio(d.codec_wire_bytes, d.codec_raw_bytes),
          "ratio");
  out.add("codec.skip_ratio",
          ratio(d.codec_skipped, d.codec_blocks + d.codec_skipped), "ratio");
  out.add("codec.t_encode_us", us_per_op(d.codec_encode_ns), "us/op");
  out.add("codec.t_decode_us", us_per_op(d.codec_decode_ns), "us/op");
  out.add("codec.decode_rejects", f(d.codec_decode_rejects), "count");
  out.add("obj.objects_shipped", per_op(d.objects_shipped), "objects/op");
  out.add("dsm.shard_redirects", per_op(d.wrong_shard_redirects), "count/op");
  out.add("dsm.pending_pulls", per_op(d.pending_pulls), "count/op");
  out.add("dsm.retries", f(d.retries), "count");
  out.add("dsm.timeouts", f(d.timeouts), "count");
  out.add("dsm.duplicates_dropped", f(d.duplicates_dropped), "count");
  out.add("dsm.reconnects", f(d.reconnects), "count");
}

}  // namespace bench

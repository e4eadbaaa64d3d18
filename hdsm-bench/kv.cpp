// kv_object / kv_page: the Zipfian key-value workload over loopback TCP.
//
// Three closed-loop clients — the x86-64 master at the home plus remotes on
// linux_ia32 and solaris_sparc64 — each keep one locked read-modify-write
// outstanding against a 2-shard home (2 remotes x 2 shards = 4 TCP
// connections).  Both modes run the identical key stream over the identical
// GThV; object mode ships dirty objects (obj::ObjectHome/ObjectRemote), page
// mode takes the mprotect/twin/diff path (ShardedHome/ShardedRemote with
// row_region, scoped_pending and every lock bound to its region's stripe).
//
// Every timed slice runs on a fresh set-up (construction, connect/attach,
// generator set-up and a warm-up in which every client acquires every
// region once).  Set-up is reported as its own metric; only the steady
// state after it is timed.  A run is many short slices, and each
// end-to-end figure is the fast decile of its per-slice values.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "msg/tcp.hpp"
#include "obj/object_dsm.hpp"
#include "workloads/kv.hpp"

namespace bench {

namespace {

namespace dsm = hdsm::dsm;
namespace msg = hdsm::msg;
namespace obj = hdsm::obj;
namespace plat = hdsm::plat;
namespace work = hdsm::work;

constexpr std::uint32_t kClients = 3;  // master + two remotes
constexpr std::uint32_t kShards = 2;
/// Set-ups per run, one per timed slice (alternately untraced and traced
/// when traced); setup_s is their median.  How fast a set-up runs depends
/// on where the scheduler happens to place its threads: slices of one run
/// differ by up to 15 % on a 4-vCPU host.  Many slices per run keep that
/// inside the run instead of between runs.
constexpr std::uint32_t kSetups = 16;
/// Per-client op rate no run approaches (sizes the traced span logs).
constexpr double kMaxOpsPerSecond = 200000;

work::KvConfig kv_config(std::uint64_t seed) {
  work::KvConfig cfg;
  cfg.num_objects = 1'000'000;
  cfg.words = 4;
  cfg.num_regions = 64;
  cfg.theta = 0.99;
  cfg.seed = seed;
  cfg.num_shards = kShards;
  cfg.remotes = {&plat::linux_ia32(), &plat::solaris_sparc64()};
  return cfg;
}

/// The value word `w` of an object holds after its `count`-th update (the
/// stamp work::run_kv writes, so kv_expected_counts describes the image).
std::int32_t stamp(std::uint32_t count, std::uint32_t w) {
  return static_cast<std::int32_t>(count + w);
}

/// One client's view of the DSM: a region lock plus word access to any
/// object, on whichever node the client runs.
class Client {
 public:
  virtual ~Client() = default;
  virtual void lock(std::uint32_t region) = 0;
  virtual void unlock(std::uint32_t region) = 0;
  virtual std::int32_t get(std::uint64_t i, std::uint32_t w) = 0;
  virtual void set(std::uint64_t i, std::uint32_t w, std::int32_t v) = 0;
  /// Counters of this client's node, read on the client's own thread.
  virtual dsm::ShareStats stats() = 0;
  /// Frame bytes both ways on the client's TCP connections (0 at home).
  std::uint64_t wire_bytes() const {
    std::uint64_t b = 0;
    for (const msg::Endpoint* ep : tcp) {
      b += ep->bytes_sent() + ep->bytes_received();
    }
    return b;
  }
  /// The client's TCP endpoints, owned by its node.
  std::vector<const msg::Endpoint*> tcp;
};

/// Object-mode clients: ObjectSpace accessors.
template <typename Node>
class ObjectClient final : public Client {
 public:
  explicit ObjectClient(Node& node)
      : node_(node), acc_(node.template accessor<std::int32_t>(0)) {}
  void lock(std::uint32_t r) override { node_.lock(r); }
  void unlock(std::uint32_t r) override { node_.unlock(r); }
  std::int32_t get(std::uint64_t i, std::uint32_t w) override {
    return acc_.get(i, w);
  }
  void set(std::uint64_t i, std::uint32_t w, std::int32_t v) override {
    acc_.set(i, v, w);
  }
  dsm::ShareStats stats() override { return node_.node().stats(); }

 private:
  Node& node_;
  obj::ObjectAccessor<std::int32_t> acc_;
};

/// Page-mode clients: plain views of the same striped GThV fields, with
/// mprotect/twin diffing doing the change detection.
template <typename Node>
class PageClient final : public Client {
 public:
  PageClient(Node& node, const obj::ObjectLayout& layout)
      : node_(node), layout_(layout) {
    for (std::uint32_t r = 0; r < layout.num_regions(); ++r) {
      stripes_.push_back(
          node.space().template view<std::int32_t>(layout.field_name(0, r)));
    }
  }
  void lock(std::uint32_t r) override { node_.lock(r); }
  void unlock(std::uint32_t r) override { node_.unlock(r); }
  std::int32_t get(std::uint64_t i, std::uint32_t w) override {
    return stripes_[layout_.region_of(0, i)].get(slot(i) + w);
  }
  void set(std::uint64_t i, std::uint32_t w, std::int32_t v) override {
    stripes_[layout_.region_of(0, i)].set(slot(i) + w, v);
  }
  dsm::ShareStats stats() override { return node_.stats(); }

 private:
  std::uint64_t slot(std::uint64_t i) const {
    return std::uint64_t{layout_.slot_of(0, i)} * layout_.cls(0).words;
  }
  Node& node_;
  const obj::ObjectLayout& layout_;
  std::vector<dsm::View<std::int32_t>> stripes_;
};

/// One set-up instance: home, TCP sessions, remotes, one client per rank.
class KvCluster {
 public:
  KvCluster(const work::KvConfig& cfg, const obj::ObjectLayoutPtr& layout,
            bool object_mode) {
    const plat::PlatformDesc& home_plat = plat::linux_x86_64();
    dsm::ShardedHomeOptions opts;
    opts.num_shards = cfg.num_shards;
    opts.dsd = cfg.dsd;
    if (object_mode) {
      obj_home_ = std::make_unique<obj::ObjectHome>(layout, home_plat, opts);
      home_ = &obj_home_->node();
    } else {
      // Exactly work::run_kv's page mode: region-scoped pending, each
      // region's lock bound to its stripe.
      opts.num_locks = cfg.num_regions;
      opts.num_barriers = cfg.num_regions;
      opts.row_region = [layout](std::uint32_t row) {
        return layout->region_of_row(row);
      };
      opts.scoped_pending = true;
      page_home_ = std::make_unique<dsm::ShardedHome>(layout->gthv(),
                                                      home_plat, opts);
      for (std::uint32_t r = 0; r < cfg.num_regions; ++r) {
        page_home_->bind_lock(r, layout->field_name(0, r));
      }
      home_ = page_home_.get();
    }

    const auto t_connect = Clock::now();
    msg::TcpListener listener(0);
    std::vector<std::vector<msg::EndpointPtr>> eps(cfg.remotes.size());
    for (std::uint32_t rank = 1; rank <= cfg.remotes.size(); ++rank) {
      for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
        eps[rank - 1].push_back(msg::tcp_connect(listener.port()));
        home_->attach_endpoint(rank, s, listener.accept());
      }
    }
    dsm::ShardedRemoteOptions ropts;
    ropts.dsd = cfg.dsd;
    for (std::uint32_t rank = 1; rank <= cfg.remotes.size(); ++rank) {
      std::vector<const msg::Endpoint*> tcp;
      for (const auto& ep : eps[rank - 1]) tcp.push_back(ep.get());
      const plat::PlatformDesc& p = *cfg.remotes[rank - 1];
      if (object_mode) {
        obj_remotes_.push_back(std::make_unique<obj::ObjectRemote>(
            layout, p, rank, std::move(eps[rank - 1]), ropts));
        clients_.push_back(std::make_unique<ObjectClient<obj::ObjectRemote>>(
            *obj_remotes_.back()));
      } else {
        page_remotes_.push_back(std::make_unique<dsm::ShardedRemote>(
            layout->gthv(), p, rank, std::move(eps[rank - 1]), ropts));
        clients_.push_back(std::make_unique<PageClient<dsm::ShardedRemote>>(
            *page_remotes_.back(), *layout));
      }
      clients_.back()->tcp = std::move(tcp);
    }
    home_->start();
    connect_s = seconds_since(t_connect);
    if (object_mode) {
      clients_.insert(clients_.begin(),
                      std::make_unique<ObjectClient<obj::ObjectHome>>(
                          *obj_home_));
    } else {
      clients_.insert(clients_.begin(),
                      std::make_unique<PageClient<dsm::ShardedHome>>(
                          *page_home_, *layout));
    }
  }

  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;

  ~KvCluster() {
    // Remotes leave first (join ships nothing new), then the home stops.
    try {
      for (auto& r : obj_remotes_) r->join();
      for (auto& r : page_remotes_) r->join();
      home_->wait_all_joined();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "kv teardown: %s\n", e.what());
    }
  }

  Client& client(std::uint32_t rank) { return *clients_.at(rank); }
  /// Cluster-wide counters; call only while every client is idle.
  dsm::ShareStats total_stats() {
    dsm::ShareStats t = home_->stats();
    for (std::uint32_t r = 1; r < clients_.size(); ++r) {
      t += clients_[r]->stats();
    }
    return t;
  }

  double connect_s = 0.0;

 private:
  // Declared so that clients go first, then remotes, then the home.
  std::unique_ptr<obj::ObjectHome> obj_home_;
  std::unique_ptr<dsm::ShardedHome> page_home_;
  dsm::ShardedHome* home_ = nullptr;
  std::vector<std::unique_ptr<obj::ObjectRemote>> obj_remotes_;
  std::vector<std::unique_ptr<dsm::ShardedRemote>> page_remotes_;
  std::vector<std::unique_ptr<Client>> clients_;  ///< [rank]
};

/// Run `fn(rank)` on one thread per client (rank 0 on the caller) and
/// join them all; the first exception any client threw is rethrown.
template <typename Fn>
void on_clients(Fn&& fn) {
  std::vector<std::exception_ptr> errors(kClients);
  auto guarded = [&](std::uint32_t rank) {
    try {
      fn(rank);
    } catch (...) {
      errors[rank] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t rank = 1; rank < kClients; ++rank) {
    threads.emplace_back(guarded, rank);
  }
  guarded(0);
  for (std::thread& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// One client's results over the slices of one kind (traced or not).
struct ClientPhase {
  std::uint64_t ops = 0;
  /// lock() call -> unlock() return.  Four bytes a sample keep the sample
  /// buffers' share of the peak RSS small.
  std::vector<float> episode_us;
  dsm::ShareStats node_delta;    ///< this remote's own counters
  std::uint64_t wire_bytes = 0;  ///< this remote's TCP frames, both ways
  SpanLog spans;
};

/// Per-slice figures, one entry per slice.  A slice's latency percentile
/// is the median over the clients of each client's own percentile: the
/// master's local episodes and the remotes' round trips differ tenfold, so
/// a pooled percentile would follow the client mix rather than the
/// episodes.
struct Slices {
  std::vector<double> ops_per_s, p50_us, p90_us;
};

/// Closed-loop locked RMW ops by every client, summed over the slices of
/// one kind.
struct Phase {
  std::vector<ClientPhase> client = std::vector<ClientPhase>(kClients);
  double wall_s = 0.0;
  Slices slices;
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& c : client) n += c.ops;
    return n;
  }
};

/// One timed slice: every client runs ops on its key stream until
/// `seconds` have passed, then finishes the op in flight.  The slice's
/// wall time runs until the last client is done.  `ops_per_rank` counts
/// each rank's ops on this set-up (the replay length for verification).
void run_slice(KvCluster& cluster, const obj::ObjectLayout& layout,
               std::vector<work::ZipfianGenerator>& gens,
               std::vector<std::uint64_t>& ops_per_rank, double seconds,
               bool traced, Phase& ph) {
  // Reserve past any rate this loop reaches (the pages stay untouched
  // until used), so the span log does not reallocate inside the body.
  if (traced) {
    const auto room = static_cast<std::size_t>(seconds * kMaxOpsPerSecond);
    for (auto& c : ph.client) {
      c.spans.reserve(c.spans.size() + 5 * room);
    }
  }
  // [rank] episode samples of this slice.
  std::vector<std::vector<float>> slice_us(kClients);
  std::vector<std::int64_t> end_ns(kClients, 0);
  std::barrier start(kClients);
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(seconds * 1e9);
  on_clients([&](std::uint32_t rank) {
    Client& cl = cluster.client(rank);
    ClientPhase& me = ph.client[rank];
    std::vector<float>& mine = slice_us[rank];
    work::ZipfianGenerator& gen = gens[rank];
    const dsm::ShareStats stats0 = rank != 0 ? cl.stats() : dsm::ShareStats{};
    const std::uint64_t wire0 = cl.wire_bytes();
    start.arrive_and_wait();
    for (;;) {
      const std::int64_t t_op = now_ns();
      if (t_op >= deadline) break;
      const std::uint64_t key = gen.next();
      const std::uint32_t region = layout.region_of(0, key);
      const std::int64_t t_lock = traced ? now_ns() : t_op;
      cl.lock(region);
      const std::int64_t t_locked = traced ? now_ns() : 0;
      const auto count = static_cast<std::uint32_t>(cl.get(key, 0)) + 1;
      const std::int64_t t_w0 = traced ? now_ns() : 0;
      cl.set(key, 0, stamp(count, 0));
      const std::int64_t t_w1 = traced ? now_ns() : 0;
      for (std::uint32_t w = 1; w < layout.cls(0).words; ++w) {
        cl.set(key, w, stamp(count, w));
      }
      const std::int64_t t_unlock = traced ? now_ns() : 0;
      cl.unlock(region);
      const std::int64_t t_done = now_ns();
      mine.push_back(static_cast<float>(t_done - t_lock) / 1e3f);
      if (traced) {
        const std::uint64_t id =
            (std::uint64_t{rank} << 32) |
            ((me.ops + mine.size() - 1) & 0xffffffffu);
        using N = SpanName;
        me.spans.push_back({id, N::Acquire, N::Op, t_lock, t_locked, 0});
        me.spans.push_back({id, N::FirstWrite, N::Critical, t_w0, t_w1, 0});
        me.spans.push_back({id, N::Critical, N::Op, t_locked, t_unlock, 0});
        me.spans.push_back({id, N::Release, N::Op, t_unlock, t_done, 0});
        me.spans.push_back({id, N::Op, N::None, t_op, t_done, 0});
      }
    }
    end_ns[rank] = now_ns();
    if (rank != 0) me.node_delta += stats_delta(cl.stats(), stats0);
    me.wire_bytes += cl.wire_bytes() - wire0;
  });
  const double wall_s =
      static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end()) -
                          t0) /
      1e9;
  ph.wall_s += wall_s;
  std::size_t ops = 0;
  std::vector<double> p50, p90;  // [client]
  for (std::uint32_t rank = 0; rank < kClients; ++rank) {
    const std::vector<float>& mine = slice_us[rank];
    ClientPhase& me = ph.client[rank];
    ops += mine.size();
    me.ops += mine.size();
    ops_per_rank[rank] += mine.size();
    me.episode_us.insert(me.episode_us.end(), mine.begin(), mine.end());
    if (mine.empty()) continue;
    p50.push_back(quantile(mine, 0.5));
    p90.push_back(quantile(mine, 0.9));
  }
  ph.slices.ops_per_s.push_back(static_cast<double>(ops) / wall_s);
  ph.slices.p50_us.push_back(median(p50));
  ph.slices.p90_us.push_back(median(p90));
}

std::vector<float> all_samples(const Phase& ph) {
  std::vector<float> all;
  for (const ClientPhase& c : ph.client) {
    all.insert(all.end(), c.episode_us.begin(), c.episode_us.end());
  }
  return all;
}

/// Every client acquires and releases every region once (pulls its first
/// grant of each region: the one-time image shipment).
void warm_up(KvCluster& cluster, std::uint32_t regions) {
  on_clients([&](std::uint32_t rank) {
    Client& cl = cluster.client(rank);
    for (std::uint32_t r = 0; r < regions; ++r) {
      cl.lock(r);
      cl.unlock(r);
    }
  });
}

/// Compare the master image with the offline replay of every rank's key
/// stream for the ops it completed.
bool verify_image(KvCluster& cluster, const work::KvConfig& cfg,
                  const std::vector<std::uint64_t>& ops_per_rank) {
  std::vector<std::uint32_t> expected(cfg.num_objects, 0);
  for (std::uint32_t rank = 0; rank < kClients; ++rank) {
    work::KvConfig one = cfg;
    one.remotes.clear();  // a single rank, replayed with seed + rank
    one.seed = cfg.seed + rank;
    one.ops_per_rank = ops_per_rank[rank];
    const auto counts = work::kv_expected_counts(one);
    for (std::uint64_t i = 0; i < cfg.num_objects; ++i) {
      expected[i] += counts[i];
    }
  }
  Client& master = cluster.client(0);
  for (std::uint64_t i = 0; i < cfg.num_objects; ++i) {
    for (std::uint32_t w = 0; w < cfg.words; ++w) {
      const std::int32_t want = expected[i] == 0 ? 0 : stamp(expected[i], w);
      if (master.get(i, w) != want) {
        std::fprintf(stderr, "kv: object %llu word %u holds %d, expected %d\n",
                     static_cast<unsigned long long>(i), w, master.get(i, w),
                     want);
        return false;
      }
    }
  }
  return true;
}

void add_span_metrics(Outcome& out, const Phase& ph,
                      const std::vector<double>& self_us) {
  std::vector<double> acquire, release, first_write;
  for (const auto& c : ph.client) {
    for (const Span& s : c.spans) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      if (s.name == SpanName::Acquire) acquire.push_back(us);
      if (s.name == SpanName::Release) release.push_back(us);
      if (s.name == SpanName::FirstWrite) first_write.push_back(us);
    }
  }
  out.add("dsm.acquire_us.p50", quantile(acquire, 0.5), "us");
  out.add("dsm.acquire_us.p99", quantile(acquire, 0.99), "us");
  out.add("dsm.release_us.p50", quantile(release, 0.5), "us");
  out.add("dsm.release_us.p99", quantile(release, 0.99), "us");
  out.add("memory.first_write_us.p50", quantile(first_write, 0.5), "us");
  auto self = [&](SpanName n) { return self_us[static_cast<std::size_t>(n)]; };
  out.add("self.op_us", self(SpanName::Op), "us");
  out.add("self.acquire_us", self(SpanName::Acquire), "us");
  out.add("self.critical_us", self(SpanName::Critical), "us");
  out.add("self.first_write_us", self(SpanName::FirstWrite), "us");
  out.add("self.release_us", self(SpanName::Release), "us");
}

}  // namespace

Outcome run_kv(const RunArgs& args, bool object_mode) {
  const work::KvConfig cfg = kv_config(args.seed);
  const obj::ObjectLayoutPtr layout = work::kv_layout(cfg);
  Outcome out;
  out.correct = true;

  // Every slice runs on a set-up of its own: the run-to-run differences
  // of one cluster instance (which thread lands where, and when) then
  // average out inside a run instead of between runs.
  std::vector<double> setup_s, connect_s, warm_s;
  std::uint64_t warm_bytes = 0;
  Phase timed;     // every slice, or the traced ones
  Phase untraced;  // traced run: the untraced slices
  dsm::ShareStats traced_delta;
  double cpu_s = 0.0;
  for (std::uint32_t i = 0; i < kSetups; ++i) {
    const bool traced = traced_slice(args.trace, i);
    Phase& ph = args.trace && !traced ? untraced : timed;

    const auto t0 = Clock::now();
    KvCluster cluster(cfg, layout, object_mode);
    std::vector<work::ZipfianGenerator> gens;
    for (std::uint32_t rank = 0; rank < kClients; ++rank) {
      gens.emplace_back(cfg.num_objects, cfg.theta, cfg.seed + rank);
    }
    const dsm::ShareStats cold = cluster.total_stats();
    const auto t_warm = Clock::now();
    warm_up(cluster, cfg.num_regions);
    warm_s.push_back(seconds_since(t_warm));
    const dsm::ShareStats warm = cluster.total_stats();
    warm_bytes = warm.update_bytes_sent - cold.update_bytes_sent;
    setup_s.push_back(seconds_since(t0));
    connect_s.push_back(cluster.connect_s);

    std::vector<std::uint64_t> ops_per_rank(kClients, 0);
    const double cpu0 = process_cpu_s();
    try {
      run_slice(cluster, *layout, gens, ops_per_rank, args.seconds / kSetups,
                traced, ph);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "kv: operation failed: %s\n", e.what());
      out.attempted = timed.ops() + untraced.ops() + 1;
      out.failed = out.attempted;
      out.correct = false;
      return out;
    }
    if (traced) {
      cpu_s += process_cpu_s() - cpu0;
      traced_delta += stats_delta(cluster.total_stats(), warm);
    }
    if (!verify_image(cluster, cfg, ops_per_rank)) out.correct = false;
  }

  const std::uint64_t ops = timed.ops() + untraced.ops();
  out.attempted = ops;
  out.failed = out.correct ? 0 : ops;
  // Before the analysis below allocates its merged sample copies.
  const double rss_mb = peak_rss_mb();
  const double ops_per_s = static_cast<double>(timed.ops()) / timed.wall_s;
  const std::vector<float> episode_us = all_samples(timed);

  if (!args.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("ops_per_s", fast_decile_rate(timed.slices.ops_per_s), "ops/s");
    out.add("episode_p50_us", fast_decile_time(timed.slices.p50_us), "us");
    out.add("episode_p90_us", fast_decile_time(timed.slices.p90_us), "us");
    out.add("peak_rss_mb", rss_mb, "MB");
    out.note("failed_frac",
             static_cast<double>(out.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, ops)),
             "ratio");
    out.note("episode_samples", static_cast<double>(episode_us.size()),
             "count");
    out.note("slices", static_cast<double>(timed.slices.ops_per_s.size()),
             "count");
    out.note("pooled_ops_per_s", ops_per_s, "ops/s");
    out.note("pooled_episode_p50_us", quantile(episode_us, 0.5), "us");
    out.note("pooled_episode_p90_us", quantile(episode_us, 0.9), "us");
    for (std::uint32_t r = 0; r < kClients; ++r) {
      const ClientPhase& c = timed.client[r];
      std::string rank = "rank";
      rank += std::to_string(r);
      out.note(rank + "_ops_per_s", static_cast<double>(c.ops) / timed.wall_s,
               "ops/s");
      out.note(rank + "_episode_p50_us", quantile(c.episode_us, 0.5), "us");
    }
    out.note_series("slice_ops_per_s", timed.slices.ops_per_s);
    out.note_series("slice_episode_p50_us", timed.slices.p50_us);
    out.note_series("slice_episode_p90_us", timed.slices.p90_us);
    return out;
  }

  // Per-layer metrics: the traced slices only.
  const double n = static_cast<double>(std::max<std::uint64_t>(1, timed.ops()));
  add_layer_counters(out, traced_delta, n);
  std::uint64_t wire = 0;
  std::uint64_t update_bytes = 0;
  for (const auto& c : timed.client) {
    wire += c.wire_bytes;
    update_bytes +=
        c.node_delta.update_bytes_sent + c.node_delta.update_bytes_received;
  }
  out.add("msg.wire_bytes", static_cast<double>(wire) / n, "B/op");
  out.add("msg.control_bytes",
          static_cast<double>(wire - std::min(wire, update_bytes)) / n, "B/op");
  std::vector<const SpanLog*> logs;
  for (const auto& c : timed.client) logs.push_back(&c.spans);
  add_span_metrics(out, timed, mean_self_us(logs));
  out.add("workloads.episode_us.p99", quantile(episode_us, 0.99), "us");
  out.add("proc.cpu_util",
          cpu_s / (timed.wall_s * std::thread::hardware_concurrency()),
          "ratio");
  out.add("proc.cpu_us", cpu_s * 1e6 / n, "us/op");
  out.add("setup.connect_s", median(connect_s), "s");
  out.add("setup.warm_s", median(warm_s), "s");
  out.add("setup.warm_bytes", static_cast<double>(warm_bytes), "B");
  const double untraced_rate =
      static_cast<double>(untraced.ops()) / untraced.wall_s;
  out.add("trace.ops_per_s", ops_per_s, "ops/s");
  out.add("trace.untraced_ops_per_s", untraced_rate, "ops/s");
  out.add("trace.overhead_pct",
          (untraced_rate - ops_per_s) / untraced_rate * 100.0, "%");
  if (!args.spans_out.empty() && !write_spans(args.spans_out, logs, {})) {
    std::fprintf(stderr, "kv: cannot write spans to %s\n",
                 args.spans_out.c_str());
  }
  return out;
}

}  // namespace bench

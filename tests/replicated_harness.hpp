// Shared driver for the primary/standby replication suites
// (docs/REPLICATION.md): N remotes increment a shared array under mutex 0
// against a ReplicatedHome, optionally behind per-session FaultyEndpoints,
// with the primary killed and the standby promoted mid-run.  The
// acceptance bar after a failover: the run converges on the *standby's*
// image to the fault-free expectation, the standby's protocol trace
// validates seamlessly across the epoch bump (the replayed prefix and the
// post-promotion suffix form one coherent log), and no (rank, request) is
// applied twice — zero lost and zero doubled grants or updates.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/replicated_home.hpp"
#include "dsm/sharded_remote.hpp"
#include "dsm/trace.hpp"
#include "msg/faulty.hpp"
#include "test_time.hpp"

namespace hdsm::test {

constexpr std::uint64_t kReplElems = 64;

inline tags::TypePtr repl_gthv() {
  return tags::TypeDesc::struct_of(
      "G", {{"A", tags::TypeDesc::array(tags::t_longlong(), kReplElems)}});
}

inline dsm::RetryPolicy repl_fast_retry() {
  dsm::RetryPolicy p;
  p.timeout = scaled(std::chrono::milliseconds(25));
  p.backoff = 1.5;
  p.max_timeout = scaled(std::chrono::milliseconds(200));
  p.max_retries = 12;
  return p;
}

inline std::vector<std::pair<std::uint64_t, std::int64_t>> repl_ops_of(
    std::uint32_t rank, int ops) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> v;
  std::mt19937_64 rng(900 + rank);
  for (int i = 0; i < ops; ++i) {
    v.emplace_back(rng() % kReplElems,
                   static_cast<std::int64_t>(rng() % 100) - 50);
  }
  return v;
}

inline std::vector<std::int64_t> repl_expected(std::uint32_t num_remotes,
                                               int ops) {
  std::vector<std::int64_t> e(kReplElems, 0);
  for (std::uint32_t r = 1; r <= num_remotes; ++r) {
    for (const auto& [idx, delta] : repl_ops_of(r, ops)) e[idx] += delta;
  }
  return e;
}

/// Validate one home's shard logs and assert the cross-shard exactly-once
/// bar (a (rank, req) applied at two shards, or twice at one, is a doubled
/// update).
inline void check_logs(std::vector<dsm::TraceLog>& logs, const char* who) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> applied;
  for (std::uint32_t s = 0; s < logs.size(); ++s) {
    const auto snap = logs[s].snapshot();
    const auto err = dsm::validate_trace(snap);
    EXPECT_FALSE(err.has_value()) << who << " shard " << s << ": " << *err;
    for (const auto& ev : snap) {
      if (ev.kind != dsm::TraceEvent::Kind::UpdatesApplied || ev.req == 0) {
        continue;
      }
      const auto [it, fresh] =
          applied.emplace(std::make_pair(ev.rank, ev.req), s);
      EXPECT_TRUE(fresh) << who << ": rank " << ev.rank << " request #"
                         << ev.req << " applied at shard " << it->second
                         << " and again at shard " << s;
    }
  }
}

/// The driver.  `fault == nullptr` runs clean transports.  With
/// `failover`, the primary is killed once roughly half the total ops have
/// committed and the standby promoted; remotes re-dial through
/// ReplicatedHome::redial (their reconnect hook).  Returns the failover
/// pause (zero when `failover` is false).
inline std::chrono::nanoseconds converge_replicated(
    const msg::FaultOptions* fault, std::uint32_t num_shards,
    std::uint32_t num_remotes, int ops, bool failover) {
  std::vector<dsm::TraceLog> plogs(num_shards);
  std::vector<dsm::TraceLog> slogs(num_shards);
  dsm::ReplicatedHomeOptions opts;
  opts.home.num_shards = num_shards;
  for (auto& l : plogs) opts.home.shard_traces.push_back(&l);
  for (auto& l : slogs) opts.standby_traces.push_back(&l);
  dsm::ReplicatedHome repl(repl_gthv(), hdsm::plat::linux_ia32(), opts);

  // Re-dialed transports inherit the session's fault schedule minus the
  // reset: each reset burns a finite reconnect credit, and an endless
  // reset→redial loop would test the budget, not the failover.
  const auto wrap = [fault](std::uint32_t rank, std::uint32_t shard,
                            bool redial, msg::EndpointPtr ep) {
    if (fault == nullptr) return ep;
    msg::FaultOptions per = *fault;
    per.seed = fault->seed + rank * 64 + shard + (redial ? 4096 : 0);
    if (redial) {
      per.send.reset_after = 0;
      per.recv.reset_after = 0;
    }
    return msg::EndpointPtr(msg::make_faulty(std::move(ep), per));
  };

  repl.set_barrier_count(0, num_remotes + 1);
  repl.start();

  // A thread that throws reports it and stops the home, which unblocks
  // every other thread, instead of taking the whole suite down.
  std::atomic<bool> failed{false};
  const auto report = [&repl, &failed](const std::string& who,
                                       const std::exception& e) {
    ADD_FAILURE() << who << ": " << e.what();
    failed.store(true);
    repl.stop();
  };
  std::atomic<int> ops_done{0};
  std::vector<std::thread> threads;
  threads.reserve(num_remotes);
  for (std::uint32_t rank = 1; rank <= num_remotes; ++rank) {
    std::vector<msg::EndpointPtr> eps = repl.attach(rank);
    for (std::uint32_t s = 0; s < eps.size(); ++s) {
      eps[s] = wrap(rank, s, /*redial=*/false, std::move(eps[s]));
    }
    threads.emplace_back([&repl, &wrap, &ops_done, &report, rank, ops,
                          eps = std::move(eps)]() mutable {
      try {
        dsm::ShardedRemoteOptions ropts;
        ropts.retry = repl_fast_retry();
        ropts.max_reconnects = 6;
        ropts.reconnect = [&repl, &wrap, rank](std::uint32_t shard) {
          return wrap(rank, shard, /*redial=*/true, repl.redial(rank, shard));
        };
        dsm::ShardedRemote remote(repl_gthv(), hdsm::plat::linux_ia32(),
                                  rank, std::move(eps), ropts);
        for (const auto& [idx, delta] : repl_ops_of(rank, ops)) {
          remote.lock(0);
          auto a = remote.space().view<std::int64_t>("A");
          a.set(idx, a.get(idx) + delta);
          remote.unlock(0);
          ops_done.fetch_add(1);
        }
        remote.barrier(0);
        remote.join();
      } catch (const std::exception& e) {
        report("rank " + std::to_string(rank), e);
      }
    });
  }

  std::chrono::nanoseconds pause{0};
  try {
    if (failover) {
      const int threshold =
          std::max(1, static_cast<int>(num_remotes) * ops / 2);
      while (ops_done.load() < threshold && !failed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pause = repl.fail_over();
      EXPECT_TRUE(repl.failed_over());
    }
    repl.barrier(0);
    repl.wait_all_joined();
  } catch (const std::exception& e) {
    report("driver", e);
  }
  for (std::thread& t : threads) t.join();

  const std::vector<std::int64_t> expected = repl_expected(num_remotes, ops);
  auto a = repl.space().view<std::int64_t>("A");
  for (std::uint64_t i = 0; i < kReplElems; ++i) {
    EXPECT_EQ(a.get(i), expected[i]) << "element " << i;
  }
  EXPECT_GT(repl.standby().replicated_log_index(), 0u);
  if (failover) {
    // The primary's log stops mid-run (open episodes at the crash point);
    // the standby's must validate end to end — the replayed prefix plus
    // the post-promotion suffix form one seamless history.
    check_logs(slogs, "standby");
  } else {
    check_logs(plogs, "primary");
    check_logs(slogs, "standby");
    // Without a failover the standby replayed everything the primary
    // executed: its image is byte-for-byte the converged state too.
    auto sa = repl.standby().space().view<std::int64_t>("A");
    for (std::uint64_t i = 0; i < kReplElems; ++i) {
      EXPECT_EQ(sa.get(i), expected[i]) << "standby element " << i;
    }
  }
  repl.stop();
  return pause;
}

}  // namespace hdsm::test

// Deterministic pure-core tests for the adaptive policy engine: EWMA/probe
// math, warmup, pins, hysteresis (no flapping on an oscillating signal),
// the fast-path/slack/codec decision rules, seeded replay (the same signal
// trace always reproduces the same decision trace) and a golden decision
// trace.  No I/O, no threads, no clocks — everything here is a function of
// the inputs.

#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/probe.hpp"
#include "adapt/signal.hpp"
#include "adapt/tuner.hpp"

namespace adapt = hdsm::adapt;

namespace {

/// Aggressive config so tests don't need long warmup/dwell stretches.
adapt::TunerConfig fast_cfg() {
  adapt::TunerConfig cfg;
  cfg.warmup = 1;
  cfg.dwell = 1;
  return cfg;
}

/// Apply-side episode with an identity (or not) sender.
adapt::Signal apply_signal(bool identity) {
  adapt::Signal s;
  s.blocks = 4;
  s.identity_sender = identity;
  return s;
}

/// Pack episode whose per-run overhead dwarfs its per-byte cost
/// (5000 ns/run against 50 ns/B): the slack rule wants the widest bucket.
adapt::Signal run_heavy_pack() {
  adapt::Signal s;
  s.pack_ns = 100000;
  s.runs = 10;
  s.bytes_packed = 1000;
  return s;
}

}  // namespace

TEST(Ewma, SeedsOnFirstSampleThenSmooths) {
  adapt::Ewma e(0.25);
  EXPECT_FALSE(e.seeded());
  e.update(100.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
  e.update(200.0);
  EXPECT_DOUBLE_EQ(e.value(), 125.0);  // 100 + 0.25 * (200 - 100)
  EXPECT_EQ(e.samples(), 2u);
}

TEST(Probe, FieldGroupsFoldIndependently) {
  adapt::Probe p(0.5);

  // Pack-only episode: the apply and link models stay unseeded.
  adapt::Signal pack;
  pack.pack_ns = 1000;
  pack.runs = 10;
  pack.bytes_packed = 1000;
  p.observe(pack);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), 50.0);       // half of 1000 ns / 10 runs
  EXPECT_DOUBLE_EQ(p.pack_ns_per_byte(), 0.5);  // half of 1000 ns / 1000 B
  EXPECT_DOUBLE_EQ(p.identity_rate(), 0.0);
  EXPECT_FALSE(p.has_link_model());

  // Apply-only episode: identity rate seeds, pack models unchanged.
  adapt::Signal apply;
  apply.blocks = 2;
  apply.identity_sender = true;
  p.observe(apply);
  EXPECT_DOUBLE_EQ(p.identity_rate(), 1.0);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), 50.0);
  EXPECT_EQ(p.episodes(), 2u);

  // Wire-only episode: the per-link model seeds, the others stay put.
  adapt::Signal wire;
  wire.wire_ns = 8192;
  wire.wire_bytes = 4096;
  p.observe(wire);
  EXPECT_TRUE(p.has_link_model());
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.identity_rate(), 1.0);
  EXPECT_DOUBLE_EQ(p.pack_ns_per_byte(), 0.5);

  // An empty (collect) episode counts but moves no model.
  p.observe(adapt::Signal{});
  EXPECT_EQ(p.episodes(), 4u);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), 50.0);
  EXPECT_DOUBLE_EQ(p.identity_rate(), 1.0);
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 2.0);

  // Too few runs to say anything about per-run cost: only the byte model
  // learns from this pack.
  adapt::Signal few = pack;
  few.runs = adapt::Probe::kMinRunsForPerRunModel - 1;
  p.observe(few);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), 50.0);
}

TEST(Probe, CodecModelsLearnOnlyFromEncodedEpisodes) {
  adapt::Probe p(0.5);
  EXPECT_FALSE(p.has_codec_model());

  // A raw pack (codec off) feeds the raw-bytes mean but must not seed the
  // encode cost or the ratio...
  adapt::Signal raw;
  raw.pack_ns = 1000;
  raw.runs = 10;
  raw.bytes_packed = 1200;
  raw.bytes_raw = 1000;
  raw.bytes_coded = 1000;
  p.observe(raw);
  EXPECT_FALSE(p.has_codec_model());
  EXPECT_DOUBLE_EQ(p.raw_bytes_per_episode(), 1000.0);

  // ...an encoded pack seeds both...
  adapt::Signal coded = raw;
  coded.codec_on = true;
  coded.encode_ns = 2000;
  coded.bytes_coded = 250;
  p.observe(coded);
  EXPECT_TRUE(p.has_codec_model());
  EXPECT_DOUBLE_EQ(p.encode_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.codec_ratio(), 0.25);

  // ...and interleaved raw packs leave the ratio alone instead of dragging
  // it toward 1, while the raw-bytes mean keeps learning (alpha 0.5).
  raw.bytes_raw = 3000;
  raw.bytes_coded = 3000;
  p.observe(raw);
  EXPECT_DOUBLE_EQ(p.codec_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(p.encode_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.raw_bytes_per_episode(), 2000.0);
}

TEST(Tuner, WarmupFreezesAllDecisions) {
  adapt::TunerConfig cfg;
  cfg.warmup = 5;
  cfg.dwell = 1;
  adapt::Tuner t(cfg);
  for (int i = 0; i < 4; ++i) {
    const adapt::Decision& d = t.step(apply_signal(/*identity=*/true));
    EXPECT_EQ(d.changed, 0u) << "episode " << i;
    EXPECT_FALSE(d.identity_fastpath);
  }
  // Episode 5 reaches warmup; identity rate is pegged at 1.0 by now.
  const adapt::Decision& d = t.step(apply_signal(true));
  EXPECT_TRUE(d.identity_fastpath);
  EXPECT_TRUE(d.changed & adapt::Decision::kFastpath);
}

TEST(Tuner, PinnedKnobsNeverMove) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  cfg.pin_identity_fastpath = 0;
  cfg.pin_merge_slack = 8;
  cfg.pin_codec = 0;
  adapt::Tuner t(cfg);
  EXPECT_EQ(t.decision().merge_slack, 8u);
  // Signals that move every unpinned knob: identity traffic, run-heavy
  // packs, and raw bytes that would trigger codec exploration.
  adapt::Signal pack = run_heavy_pack();
  pack.bytes_raw = 1000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d =
        t.step(i % 2 == 0 ? apply_signal(true) : pack);
    EXPECT_FALSE(d.identity_fastpath);
    EXPECT_EQ(d.merge_slack, 8u);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed, 0u);
  }
  EXPECT_EQ(t.switches(), 0u);
}

TEST(Tuner, CodecKnobGatedByEnableFlag) {
  // Sessions that never opt in (codec != Adaptive) see no codec decisions
  // at all: no exploration, no kCodec bit.
  adapt::Tuner t(fast_cfg());
  adapt::Signal s;
  s.pack_ns = 1000;
  s.runs = 4;
  s.bytes_packed = 100000;
  s.bytes_raw = 100000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = t.step(s);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed & adapt::Decision::kCodec, 0u);
  }
}

TEST(Tuner, CodecExploresOnceThenFollowsTheCostModel) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  adapt::Tuner t(cfg);

  // Raw pack episodes: the encode cost and ratio can only be measured by
  // running the encoder, so the tuner flips the knob on once to explore.
  adapt::Signal raw;
  raw.pack_ns = 1000;
  raw.runs = 4;
  raw.bytes_packed = 100000;
  raw.bytes_raw = 100000;
  bool explored = false;
  for (int i = 0; i < 10 && !explored; ++i) explored = t.step(raw).compress;
  EXPECT_TRUE(explored);

  // Codec episodes over a slow measured link (100 ns/B) with cheap encode
  // (1 ns/B) and 4x compression: the codec wins, the knob stays engaged.
  adapt::Signal coded = raw;
  coded.codec_on = true;
  coded.encode_ns = 100000;
  coded.bytes_coded = 25000;
  coded.wire_ns = 2500000;
  coded.wire_bytes = 25000;
  for (int i = 0; i < 20; ++i) t.step(coded);
  EXPECT_TRUE(t.decision().compress);

  // The link speeds up to 0.1 ns/B: shipping raw beats paying the encoder,
  // so the knob releases once the EWMA catches up.
  adapt::Signal fast = coded;
  fast.wire_ns = 2500;
  for (int i = 0; i < 200; ++i) t.step(fast);
  EXPECT_FALSE(t.decision().compress);
}

TEST(Tuner, CodecPinNeverMoves) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  cfg.pin_codec = 0;
  adapt::Tuner off(cfg);
  // Even a link slow enough to make compression a runaway win can't move a
  // pinned knob.
  adapt::Signal coded;
  coded.pack_ns = 1000;
  coded.runs = 4;
  coded.bytes_packed = 100000;
  coded.bytes_raw = 100000;
  coded.codec_on = true;
  coded.encode_ns = 100000;
  coded.bytes_coded = 25000;
  coded.wire_ns = 10000000;
  coded.wire_bytes = 25000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = off.step(coded);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed & adapt::Decision::kCodec, 0u);
  }

  cfg.pin_codec = 1;
  adapt::Tuner on(cfg);
  EXPECT_TRUE(on.decision().compress);
}

TEST(Tuner, NoFlappingOnOscillatingSignal) {
  // Identity traffic alternating every episode: the EWMA hovers around
  // 0.5, so without hysteresis the fast path would toggle constantly.
  // With the engage>=0.5 / release<0.25 band it changes at most once.
  adapt::Tuner t(adapt::TunerConfig{});  // default warmup/dwell
  std::uint64_t fastpath_changes = 0;
  for (int i = 0; i < 200; ++i) {
    const adapt::Decision& d = t.step(apply_signal(i % 2 == 0));
    if (d.changed & adapt::Decision::kFastpath) ++fastpath_changes;
  }
  EXPECT_LE(fastpath_changes, 1u);
}

TEST(Tuner, SeededReplayReproducesDecisionTrace) {
  // A deterministic LCG drives 300 episodes of mixed collect/pack/apply/
  // wire signals; feeding the identical trace through a fresh tuner must yield
  // the identical decision trace (values and changed bits).
  const auto make_trace = [] {
    std::vector<adapt::Signal> trace;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return (x >> 33);
    };
    for (int i = 0; i < 300; ++i) {
      adapt::Signal s;
      switch (next() % 4) {
        case 0:  // collect: steps the tuner, feeds no model
          break;
        case 1:  // pack
          s.pack_ns = 1000 + next() % 50000;
          s.runs = 1 + next() % 64;
          s.bytes_packed = 100 + next() % 100000;
          s.bytes_raw = s.bytes_packed / 2;
          s.codec_on = next() % 2 == 0;
          s.encode_ns = s.codec_on ? 100 + next() % 20000 : 0;
          s.bytes_coded = s.codec_on ? s.bytes_raw / 3 : s.bytes_raw;
          break;
        case 2:  // apply
          s.blocks = 1 + next() % 32;
          s.identity_sender = next() % 2 == 0;
          break;
        default:  // wire
          s.wire_bytes = 4096 + next() % 100000;
          s.wire_ns = 100 + next() % 400000;
          break;
      }
      trace.push_back(s);
    }
    return trace;
  };

  const std::vector<adapt::Signal> trace = make_trace();
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  adapt::Tuner a(cfg), b(cfg);
  for (const adapt::Signal& s : trace) {
    const adapt::Decision da = a.step(s);
    const adapt::Decision db = b.step(s);
    ASSERT_TRUE(da == db);
    ASSERT_EQ(da.changed, db.changed);
  }
  EXPECT_EQ(a.switches(), b.switches());
}

TEST(Tuner, SlackIsCappedByTheSafetyBound) {
  // Huge per-run overhead relative to byte cost: unbounded coalescing
  // would want ~99 bytes of slack, but the ownership-granularity cap
  // holds it at max_merge_slack.
  adapt::TunerConfig cfg = fast_cfg();
  adapt::Tuner t(cfg);
  const adapt::Signal s = run_heavy_pack();
  for (int i = 0; i < 10; ++i) t.step(s);
  EXPECT_EQ(t.decision().merge_slack, cfg.max_merge_slack);

  adapt::TunerConfig tight = fast_cfg();
  tight.max_merge_slack = 8;
  adapt::Tuner t2(tight);
  for (int i = 0; i < 10; ++i) t2.step(s);
  EXPECT_EQ(t2.decision().merge_slack, 8u);
}

TEST(Tuner, ChangedBitsClearOnStationaryEpisodes) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  adapt::Tuner t(cfg);
  // A stationary mix of every episode kind: identity applies, run-heavy
  // packs with the codec measured, and a fast link that makes raw win.
  adapt::Signal pack = run_heavy_pack();
  pack.bytes_raw = 1000;
  adapt::Signal wire;
  wire.wire_ns = 100;
  wire.wire_bytes = 100000;
  const adapt::Signal stream[] = {apply_signal(true), pack, wire,
                                  adapt::Signal{}};
  std::uint32_t seen = 0;
  for (int i = 0; i < 40; ++i) {
    adapt::Signal s = stream[i % 4];
    s.codec_on = s.bytes_raw != 0 && t.decision().compress;
    if (s.codec_on) {
      s.encode_ns = 4000;
      s.bytes_coded = 900;
    }
    const adapt::Decision& d = t.step(s);
    seen |= d.changed;
    // Once converged, further identical episodes change nothing.
    if (i >= 20) {
      EXPECT_EQ(d.changed, 0u) << "episode " << i;
    }
  }
  EXPECT_TRUE(seen & adapt::Decision::kFastpath);
  EXPECT_TRUE(seen & adapt::Decision::kSlack);
  EXPECT_TRUE(seen & adapt::Decision::kCodec);  // explored, then released
  EXPECT_TRUE(t.decision().identity_fastpath);
  EXPECT_EQ(t.decision().merge_slack, 64u);
  EXPECT_FALSE(t.decision().compress);
}

// ---------------------------------------------------------------------------
// Golden decision trace.  A seeded stream interleaving collect, pack, apply
// and wire episodes through six cost regimes, with the codec enabled and
// the pack side closed-loop (a pack runs the encoder exactly when the
// current decision engages the codec, as SyncEngine does).  The expected
// table was recorded from the six-knob tuner with whole-page promotion,
// conversion lanes and the parallel grain pinned at their static values
// (threshold 1.0, 4 lanes, 64 KiB): deleting those knobs must not move a
// single surviving decision or shift the episode numbering.

namespace {

struct GoldenStep {
  std::uint64_t episode;
  bool identity_fastpath;
  std::size_t merge_slack;
  bool compress;
  bool operator==(const GoldenStep&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenStep& g) {
  return os << "{" << g.episode << ", " << g.identity_fastpath << ", "
            << g.merge_slack << ", " << g.compress << "}";
}

/// One cost regime of the golden stream (80 episodes each).
struct Regime {
  std::uint32_t identity_pct;        ///< share of identical-rep applies
  std::uint64_t per_run_ns;          ///< pack cost per run
  std::uint64_t pack_ps_per_byte;    ///< pack cost per payload byte
  std::uint64_t encode_ps_per_byte;  ///< encode cost per raw byte
  std::uint32_t ratio_pct;           ///< coded / raw bytes, +0..9 %
  std::uint64_t link_ps_per_byte;    ///< wire cost per frame byte
};

std::vector<GoldenStep> golden_run() {
  static constexpr Regime kRegimes[] = {
      {90, 40, 300, 1500, 30, 20000},   {10, 4000, 200, 1500, 30, 20000},
      {10, 400, 2000, 1500, 90, 300},   {70, 1200, 500, 800, 25, 8000},
      {5, 20, 100, 3000, 80, 100},      {50, 900, 700, 600, 40, 50000},
  };
  adapt::TunerConfig cfg;  // default warmup / dwell / margin
  cfg.enable_codec = true;
  adapt::Tuner t(cfg);

  std::vector<GoldenStep> out;
  const auto record = [&] {
    const adapt::Decision& d = t.decision();
    const GoldenStep g{t.episodes(), d.identity_fastpath, d.merge_slack,
                       d.compress};
    if (out.empty() || out.back().identity_fastpath != g.identity_fastpath ||
        out.back().merge_slack != g.merge_slack ||
        out.back().compress != g.compress) {
      out.push_back(g);
    }
  };
  record();

  std::uint64_t x = 0x2545f4914f6cdd1dull;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int i = 0; i < 480; ++i) {
    const Regime& r = kRegimes[i / 80];
    adapt::Signal s;
    switch (next() % 4) {
      case 0:  // collect
        s.runs = 1 + next() % 64;
        break;
      case 1: {  // pack
        s.runs = 8 + next() % 120;
        const std::uint64_t bytes = s.runs * (16 + next() % 256);
        s.bytes_raw = bytes;
        s.bytes_packed = bytes + s.runs * 24;
        s.codec_on = t.decision().compress && !t.decision().identity_fastpath;
        if (s.codec_on) {
          s.encode_ns = 1 + bytes * r.encode_ps_per_byte / 1000;
          s.bytes_coded = bytes * (r.ratio_pct + next() % 10) / 100;
        } else {
          s.bytes_coded = bytes;
        }
        s.pack_ns = s.runs * (r.per_run_ns + next() % (1 + r.per_run_ns / 4)) +
                    s.bytes_packed * r.pack_ps_per_byte / 1000 + s.encode_ns;
        break;
      }
      case 2:  // apply
        s.blocks = 1 + next() % 32;
        s.identity_sender = next() % 100 < r.identity_pct;
        break;
      default:  // wire
        s.wire_bytes = 4096 + next() % 200000;
        s.wire_ns =
            1 + s.wire_bytes * (r.link_ps_per_byte + next() % 100) / 1000;
        break;
    }
    t.step(s);
    record();
  }
  return out;
}

}  // namespace

TEST(Tuner, GoldenDecisionTrace) {
  // (episode, identity_fastpath, merge_slack, compress) at every change.
  const std::vector<GoldenStep> expected = {
      {0, false, 0, false},
      {4, false, 64, true},
      {5, true, 64, true},
      {15, true, 32, true},
      {45, true, 64, true},
      {49, true, 32, true},
      {65, true, 64, true},
      {69, true, 32, true},
      {84, true, 64, true},
      {120, false, 64, true},
      {166, true, 64, true},
      {196, false, 64, true},
      {209, false, 64, false},
      {261, true, 64, false},
      {346, true, 32, false},
      {349, false, 32, false},
      {393, false, 8, false},
      {398, false, 32, false},
      {406, false, 64, false},
      {423, true, 64, false},
      {445, false, 64, false},
      {468, true, 64, false}
  };
  EXPECT_EQ(golden_run(), expected);
}

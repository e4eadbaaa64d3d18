// Microbenchmark: the mprotect/SIGSEGV write-trap — cost of the first
// (faulting, twinning) write to a page vs subsequent writes, interval
// re-arm cost (all pages dirty vs one dirty page, which must stay flat in
// region size), and fault-free update application through the alias view.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "memory/write_trap.hpp"

namespace mem = hdsm::mem;

namespace {

void BM_FirstWriteFaultAndTwin(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = 64;
  mem::TrackedRegion region(pages * ps);
  region.begin_tracking();
  std::size_t page = 0;
  for (auto _ : state) {
    region.data()[page * ps] = std::byte{1};  // fault + twin + unprotect
    page = (page + 1) % pages;
    if (page == 0) {
      state.PauseTiming();
      region.rearm();
      state.ResumeTiming();
    }
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_SubsequentWritesNoFault(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  mem::TrackedRegion region(ps);
  region.begin_tracking();
  region.data()[0] = std::byte{1};  // fault once
  std::size_t i = 1;
  for (auto _ : state) {
    region.data()[i % ps] = std::byte{2};
    ++i;
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_RearmWholeRegion(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  mem::TrackedRegion region(pages * ps);
  region.begin_tracking();
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t p = 0; p < pages; ++p) {
      region.data()[p * ps] = std::byte{1};
    }
    benchmark::ClobberMemory();
    state.ResumeTiming();
    region.rearm();  // every page dirty: the span is the whole region
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_RearmOneDirtyPage(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  mem::TrackedRegion region(pages * ps);
  region.begin_tracking();
  std::size_t page = 0;
  for (auto _ : state) {
    region.data()[page * ps] = std::byte{1};  // fault + twin
    benchmark::ClobberMemory();
    region.rearm();  // re-protects that page only
    page = (page + 7) % pages;
  }
  region.end_tracking();
  state.SetItemsProcessed(state.iterations());
}

void BM_ApplyUpdateThroughAlias(benchmark::State& state) {
  const std::size_t ps = mem::Region::host_page_size();
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  mem::TrackedRegion region(64 * ps);
  region.begin_tracking();
  std::vector<std::byte> update(bytes, std::byte{0x5A});
  for (auto _ : state) {
    // Lands without faulting even though every page is protected.
    region.apply_update(0, update.data(), update.size());
  }
  region.end_tracking();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_FirstWriteFaultAndTwin);
BENCHMARK(BM_SubsequentWritesNoFault);
BENCHMARK(BM_RearmWholeRegion)->Arg(16)->Arg(256);
BENCHMARK(BM_RearmOneDirtyPage)->Arg(16)->Arg(4096);
BENCHMARK(BM_ApplyUpdateThroughAlias)->Arg(4096)->Arg(1 << 18);

BENCHMARK_MAIN();

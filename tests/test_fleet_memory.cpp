// Memory-flatness guard for fleet mode, analogous to test_zero_alloc: the
// global operator new/delete overrides track the live (net outstanding)
// heap allocations and bytes, and the high-water mark of the live bytes.
//
//   * Across waves: once the warm-up waves have populated the caches
//     (floorplan template, scenario catalog, sketch levels), the live
//     allocation count must stay flat to the end -- if the fleet retained
//     even one allocation per device, the tail waves would add hundreds.
//   * Across fleet sizes: run_fleet samples each wave's devices as it goes,
//     so its peak live heap must not depend on device_count. A fleet four
//     times larger may peak higher only by the logarithmic growth of the
//     aggregate's sketches, far less than one device profile per extra
//     device.
//
// This is what "a 100k-device fleet is memory-flat" means operationally.
//
// This file must not be linked with other tests (each test binary is its
// own executable here, so the global override is safe).
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/config.hpp"

namespace {

std::atomic<long long> g_live_allocs{0};
std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_peak_bytes{0};
std::atomic<bool> g_counting{false};

void start_counting() {
  g_live_allocs.store(0);
  g_live_bytes.store(0);
  g_peak_bytes.store(0);
  g_counting.store(true);
}

// The allocation and release paths stay out of line: inlined into a caller,
// GCC pairs the caller's operator new with the std::free below and warns
// (-Wmismatched-new-delete), although both sides are this file's pair.
[[gnu::noinline]] void* acquire(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto bytes = static_cast<long long>(malloc_usable_size(p));
    const long long live =
        g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    long long peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_bytes.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

[[gnu::noinline]] void release(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = acquire(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return acquire(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return acquire(size);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace dtpm::serve {
namespace {

/// A single-platform fleet of short runs. workers = 1 keeps thread
/// bookkeeping out of the measurements.
FleetSpec small_fleet(std::uint64_t devices) {
  FleetSpec spec;
  spec.device_count = devices;
  spec.wave_size = 50;
  spec.seed = 11;
  spec.base.policy_name = "reactive";
  spec.base.engine = sim::Engine::kPropagator;
  spec.base.warmup_s = 0.25;
  spec.base.max_sim_time_s = 1.5;
  spec.platforms = {{"odroid-xu-e", 1.0}};
  spec.families = {{"bursty", 1.0}};
  spec.background_duty = {0.05, 0.20};
  spec.scenario_nominal_duration_s = 1.5;
  return spec;
}

TEST(FleetMemory, LiveAllocationsStayFlatAcrossWaves) {
  FleetSpec spec = small_fleet(600);  // 12 waves
  // One ambient bin: the per-(platform, ambient) descriptor cache is full
  // after wave 1, so any later growth is a genuine leak, not a cache fill.
  spec.ambient_c = {28.0, 28.0};

  std::vector<long long> live_after_wave;
  live_after_wave.reserve(16);  // grown before counting starts

  FleetRunOptions options;
  options.workers = 1;
  options.on_wave = [&live_after_wave](const FleetProgress&) {
    live_after_wave.push_back(g_live_allocs.load(std::memory_order_relaxed));
  };

  start_counting();
  const FleetRunResult result = run_fleet(spec, options);
  g_counting.store(false);

  EXPECT_EQ(600u, result.devices_run);
  EXPECT_EQ(0u, result.aggregate.failed());
  ASSERT_EQ(12u, live_after_wave.size());

  // Waves 1-4 warm the caches (floorplan template, calibration, sketch
  // levels). From there to the end -- 400 more devices -- the live count may
  // only drift by the logarithmic tail of sketch-level growth. The bound is
  // far below one allocation per device, so any per-device retention fails.
  const long long baseline = live_after_wave[3];
  const long long final_live = live_after_wave.back();
  EXPECT_LE(final_live, baseline + 256)
      << "live allocations grew from " << baseline << " after wave 4 to "
      << final_live << " after wave 12 -- fleet mode is retaining "
         "per-device state";
}

/// Peak live heap bytes of one run_fleet call, relative to its start.
long long peak_live_bytes(const FleetSpec& spec) {
  FleetRunOptions options;
  options.workers = 1;
  start_counting();
  const FleetRunResult result = run_fleet(spec, options);
  g_counting.store(false);
  EXPECT_EQ(spec.device_count, result.devices_run);
  EXPECT_EQ(0u, result.aggregate.failed());
  return g_peak_bytes.load();
}

TEST(FleetMemory, PeakLiveBytesDoNotGrowWithDeviceCount) {
  // 25 ambient bins, every one sampled by the smaller fleet already, so the
  // descriptor cache ends the same size in both runs.
  FleetSpec small = small_fleet(600);
  small.ambient_c = {25.0, 31.0};
  FleetSpec large = small;
  large.device_count = 2400;

  const long long small_peak = peak_live_bytes(small);
  const long long large_peak = peak_live_bytes(large);

  // Materializing every profile up front would cost at least one
  // DeviceProfile per extra device; allow an eighth of that.
  const long long extra_devices =
      static_cast<long long>(large.device_count - small.device_count);
  const long long bound =
      extra_devices * static_cast<long long>(sizeof(DeviceProfile)) / 8;
  EXPECT_LT(large_peak - small_peak, bound)
      << "peak live heap " << small_peak << " B at " << small.device_count
      << " devices, " << large_peak << " B at " << large.device_count
      << " -- run_fleet holds O(device_count) state";
}

}  // namespace
}  // namespace dtpm::serve

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "device/cpu_cost.h"
#include "device/device_model.h"
#include "device/sim_clock.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.Advance(1000);
  EXPECT_EQ(clock.NowNanos(), 1000u);
  clock.AdvanceSeconds(1.5);
  EXPECT_NEAR(clock.NowSeconds(), 1.5 + 1e-6, 1e-5);
  clock.Reset();
  EXPECT_EQ(clock.NowNanos(), 0u);
}

TEST(SimClockTest, TimerMeasuresInterval) {
  SimClock clock;
  clock.Advance(500);
  SimTimer timer(&clock);
  clock.Advance(2500);
  EXPECT_EQ(timer.ElapsedNanos(), 2500u);
  timer.Restart();
  EXPECT_EQ(timer.ElapsedNanos(), 0u);
}

TEST(DiskModelTest, SequentialCheaperThanRandom) {
  SimClock clock;
  MagneticDiskModel disk(&clock, DiskModelParams{});
  // Sequential run of 100 blocks after one initial seek.
  disk.ChargeRead(0, 1);
  uint64_t after_first = clock.NowNanos();
  for (int i = 1; i < 100; ++i) disk.ChargeRead(i, 1);
  uint64_t sequential = clock.NowNanos() - after_first;

  clock.Reset();
  MagneticDiskModel disk2(&clock, DiskModelParams{});
  StatsRegistry stats;
  disk2.BindStats(&stats, "disk");
  disk2.ChargeRead(1'000'000, 1);
  uint64_t base = clock.NowNanos();
  for (int i = 1; i < 100; ++i) {
    disk2.ChargeRead(1'000'000 + static_cast<uint64_t>(i) * 50'000, 1);
  }
  uint64_t random = clock.NowNanos() - base;
  EXPECT_GT(random, sequential * 5);
  EXPECT_EQ(stats.counter("device.disk.seeks")->value(), 100u);
}

TEST(DiskModelTest, NearSeekCheaperThanFarSeek) {
  DiskModelParams params;
  SimClock clock;
  MagneticDiskModel disk(&clock, params);
  disk.ChargeRead(1000, 1);
  uint64_t t0 = clock.NowNanos();
  disk.ChargeRead(1010, 1);  // within near_seek_blocks (64): track-to-track
  uint64_t near = clock.NowNanos() - t0;
  t0 = clock.NowNanos();
  disk.ChargeRead(500'000, 1);  // far: average seek
  uint64_t far = clock.NowNanos() - t0;
  EXPECT_GT(far, near);
}

TEST(DiskModelTest, StatsCountBlocks) {
  SimClock clock;
  MagneticDiskModel disk(&clock, DiskModelParams{});
  StatsRegistry stats;
  stats.SetClock(&clock);  // command counts are the histograms' counts
  disk.BindStats(&stats, "disk");
  disk.ChargeRead(0, 4);
  disk.ChargeWrite(4, 2);
  EXPECT_EQ(stats.histogram("device.disk.read_ns")->count(), 1u);
  EXPECT_EQ(stats.histogram("device.disk.write_ns")->count(), 1u);
  EXPECT_EQ(stats.counter("device.disk.blocks_read")->value(), 4u);
  EXPECT_EQ(stats.counter("device.disk.blocks_written")->value(), 2u);
  EXPECT_GT(stats.counter("device.disk.busy_ns")->value(), 0u);
  stats.Reset();
  EXPECT_EQ(stats.histogram("device.disk.read_ns")->count(), 0u);
}

// Records each completed span's name and detail.
class DetailSink : public TraceSink {
 public:
  void OnSpan(const TraceEvent& event) override {
    spans.emplace_back(std::string(event.name), event.detail);
  }
  std::vector<std::pair<std::string, uint64_t>> spans;
};

TEST(DeviceSpanTest, SpansCarryTheirCommandsSeekCount) {
  // A far read seeks and the sequential read after it does not, on both
  // positional models; each span's detail says so, and the registry's
  // seeks, blocks and command counts agree with the calls made.
  SimClock clock;
  MagneticDiskModel disk(&clock, DiskModelParams{});
  WormJukeboxModel worm(&clock, WormModelParams{});
  StatsRegistry stats;
  stats.SetClock(&clock);
  DetailSink sink;
  stats.SetTraceSink(&sink);
  disk.BindStats(&stats, "disk");
  worm.BindStats(&stats, "worm");
  for (DeviceModel* device : {static_cast<DeviceModel*>(&disk),
                              static_cast<DeviceModel*>(&worm)}) {
    device->ChargeRead(5000, 2);  // far
    device->ChargeRead(5002, 3);  // sequential
  }
  std::vector<std::pair<std::string, uint64_t>> want = {
      {"device.disk.read", 1},
      {"device.disk.read", 0},
      {"device.worm.read", 1},
      {"device.worm.read", 0}};
  EXPECT_EQ(sink.spans, want);
  for (std::string label : {"disk", "worm"}) {
    std::string prefix = "device." + label;
    EXPECT_EQ(stats.counter(prefix + ".seeks")->value(), 1u) << label;
    EXPECT_EQ(stats.counter(prefix + ".blocks_read")->value(), 5u) << label;
    EXPECT_EQ(stats.histogram(prefix + ".read_ns")->count(), 2u) << label;
    EXPECT_EQ(stats.histogram(prefix + ".write_ns")->count(), 0u) << label;
  }
  // Every charged nanosecond is some device's busy time.
  EXPECT_EQ(stats.counter("device.disk.busy_ns")->value() +
                stats.counter("device.worm.busy_ns")->value(),
            clock.NowNanos());
}

TEST(WormModelTest, PlatterSwitchIsExpensive) {
  WormModelParams params;
  SimClock clock;
  WormJukeboxModel worm(&clock, params);
  worm.ChargeRead(0, 1);
  uint64_t t0 = clock.NowNanos();
  worm.ChargeRead(1, 1);  // sequential, same platter
  uint64_t sequential = clock.NowNanos() - t0;
  t0 = clock.NowNanos();
  worm.ChargeRead(params.platter_blocks * 3, 1);  // different platter
  uint64_t exchanged = clock.NowNanos() - t0;
  EXPECT_GT(exchanged,
            sequential + static_cast<uint64_t>(
                             params.platter_switch_ms * 1e6 * 0.9));
}

TEST(WormModelTest, RandomSeekDominatesTransfer) {
  SimClock clock;
  WormModelParams params;
  WormJukeboxModel worm(&clock, params);
  worm.ChargeRead(10, 1);
  uint64_t t0 = clock.NowNanos();
  worm.ChargeRead(50'000, 1);  // same platter, far: full head reposition
  uint64_t random = clock.NowNanos() - t0;
  EXPECT_GT(random, static_cast<uint64_t>(params.seek_ms * 1e6 * 0.9));
}

TEST(WormModelTest, SmallForwardGapUsesNearSeek) {
  SimClock clock;
  WormModelParams params;
  WormJukeboxModel worm(&clock, params);
  worm.ChargeRead(10, 1);
  uint64_t t0 = clock.NowNanos();
  worm.ChargeRead(10 + 100, 1);  // read-ahead absorbs the small gap
  uint64_t near = clock.NowNanos() - t0;
  EXPECT_LT(near, static_cast<uint64_t>(params.seek_ms * 1e6 / 2));
  t0 = clock.NowNanos();
  worm.ChargeRead(50, 1);  // backwards: full seek
  uint64_t backward = clock.NowNanos() - t0;
  EXPECT_GT(backward, near);
}

TEST(MemoryModelTest, UniformCost) {
  SimClock clock;
  MemoryDeviceModel mem(&clock, MemoryModelParams{});
  mem.ChargeRead(0, 1);
  uint64_t first = clock.NowNanos();
  mem.ChargeRead(999'999, 1);  // position is irrelevant
  EXPECT_EQ(clock.NowNanos() - first, first);
}

TEST(CpuCostTest, ChargesAtMipsRate) {
  SimClock clock;
  CpuCostModel cpu(&clock, /*mips=*/10.0);
  cpu.ChargeInstructions(10'000'000);  // 10 M instructions at 10 MIPS = 1 s
  EXPECT_NEAR(clock.NowSeconds(), 1.0, 1e-6);
  EXPECT_EQ(cpu.total_instructions(), 10'000'000u);
}

TEST(CpuCostTest, PerByteCharging) {
  SimClock clock;
  CpuCostModel cpu(&clock, /*mips=*/10.0);
  // §9.2: 8 instructions per byte over 10 MB at 10 MIPS = 8 s.
  cpu.ChargePerByte(8.0, 10 * 1024 * 1024);
  EXPECT_NEAR(clock.NowSeconds(), 8.0 * 1024 * 1024 * 10 / 1e7, 1e-3);
}

}  // namespace
}  // namespace pglo

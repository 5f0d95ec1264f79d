// Tests for SensorTrace serialization (CSV and SIDB binary).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>

#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace.h"
#include "sensing/trace_io.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::sense {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sid_trace_io_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static SensorTrace make_trace(bool with_wake) {
    const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kCalm);
    ocean::WaveFieldConfig cfg;
    cfg.seed = 17;
    const ocean::WaveField field(*spectrum, cfg);
    TraceConfig trace_cfg;
    trace_cfg.duration_s = 20.0;
    trace_cfg.start_time_s = 5.0;
    trace_cfg.buoy.anchor = {25.0, 0.0};
    std::vector<wake::WakeTrain> trains;
    if (with_wake) {
      wake::ShipTrackConfig ship;
      ship.start = {0.0, -50.0};
      ship.heading_rad = std::numbers::pi / 2;
      ship.speed_mps = util::knots_to_mps(10.0);
      if (auto train =
              wake::make_wake_train(wake::ShipTrack(ship), {25.0, 0.0})) {
        trains.push_back(*train);
      }
    }
    return generate_trace(field, trains, trace_cfg);
  }

  // A bare 40-byte SIDB header: magic, version 1, rate, start time and
  // the two counts, with no payload behind it.
  void write_header(const std::string& name, double rate_hz,
                    std::uint64_t samples, std::uint64_t intervals) const {
    std::ofstream out(path(name), std::ios::binary);
    const std::uint32_t version = 1;
    const double start_s = 0.0;
    out.write("SIDB", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    out.write(reinterpret_cast<const char*>(&rate_hz), sizeof rate_hz);
    out.write(reinterpret_cast<const char*>(&start_s), sizeof start_s);
    out.write(reinterpret_cast<const char*>(&samples), sizeof samples);
    out.write(reinterpret_cast<const char*>(&intervals), sizeof intervals);
  }

  // A header with no samples and one wake interval [start, end].
  void write_interval(const std::string& name, double start,
                      double end) const {
    write_header(name, 50.0, 0, 1);
    std::ofstream out(path(name), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(&start), sizeof start);
    out.write(reinterpret_cast<const char*>(&end), sizeof end);
  }

  fs::path dir_;
};

TEST_F(TraceIoTest, BinaryRoundTripIsExact) {
  const auto original = make_trace(true);
  write_trace_binary(original, path("trace.sidb"));
  const auto loaded = read_trace_binary(path("trace.sidb"));

  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.sample_rate_hz, original.sample_rate_hz);
  EXPECT_EQ(loaded.start_time_s, original.start_time_s);
  ASSERT_EQ(loaded.wake_intervals.size(), original.wake_intervals.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // ADC counts are small integers: float32 is lossless.
    EXPECT_EQ(loaded.x[i], original.x[i]);
    EXPECT_EQ(loaded.y[i], original.y[i]);
    EXPECT_EQ(loaded.z[i], original.z[i]);
  }
  for (std::size_t i = 0; i < original.wake_intervals.size(); ++i) {
    EXPECT_EQ(loaded.wake_intervals[i], original.wake_intervals[i]);
  }
}

TEST_F(TraceIoTest, CsvRoundTripPreservesSignal) {
  const auto original = make_trace(true);
  write_trace_csv(original, path("trace.csv"));
  const auto loaded = read_trace_csv(path("trace.csv"));

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_NEAR(loaded.sample_rate_hz, original.sample_rate_hz, 1e-6);
  EXPECT_NEAR(loaded.start_time_s, original.start_time_s, 1e-9);
  for (std::size_t i = 0; i < original.size(); i += 37) {
    EXPECT_NEAR(loaded.z[i], original.z[i], 1e-6);
  }
  // Wake flags reconstruct intervals covering the same samples.
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.wake_active_at(i), original.wake_active_at(i))
        << "sample " << i;
  }
}

TEST_F(TraceIoTest, CsvWithoutWakeColumn) {
  const auto original = make_trace(false);
  write_trace_csv(original, path("plain.csv"));
  const auto loaded = read_trace_csv(path("plain.csv"));
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_TRUE(loaded.wake_intervals.empty());
}

TEST_F(TraceIoTest, LoadedTraceDrivesDetector) {
  // The serialization path must feed cleanly into the detector API.
  const auto original = make_trace(true);
  write_trace_binary(original, path("d.sidb"));
  const auto loaded = read_trace_binary(path("d.sidb"));
  EXPECT_EQ(loaded.z_centered().size(), loaded.size());
  EXPECT_EQ(loaded.duration_s(), original.duration_s());
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW(read_trace_csv(path("nope.csv")), util::Error);
  EXPECT_THROW(read_trace_binary(path("nope.sidb")), util::Error);
}

TEST_F(TraceIoTest, RejectsCorruptMagic) {
  std::ofstream out(path("bad.sidb"), std::ios::binary);
  out << "JUNKJUNKJUNK";
  out.close();
  EXPECT_THROW(read_trace_binary(path("bad.sidb")), util::Error);
}

TEST_F(TraceIoTest, RejectsBadHeaderCsv) {
  std::ofstream out(path("bad.csv"));
  out << "a,b,c\n1,2,3\n";
  out.close();
  EXPECT_THROW(read_trace_csv(path("bad.csv")), util::Error);
}

TEST_F(TraceIoTest, RejectsNonUniformSampling) {
  std::ofstream out(path("jitter.csv"));
  out << "t,x,y,z\n0,0,0,1024\n0.02,0,0,1024\n0.06,0,0,1024\n";
  out.close();
  EXPECT_THROW(read_trace_csv(path("jitter.csv")), util::Error);
}

TEST_F(TraceIoTest, RejectsTruncatedBinary) {
  const auto original = make_trace(false);
  write_trace_binary(original, path("t.sidb"));
  // Truncate the file to half.
  const auto full = fs::file_size(path("t.sidb"));
  fs::resize_file(path("t.sidb"), full / 2);
  EXPECT_THROW(read_trace_binary(path("t.sidb")), util::Error);
}

// The header counts must be bounded by the bytes in the file before they
// size anything: a 40-byte file claiming 2^40 samples would otherwise
// ask for 3 x 8 TiB (bad_alloc), and one claiming 2^62 wake intervals
// would loop past EOF until killed.
TEST_F(TraceIoTest, RejectsSampleCountBeyondFileSize) {
  write_header("samples.sidb", 50.0, std::uint64_t{1} << 40, 0);
  ASSERT_EQ(fs::file_size(path("samples.sidb")), 40u);
  EXPECT_THROW(read_trace_binary(path("samples.sidb")), util::InvalidArgument);
}

TEST_F(TraceIoTest, RejectsIntervalCountBeyondFileSize) {
  write_header("intervals.sidb", 50.0, 0, std::uint64_t{1} << 62);
  ASSERT_EQ(fs::file_size(path("intervals.sidb")), 40u);
  EXPECT_THROW(read_trace_binary(path("intervals.sidb")),
               util::InvalidArgument);
}

TEST_F(TraceIoTest, RejectsCountsWhoseProductWouldOverflow) {
  // 12 * 2^62 wraps a uint64; the sample bound must fire first.
  write_header("wrap.sidb", 50.0, std::uint64_t{1} << 62, 1);
  EXPECT_THROW(read_trace_binary(path("wrap.sidb")), util::InvalidArgument);
}

TEST_F(TraceIoTest, RejectsNonFiniteSampleRate) {
  write_header("nan.sidb", std::numeric_limits<double>::quiet_NaN(), 0, 0);
  EXPECT_THROW(read_trace_binary(path("nan.sidb")), util::InvalidArgument);
  write_header("inf.sidb", std::numeric_limits<double>::infinity(), 0, 0);
  EXPECT_THROW(read_trace_binary(path("inf.sidb")), util::InvalidArgument);
}

TEST_F(TraceIoTest, RejectsValidFileMissingItsLastByte) {
  const auto original = make_trace(true);
  ASSERT_FALSE(original.wake_intervals.empty());
  write_trace_binary(original, path("short.sidb"));
  EXPECT_NO_THROW(read_trace_binary(path("short.sidb")));
  const auto full = fs::file_size(path("short.sidb"));
  fs::resize_file(path("short.sidb"), full - 1);
  EXPECT_THROW(read_trace_binary(path("short.sidb")), util::InvalidArgument);
}

// Wake intervals are ground truth for the detector's scoring; a NaN,
// infinite or inverted interval must be refused at the file boundary.
TEST_F(TraceIoTest, RejectsNonFiniteOrInvertedWakeInterval) {
  write_interval("ok.sidb", 1.0, 2.0);
  const auto loaded = read_trace_binary(path("ok.sidb"));
  ASSERT_EQ(loaded.wake_intervals.size(), 1u);
  EXPECT_EQ(loaded.wake_intervals[0], std::make_pair(1.0, 2.0));

  write_interval("nan_start.sidb", std::numeric_limits<double>::quiet_NaN(),
                 2.0);
  EXPECT_THROW(read_trace_binary(path("nan_start.sidb")),
               util::InvalidArgument);
  write_interval("inf_end.sidb", 1.0, std::numeric_limits<double>::infinity());
  EXPECT_THROW(read_trace_binary(path("inf_end.sidb")), util::InvalidArgument);
  write_interval("inverted.sidb", 2.0, 1.0);
  EXPECT_THROW(read_trace_binary(path("inverted.sidb")),
               util::InvalidArgument);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  write_header("empty.sidb", 50.0, 0, 0);
  const auto loaded = read_trace_binary(path("empty.sidb"));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_TRUE(loaded.wake_intervals.empty());
}

}  // namespace
}  // namespace sid::sense

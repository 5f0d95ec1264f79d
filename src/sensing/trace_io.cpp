#include "sensing/trace_io.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace sid::sense {

namespace {
constexpr char kMagic[4] = {'S', 'I', 'D', 'B'};
constexpr std::uint32_t kVersion = 1;
}  // namespace

void write_trace_csv(const SensorTrace& trace, const std::string& path) {
  std::ofstream out(path);
  util::require(out.good(), "write_trace_csv: cannot open " + path);
  const bool with_wake = !trace.wake_intervals.empty();
  out << (with_wake ? "t,x,y,z,wake\n" : "t,x,y,z\n");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out << trace.time_at(i) << ',' << trace.x[i] << ',' << trace.y[i] << ','
        << trace.z[i];
    if (with_wake) out << ',' << (trace.wake_active_at(i) ? 1 : 0);
    out << '\n';
  }
  util::require(out.good(), "write_trace_csv: write failed for " + path);
}

SensorTrace read_trace_csv(const std::string& path) {
  std::ifstream in(path);
  util::require(in.good(), "read_trace_csv: cannot open " + path);

  std::string header;
  util::require(static_cast<bool>(std::getline(in, header)),
                "read_trace_csv: empty file " + path);
  const bool with_wake = header.find("wake") != std::string::npos;
  util::require(header.rfind("t,x,y,z", 0) == 0,
                "read_trace_csv: unexpected header in " + path);

  SensorTrace trace;
  std::vector<double> times;
  std::string line;
  bool in_wake = false;
  double wake_start = 0.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    double t = 0, x = 0, y = 0, z = 0;
    int wake = 0;
    char comma = 0;
    row >> t >> comma >> x >> comma >> y >> comma >> z;
    if (with_wake) row >> comma >> wake;
    util::require(!row.fail(), "read_trace_csv: malformed row in " + path);
    times.push_back(t);
    trace.x.push_back(x);
    trace.y.push_back(y);
    trace.z.push_back(z);
    if (with_wake) {
      if (wake != 0 && !in_wake) {
        in_wake = true;
        wake_start = t;
      } else if (wake == 0 && in_wake) {
        in_wake = false;
        trace.wake_intervals.emplace_back(wake_start, times[times.size() - 2]);
      }
    }
  }
  util::require(times.size() >= 2, "read_trace_csv: need >= 2 samples");
  if (in_wake) {
    trace.wake_intervals.emplace_back(wake_start, times.back());
  }

  trace.start_time_s = times.front();
  const double dt = times[1] - times[0];
  util::require(dt > 0.0, "read_trace_csv: non-increasing timestamps");
  for (std::size_t i = 2; i < times.size(); ++i) {
    const double step = times[i] - times[i - 1];
    util::require(std::abs(step - dt) <= 0.01 * dt,
                  "read_trace_csv: non-uniform sampling in " + path);
  }
  trace.sample_rate_hz = 1.0 / dt;

  // Guard the reconstructed interval bounds against printed-decimal
  // rounding: pad by 1 us (four orders below any real sample period) so
  // boundary samples stay inside their interval.
  for (auto& [start, end] : trace.wake_intervals) {
    start -= 1e-6;
    end += 1e-6;
  }
  return trace;
}

namespace {

template <typename T>
void put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return value;
}

}  // namespace

void write_trace_binary(const SensorTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  util::require(out.good(), "write_trace_binary: cannot open " + path);
  out.write(kMagic, 4);
  put(out, kVersion);
  put(out, trace.sample_rate_hz);
  put(out, trace.start_time_s);
  put(out, static_cast<std::uint64_t>(trace.size()));
  put(out, static_cast<std::uint64_t>(trace.wake_intervals.size()));
  for (const auto* axis : {&trace.x, &trace.y, &trace.z}) {
    for (double v : *axis) put(out, static_cast<float>(v));
  }
  for (const auto& [start, end] : trace.wake_intervals) {
    put(out, start);
    put(out, end);
  }
  util::require(out.good(), "write_trace_binary: write failed for " + path);
}

SensorTrace read_trace_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(in.good(), "read_trace_binary: cannot open " + path);
  char magic[4];
  in.read(magic, 4);
  util::require(in.good() && std::equal(magic, magic + 4, kMagic),
                "read_trace_binary: not a SIDB file: " + path);
  const auto version = get<std::uint32_t>(in);
  util::require(version == kVersion,
                "read_trace_binary: unsupported version in " + path);

  SensorTrace trace;
  trace.sample_rate_hz = get<double>(in);
  trace.start_time_s = get<double>(in);
  const auto samples = get<std::uint64_t>(in);
  const auto intervals = get<std::uint64_t>(in);
  util::require(in.good(), "read_trace_binary: truncated header in " + path);
  util::require(std::isfinite(trace.sample_rate_hz) &&
                    trace.sample_rate_hz > 0.0,
                "read_trace_binary: bad sample rate in " + path);
  util::require(std::isfinite(trace.start_time_s),
                "read_trace_binary: bad start time in " + path);

  // The header counts come from outside the process: bound each by the
  // bytes actually left in the file before it sizes an allocation or a
  // loop. Samples first, so 12 * samples cannot overflow below.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  util::require(header_end >= 0 && file_end >= header_end && in.good(),
                "read_trace_binary: cannot size " + path);
  const auto remaining = static_cast<std::uint64_t>(file_end - header_end);
  constexpr std::uint64_t kSampleBytes = 3 * sizeof(float);
  constexpr std::uint64_t kIntervalBytes = 2 * sizeof(double);
  util::require(samples <= remaining / kSampleBytes,
                "read_trace_binary: sample count exceeds file size in " +
                    path);
  util::require(
      intervals <= (remaining - kSampleBytes * samples) / kIntervalBytes,
      "read_trace_binary: wake-interval count exceeds file size in " + path);

  for (auto* axis : {&trace.x, &trace.y, &trace.z}) {
    axis->resize(samples);
    for (auto& v : *axis) v = static_cast<double>(get<float>(in));
  }
  for (std::uint64_t i = 0; i < intervals; ++i) {
    const double start = get<double>(in);
    const double end = get<double>(in);
    // Checked with a plain branch: the message (and its allocation) is
    // built only on failure.
    if (!(std::isfinite(start) && std::isfinite(end) && start <= end)) {
      throw util::InvalidArgument("read_trace_binary: bad wake interval in " +
                                  path);
    }
    trace.wake_intervals.emplace_back(start, end);
  }
  util::require(in.good(), "read_trace_binary: truncated data in " + path);
  return trace;
}

}  // namespace sid::sense

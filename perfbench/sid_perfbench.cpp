// sid_perfbench: the end-to-end SID benchmark (see perfbench/README.md).
//
//   sid_perfbench --workload harbor|contested_harbor|trace_replay|fleet_plane
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//                 [--spans-out FILE]
//
// Every workload is a fixed ensemble of operations ("ops") drawn from the
// seed. The untraced pass cycles through the ensemble until S seconds of
// wall time have passed (at least one full round) and yields the
// end-to-end metrics. With --trace 1 a second, traced pass runs whole
// rounds and yields the per-layer table: spans recorded here around each
// public library call, split further by the library's own profile.*
// stage histograms and net.*/sid.*/detect.* counters.
//
// Only calls into the libraries' public functions are timed: SidSystem
// ctor/run, simulate_node_reports, read_trace_binary,
// NodeDetector::process_trace, and Network ctor/start_beacons/unicast/
// flood/run_events. All timings are wall clock (steady_clock).
//
// Stdout: a human-readable table of every metric, then one JSON line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/node_detector.h"
#include "core/scenario.h"
#include "core/sid_system.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace.h"
#include "sensing/trace_io.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/rng.h"
#include "util/units.h"
#include "wsn/network.h"

namespace {

using namespace sid;

// ---------------------------------------------------------------------------
// Small utilities

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Ratio with an empty base: -1 marks "undefined on this workload".
double ratio(double num, double den) { return den > 0.0 ? num / den : -1.0; }

/// FNV-1a over the raw bytes of values fed in order.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t registry_counter(const obs::Registry& registry,
                               std::string_view name) {
  const auto* counter = registry.find_counter(name);
  return counter == nullptr ? 0 : counter->value();
}

double stage_s(obs::Stage stage) {
  return obs::stage_histogram(stage).sum() * 1e-9;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around public library calls.

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  std::size_t op = 0;  ///< ensemble member the span belongs to
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  /// RAII span; a disabled log records nothing and reads no clock.
  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  void set_op(std::size_t op) { op_ = op; }

  void write_jsonl(const std::filesystem::path& path) const {
    std::ofstream os(path);
    for (const auto& s : spans_) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"op\":%zu,"
                    "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                    s.id, s.parent, s.name.c_str(), s.op, s.start_s,
                    s.end_s);
      os << line;
    }
  }

 private:
  std::size_t open(std::string_view name) {
    SpanRecord record;
    record.id = static_cast<std::uint32_t>(spans_.size() + 1);
    record.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    record.name = std::string(name);
    record.op = op_;
    record.start_s = now_s();
    spans_.push_back(std::move(record));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_s = now_s();
    stack_.pop_back();
  }

  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::size_t op_ = 0;
};

// ---------------------------------------------------------------------------
// What one op reports.

/// Deterministic work done by one op; must repeat exactly.
using WorkCounters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Ground-truth scoring inputs of one op (summed over a round).
struct Quality {
  std::size_t ship_runs = 0;
  std::size_t ships_detected = 0;
  std::size_t quiet_runs = 0;
  std::size_t quiet_false_intrusions = 0;
  std::vector<double> speed_err_kn;
  std::vector<double> time_to_detect_s;
  std::uint64_t wake_arrivals = 0;
  std::uint64_t wakes_detected = 0;
  std::uint64_t false_alarms = 0;
  double node_hours = 0.0;

  void merge(const Quality& q) {
    ship_runs += q.ship_runs;
    ships_detected += q.ships_detected;
    quiet_runs += q.quiet_runs;
    quiet_false_intrusions += q.quiet_false_intrusions;
    speed_err_kn.insert(speed_err_kn.end(), q.speed_err_kn.begin(),
                        q.speed_err_kn.end());
    time_to_detect_s.insert(time_to_detect_s.end(),
                            q.time_to_detect_s.begin(),
                            q.time_to_detect_s.end());
    wake_arrivals += q.wake_arrivals;
    wakes_detected += q.wakes_detected;
    false_alarms += q.false_alarms;
    node_hours += q.node_hours;
  }
};

/// Per-layer attribution of one traced op. Times in seconds; the
/// top-level rows (setup, synthesis, detector, trace_io, dispatch,
/// start_beacons) partition the op wall time together with the
/// unattributed remainder.
struct Layers {
  double wall_s = 0.0;
  double setup_s = 0.0;         ///< SidSystem / Network ctor
  double adjacency_s = 0.0;     ///< profile.adjacency inside setup
  double synthesis_s = 0.0;     ///< profile.synthesis
  double detector_s = 0.0;      ///< profile.detector or process_trace spans
  double trace_io_s = 0.0;      ///< read_trace_binary spans
  double dispatch_s = 0.0;      ///< profile.event_dispatch (total)
  double cluster_s = 0.0;       ///< profile.correlation inside dispatch
  double fusion_s = 0.0;        ///< profile.fusion inside dispatch
  double start_beacons_s = 0.0; ///< Network::start_beacons spans
  double unicast_s = 0.0;       ///< unicast spans inside dispatch
  double flood_s = 0.0;         ///< flood spans inside dispatch

  double attributed() const {
    return setup_s + synthesis_s + detector_s + trace_io_s + dispatch_s +
           start_beacons_s;
  }
  void merge(const Layers& l) {
    wall_s += l.wall_s;
    setup_s += l.setup_s;
    adjacency_s += l.adjacency_s;
    synthesis_s += l.synthesis_s;
    detector_s += l.detector_s;
    trace_io_s += l.trace_io_s;
    dispatch_s += l.dispatch_s;
    cluster_s += l.cluster_s;
    fusion_s += l.fusion_s;
    start_beacons_s += l.start_beacons_s;
    unicast_s += l.unicast_s;
    flood_s += l.flood_s;
  }
};

/// Layer counts of one op (deterministic; summed over a round).
struct LayerCounts {
  std::map<std::string, double> values;
  template <typename T>
  void add(const std::string& name, T v) {
    values[name] += static_cast<double>(v);
  }
  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

struct OpResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double node_seconds = 0.0;  ///< simulated node-seconds of work
  std::uint64_t digest = 0;
  WorkCounters work;
  Quality quality;
  Layers layers;
  LayerCounts counts;
  /// Empty when the op's own check passed.
  std::string failure;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t ensemble_size() const = 0;
  /// Untraced (spans == nullptr) or traced run of ensemble member `i`.
  virtual OpResult run(std::size_t i, SpanLog* spans) = 0;
  /// Constructor timings whose median is setup_s, taken before the timed
  /// pass; input generation is excluded.
  virtual std::vector<double> setup_samples() = 0;
  /// Throwaway call before timing (see README "Warm-up").
  virtual void warm_up() = 0;
  /// Traced-only checks and measurements on top of run() for member `i`;
  /// may amend `traced`. Returns a failure reason, empty on success.
  virtual std::string traced_extra(std::size_t /*i*/, OpResult& /*traced*/,
                                   SpanLog* /*spans*/) {
    return {};
  }
  /// Threads the front end runs with (1 for non-scenario workloads).
  virtual std::size_t threads() const { return 1; }
};

// ---------------------------------------------------------------------------
// Scenario workloads: harbor, contested_harbor.

constexpr double kScenarioDurationS = 300.0;
constexpr double kShipKnots[] = {8.0, 10.0, 16.0};

struct ScenarioMember {
  core::SidSystemConfig config;
  std::vector<wake::ShipTrackConfig> ships;  ///< empty: quiet sea
  double knots = 0.0;
};

/// A ship crossing the grid along `heading_deg` through the point
/// (cross_x, 0), starting 400 m south of the grid.
wake::ShipTrackConfig crossing_ship(double knots, double heading_deg,
                                    double cross_x) {
  const double phi = util::deg_to_rad(heading_deg);
  wake::ShipTrackConfig ship;
  ship.start = {cross_x - 400.0 / std::tan(phi), -400.0};
  ship.heading_rad = phi;
  ship.speed_mps = util::knots_to_mps(knots);
  return ship;
}

/// Seeded disruption of six non-sink nodes for contested_harbor, one of
/// each: a crash, an accelerometer stuck-at fault, hydrophone contact
/// dropout, a forger impersonating every static head toward the sink
/// (plus replay of what it overhears), a sloppy report forger, and a
/// phantom-vessel acoustic forger. The adversary mix follows
/// bench/adversary_sweep and bench/fusion_ablation.
void schedule_disruption(core::SidSystemConfig& cfg, util::Rng& rng) {
  const std::size_t rows = cfg.network.rows;
  const std::size_t cols = cfg.network.cols;
  const std::size_t cell = cfg.static_cell_size;
  std::vector<wsn::NodeId> heads;
  for (std::size_t r = cell / 2; r < rows; r += cell) {
    for (std::size_t c = cell / 2; c < cols; c += cell) {
      heads.push_back(static_cast<wsn::NodeId>(r * cols + c));
    }
  }
  std::vector<wsn::NodeId> candidates;
  for (wsn::NodeId id = 1; id < rows * cols; ++id) candidates.push_back(id);
  auto draw = [&] {
    const auto idx =
        static_cast<std::size_t>(rng.uniform_int(candidates.size()));
    const wsn::NodeId node = candidates[idx];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(idx));
    return node;
  };
  const double end_s = cfg.scenario.trace.duration_s;
  auto& faults = cfg.network.faults;
  auto& attacks = cfg.network.attacks;

  faults.crashes.push_back({draw(), rng.uniform(0.2, 0.6) * end_s});

  wsn::SensorFaultSpec stuck;
  stuck.node = draw();
  stuck.kind = wsn::SensorFaultKind::kStuckAt;
  stuck.start_s = rng.uniform(0.2, 0.5) * end_s;
  faults.sensor_faults.push_back(stuck);

  wsn::AcousticFaultSpec dropout;
  dropout.node = draw();
  dropout.kind = wsn::AcousticFaultKind::kContactDropout;
  dropout.start_s = 0.3 * end_s;
  dropout.drop_fraction = 0.85;
  faults.acoustic_faults.push_back(dropout);

  const wsn::NodeId impersonator = draw();
  for (const wsn::NodeId head : heads) {
    if (head == impersonator) continue;
    wsn::ForgeryAttack atk;
    atk.attacker = impersonator;
    atk.victim = head;
    atk.target = 0;
    atk.traffic = wsn::ForgedTraffic::kDecisions;
    atk.start_s = 20.0;
    atk.end_s = end_s;
    atk.period_s = 6.0;
    atk.burst = 2;
    attacks.forgeries.push_back(atk);
  }
  wsn::ReplayAttack replay;
  replay.attacker = impersonator;
  replay.capture_start_s = 20.0;
  replay.capture_end_s = 0.6 * end_s;
  attacks.replays.push_back(replay);

  wsn::ForgeryAttack reports;
  reports.attacker = draw();
  reports.victim = candidates[static_cast<std::size_t>(
      rng.uniform_int(candidates.size()))];
  reports.target = 0;
  reports.traffic = wsn::ForgedTraffic::kReports;
  reports.start_s = 20.0;
  reports.end_s = end_s;
  reports.period_s = 5.0;
  reports.spoof_position = false;
  attacks.forgeries.push_back(reports);

  wsn::ForgeryAttack phantom;
  phantom.attacker = draw();
  phantom.victim = phantom.attacker;
  phantom.target = 0;
  phantom.traffic = wsn::ForgedTraffic::kAcousticContacts;
  phantom.start_s = 20.0;
  phantom.end_s = end_s;
  phantom.period_s = 6.0;
  attacks.forgeries.push_back(phantom);
}

/// The scenario ensemble of one seed: one pass at each of {8, 10, 16} kn
/// with a seeded heading and crossing offset, plus one quiet-sea run.
std::vector<ScenarioMember> scenario_ensemble(std::uint64_t seed,
                                              bool contested) {
  util::Rng rng(util::derive_seed(seed, 0x5ce0a810ULL));
  std::vector<ScenarioMember> members;
  for (std::size_t i = 0; i < std::size(kShipKnots) + 1; ++i) {
    ScenarioMember m;
    auto& cfg = m.config;
    cfg.scenario.trace.duration_s = kScenarioDurationS;
    cfg.scenario.seed = util::derive_seed(seed, 1 + i);
    cfg.network.seed = util::derive_seed(seed, 101 + i);
    if (contested) {
      cfg.scenario.sea_state = ocean::SeaState::kModerate;
      cfg.scenario.threads = 4;
      cfg.scenario.acoustic.enabled = true;
      cfg.network.defense.enabled = true;
      schedule_disruption(cfg, rng);
    }
    if (i < std::size(kShipKnots)) {
      m.knots = kShipKnots[i];
      const double width =
          static_cast<double>(cfg.network.cols - 1) * cfg.network.spacing_m;
      m.ships.push_back(crossing_ship(m.knots, rng.uniform(80.0, 100.0),
                                      rng.uniform(0.3, 0.7) * width));
    }
    members.push_back(std::move(m));
  }
  return members;
}

std::uint64_t digest_result(const core::SystemResult& r,
                            std::uint64_t events) {
  Digest d;
  d.add(events);
  for (const auto& report : r.sink_reports) {
    d.add(report.sink_time_s);
    d.add(report.decision.head);
    d.add(report.decision.seq);
    d.add(report.decision.correlation);
    d.add(report.decision.sweep_consistency);
    d.add(report.decision.report_count);
    d.add(report.decision.intrusion);
    d.add(report.decision.estimated_speed_mps);
  }
  for (const auto& f : r.fused) d.add(f.time_s);
  for (auto v : {r.alarms_raised, r.clusters_formed, r.clusters_cancelled,
                 r.clusters_abandoned, r.decisions_sent, r.decision_retries,
                 r.decisions_lost, r.fallback_reports, r.fallback_decisions,
                 r.duplicates_suppressed, r.acoustic_contacts_sent,
                 r.acoustic_contacts_accepted, r.fused_detections,
                 r.tracks.size()}) {
    d.add(v);
  }
  const auto& s = r.network_stats;
  for (auto v : {s.unicasts_attempted, s.unicasts_delivered,
                 s.unicasts_dropped, s.unicasts_unroutable, s.hops_traversed,
                 s.floods, s.flood_deliveries, s.bytes_sent, s.beacons_sent,
                 s.beacon_receptions, s.suspicions, s.false_suspicions,
                 s.defense_drops, s.defense_quarantines}) {
    d.add(v);
  }
  d.add(r.total_energy_mj);
  return d.value();
}

void add_network_counts(LayerCounts& c, const wsn::NetworkStats& s,
                        std::uint64_t events) {
  c.add("wsn.events", events);
  c.add("wsn.unicasts", s.unicasts_attempted);
  c.add("wsn.delivered", s.unicasts_delivered);
  c.add("wsn.hops", s.hops_traversed);
  c.add("wsn.floods", s.floods);
  c.add("wsn.flood_deliveries", s.flood_deliveries);
  c.add("wsn.beacons", s.beacons_sent);
  c.add("wsn.beacon_receptions", s.beacon_receptions);
  c.add("wsn.route_repairs", s.route_repairs);
  c.add("wsn.suspicions", s.suspicions);
  c.add("wsn.false_suspicions", s.false_suspicions);
  c.add("wsn.bytes_sent", s.bytes_sent);
}

class ScenarioWorkload : public Workload {
 public:
  ScenarioWorkload(std::uint64_t seed, bool contested)
      : contested_(contested), members_(scenario_ensemble(seed, contested)) {}

  std::size_t ensemble_size() const override { return members_.size(); }
  std::size_t threads() const override {
    return members_.front().config.scenario.threads;
  }

  OpResult run(std::size_t i, SpanLog* spans) override {
    return run_member(members_[i].config, members_[i], spans);
  }

  std::vector<double> setup_samples() override {
    std::vector<double> samples;
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& m : members_) {
        const double t0 = now_s();
        core::SidSystem system(m.config);
        samples.push_back(now_s() - t0);
      }
    }
    return samples;
  }

  void warm_up() override {
    auto cfg = members_.front().config;
    cfg.scenario.trace.duration_s = 20.0;
    core::SidSystem system(cfg);
    system.run(members_.front().ships);
  }

  /// contested_harbor: the front end alone at the workload's thread count
  /// (parallel efficiency), then the whole run again at threads 1, whose
  /// digest must equal the threads-4 digest. The layer table is taken at
  /// threads 1, so the threads-1 run's layers replace the traced ones.
  std::string traced_extra(std::size_t i, OpResult& traced,
                           SpanLog* spans) override {
    if (!contested_) return {};
    const auto& m = members_[i];
    {
      core::SidSystem system(m.config);
      obs::reset_profile();
      const double t0 = now_s();
      {
        SpanLog::Scope span(spans, "simulate_node_reports");
        core::simulate_node_reports(system.network(), m.ships,
                                    m.config.scenario);
      }
      const double wall = now_s() - t0;
      traced.counts.add("parallel.front_end_wall_s", wall);
      traced.counts.add("parallel.front_end_busy_s",
                        stage_s(obs::Stage::kSynthesis) +
                            stage_s(obs::Stage::kDetector));
    }
    auto serial = m.config;
    serial.scenario.threads = 1;
    const OpResult one = run_member(serial, m, spans);
    if (one.digest != traced.digest) {
      return "threads-1 digest differs from threads-4";
    }
    traced.layers = one.layers;
    return {};
  }

 private:
  OpResult run_member(const core::SidSystemConfig& cfg,
                      const ScenarioMember& m, SpanLog* spans) {
    OpResult out;
    if (spans != nullptr) obs::reset_profile();
    const double t0 = now_s();
    std::optional<core::SidSystem> system;
    {
      SpanLog::Scope span(spans, "SidSystem::SidSystem");
      system.emplace(cfg);
    }
    const double t1 = now_s();
    core::SystemResult result;
    {
      SpanLog::Scope span(spans, "SidSystem::run");
      result = system->run(m.ships);
    }
    const double t2 = now_s();
    out.wall_s = t2 - t0;
    out.setup_s = t1 - t0;

    const auto& net = system->network();
    const auto& registry = system->registry();
    const double nodes = static_cast<double>(net.node_count());
    const auto samples_per_node = static_cast<std::uint64_t>(std::llround(
        cfg.scenario.trace.duration_s * cfg.scenario.trace.sample_rate_hz));
    const std::uint64_t node_samples =
        static_cast<std::uint64_t>(net.node_count()) * samples_per_node;
    const std::uint64_t events = net.events_executed_total();
    out.node_seconds = nodes * cfg.scenario.trace.duration_s;
    out.digest = digest_result(result, events);
    const auto& s = result.network_stats;
    out.work = {{"node_samples", node_samples},
                {"events", events},
                {"unicasts", s.unicasts_attempted},
                {"floods", s.floods},
                {"bytes_sent", s.bytes_sent},
                {"beacons", s.beacons_sent},
                {"alarms", result.alarms_raised}};

    // Ground truth from the public wake model: per-node arrivals.
    Quality& q = out.quality;
    double first_arrival = std::numeric_limits<double>::infinity();
    const double t_end =
        cfg.scenario.trace.start_time_s + cfg.scenario.trace.duration_s;
    for (const auto& ship_cfg : m.ships) {
      const wake::ShipTrack track(ship_cfg);
      for (const auto& node : net.nodes()) {
        const auto train =
            wake::make_wake_train(track, node.anchor, cfg.scenario.wake);
        if (!train || train->params().arrival_time_s > t_end) continue;
        ++q.wake_arrivals;
        first_arrival =
            std::min(first_arrival, train->params().arrival_time_s);
      }
    }
    const std::uint64_t missed =
        registry_counter(registry, "detect.missed_wakes");
    q.wakes_detected = q.wake_arrivals >= missed ? q.wake_arrivals - missed : 0;
    q.false_alarms = registry_counter(registry, "detect.false_alarms");
    q.node_hours = nodes * cfg.scenario.trace.duration_s / 3600.0;
    // The sink's verdict: an intrusion decision or a fused multi-modal
    // detection. A ship counts as caught by the first verdict at or after
    // its wake first reaches the field.
    // On a quiet sea every verdict is false.
    const double earliest = m.ships.empty()
                                ? -std::numeric_limits<double>::infinity()
                                : first_arrival;
    double first_verdict = std::numeric_limits<double>::infinity();
    for (const auto& report : result.sink_reports) {
      if (report.decision.intrusion && report.sink_time_s >= earliest) {
        first_verdict = std::min(first_verdict, report.sink_time_s);
      }
    }
    for (const auto& fused : result.fused) {
      if (fused.time_s >= earliest) {
        first_verdict = std::min(first_verdict, fused.time_s);
      }
    }
    if (m.ships.empty()) {
      ++q.quiet_runs;
      if (std::isfinite(first_verdict)) ++q.quiet_false_intrusions;
    } else {
      ++q.ship_runs;
      if (std::isfinite(first_verdict)) {
        ++q.ships_detected;
        q.time_to_detect_s.push_back(first_verdict - first_arrival);
        if (const auto kn = result.reported_speed_knots()) {
          q.speed_err_kn.push_back(std::abs(*kn - m.knots));
        }
      }
    }

    if (spans != nullptr) {
      Layers& l = out.layers;
      l.wall_s = out.wall_s;
      l.setup_s = out.setup_s;
      l.adjacency_s = stage_s(obs::Stage::kAdjacency);
      l.synthesis_s = stage_s(obs::Stage::kSynthesis);
      l.detector_s = stage_s(obs::Stage::kDetector);
      l.dispatch_s = stage_s(obs::Stage::kEventDispatch);
      l.cluster_s = stage_s(obs::Stage::kCorrelation);
      l.fusion_s = stage_s(obs::Stage::kFusion);
      LayerCounts& c = out.counts;
      c.add("synthesis.node_samples", node_samples);
      c.add("detector.samples", node_samples);
      c.add("detector.alarms", result.alarms_raised);
      c.add("detector.true_alarms",
            registry_counter(registry, "detect.true_alarms"));
      c.add("detector.false_alarms", q.false_alarms);
      add_network_counts(c, s, events);
      c.add("wsn.e2e_retries",
            registry_counter(registry, "net.e2e_retries"));
      c.add("wsn.e2e_gave_up",
            registry_counter(registry, "net.e2e_gave_up"));
      c.add("defense.filtered", s.defense_filtered);
      c.add("defense.drops", s.defense_drops);
      c.add("defense.quarantines", s.defense_quarantines);
      c.add("defense.false_quarantines",
            s.defense_false_quarantines);
      c.add("cluster.formed", result.clusters_formed);
      c.add("cluster.cancelled", result.clusters_cancelled);
      c.add("sink.decisions", result.sink_reports.size());
      c.add("sink.duplicates_suppressed",
            result.duplicates_suppressed);
      c.add("fusion.detections", result.fused_detections);
      c.add("acoustic.sent", result.acoustic_contacts_sent);
      c.add("acoustic.accepted",
            result.acoustic_contacts_accepted);
    }
    return out;
  }

 private:
  bool contested_;
  std::vector<ScenarioMember> members_;
};

// ---------------------------------------------------------------------------
// trace_replay: SIDB traces generated once, read back and detected per op.

struct TraceMember {
  std::filesystem::path path;
  std::uint64_t bytes = 0;
  std::vector<core::Alarm> reference;  ///< detector on the in-memory trace
  std::vector<double> arrivals;        ///< ground-truth wake arrivals
  bool has_ship = false;
};

bool same_alarms(const std::vector<core::Alarm>& a,
                 const std::vector<core::Alarm>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].onset_time_s != b[i].onset_time_s ||
        a[i].trigger_time_s != b[i].trigger_time_s ||
        a[i].anomaly_frequency != b[i].anomaly_frequency ||
        a[i].average_energy != b[i].average_energy ||
        a[i].peak_energy != b[i].peak_energy) {
      return false;
    }
  }
  return true;
}

class TraceReplayWorkload : public Workload {
 public:
  static constexpr double kMatchToleranceS = 6.0;

  TraceReplayWorkload(std::uint64_t seed, const std::filesystem::path& dir) {
    // Kinds: calm sea with a ship at each of {8, 10, 16} kn, calm quiet
    // sea, and two rough quiet seas (storm adaptation).
    struct Kind {
      ocean::SeaState sea;
      double knots;
    };
    const Kind kinds[] = {{ocean::SeaState::kCalm, 8.0},
                          {ocean::SeaState::kCalm, 10.0},
                          {ocean::SeaState::kCalm, 16.0},
                          {ocean::SeaState::kCalm, 0.0},
                          {ocean::SeaState::kRough, 0.0},
                          {ocean::SeaState::kRough, 0.0}};
    util::Rng rng(util::derive_seed(seed, 0x7ace5ULL));
    std::filesystem::create_directories(dir);
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      const auto spectrum = ocean::make_sea_spectrum(kinds[i].sea);
      ocean::WaveFieldConfig field_cfg;
      field_cfg.seed = util::derive_seed(seed, 201 + i);
      const ocean::WaveField field(*spectrum, field_cfg);
      sense::TraceConfig trace_cfg;
      trace_cfg.duration_s = kScenarioDurationS;
      trace_cfg.buoy.anchor = {0.0, 0.0};
      trace_cfg.buoy.seed = util::derive_seed(seed, 301 + i);
      trace_cfg.accel.seed = util::derive_seed(seed, 401 + i);
      std::vector<wake::WakeTrain> trains;
      TraceMember m;
      if (kinds[i].knots > 0.0) {
        // Passes 20-80 m from the buoy.
        const wake::ShipTrack track(
            crossing_ship(kinds[i].knots, rng.uniform(80.0, 100.0),
                          rng.uniform(-80.0, -20.0)));
        if (auto train = wake::make_wake_train(track, trace_cfg.buoy.anchor)) {
          m.arrivals.push_back(train->params().arrival_time_s);
          trains.push_back(std::move(*train));
        }
        m.has_ship = true;
      }
      const auto trace = sense::generate_trace(field, trains, trace_cfg);
      m.path = dir / ("trace" + std::to_string(i) + ".sidb");
      sense::write_trace_binary(trace, m.path.string());
      m.bytes = std::filesystem::file_size(m.path);
      core::NodeDetector detector(detector_cfg_);
      m.reference = detector.process_trace(trace);
      members_.push_back(std::move(m));
    }
  }

  std::size_t ensemble_size() const override { return members_.size(); }

  OpResult run(std::size_t i, SpanLog* spans) override {
    const auto& m = members_[i];
    OpResult out;
    const double t0 = now_s();
    sense::SensorTrace trace;
    {
      SpanLog::Scope span(spans, "read_trace_binary");
      trace = sense::read_trace_binary(m.path.string());
    }
    const double t1 = now_s();
    std::optional<core::NodeDetector> detector;
    {
      SpanLog::Scope span(spans, "NodeDetector::NodeDetector");
      detector.emplace(detector_cfg_);
    }
    const double t2 = now_s();
    std::vector<core::Alarm> alarms;
    {
      SpanLog::Scope span(spans, "NodeDetector::process_trace");
      alarms = detector->process_trace(trace);
    }
    const double t3 = now_s();
    out.wall_s = t3 - t0;
    out.setup_s = t2 - t1;
    out.node_seconds = trace.duration_s();
    if (!same_alarms(alarms, m.reference)) {
      out.failure = "alarms read back from SIDB differ from the reference";
    }
    Digest d;
    for (const auto& a : alarms) {
      d.add(a.onset_time_s);
      d.add(a.trigger_time_s);
      d.add(a.peak_energy);
    }
    out.digest = d.value();
    out.work = {{"detector_samples", trace.size()},
                {"alarms", alarms.size()},
                {"bytes_read", m.bytes}};

    Quality& q = out.quality;
    q.wake_arrivals = m.arrivals.size();
    for (double arrival : m.arrivals) {
      for (const auto& a : alarms) {
        if (core::alarm_matches_truth(a, std::span(&arrival, 1),
                                      kMatchToleranceS)) {
          ++q.wakes_detected;
          break;
        }
      }
    }
    std::size_t true_alarms = 0;
    for (const auto& a : alarms) {
      if (core::alarm_matches_truth(a, m.arrivals, kMatchToleranceS)) {
        ++true_alarms;
      } else {
        ++q.false_alarms;
      }
    }
    q.node_hours = trace.duration_s() / 3600.0;

    if (spans != nullptr) {
      Layers& l = out.layers;
      l.wall_s = out.wall_s;
      l.trace_io_s = t1 - t0;
      l.detector_s = t3 - t1;
      LayerCounts& c = out.counts;
      c.add("detector.samples", trace.size());
      c.add("detector.alarms", alarms.size());
      c.add("detector.true_alarms", true_alarms);
      c.add("detector.false_alarms", q.false_alarms);
      c.add("trace_io.bytes", m.bytes);
    }
    return out;
  }

  std::vector<double> setup_samples() override {
    // One constructor takes about a microsecond, where a single timing is
    // dominated by clock and allocator jitter: each sample is the mean of
    // a batch.
    constexpr int kBatch = 100;
    std::vector<double> samples;
    for (int rep = 0; rep < 101; ++rep) {
      const double t0 = now_s();
      for (int b = 0; b < kBatch; ++b) {
        core::NodeDetector detector(detector_cfg_);
      }
      samples.push_back((now_s() - t0) / kBatch);
    }
    return samples;
  }

  void warm_up() override {
    for (std::size_t i = 0; i < members_.size(); ++i) run(i, nullptr);
  }

 private:
  core::NodeDetectorConfig detector_cfg_;
  std::vector<TraceMember> members_;
};

// ---------------------------------------------------------------------------
// fleet_plane: a large field, beacons over the horizon, and scheduled
// protocol-shaped traffic issued through the public Network API.

constexpr std::size_t kFleetSide = 50;  ///< 50 x 50 = 2500 nodes
constexpr double kFleetHorizonS = 120.0;
constexpr std::size_t kFleetIncidents = 24;
constexpr std::size_t kFleetReportsPerIncident = 8;

struct FleetMember {
  wsn::NetworkConfig config;
  std::uint64_t traffic_seed = 0;
};

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) {
    for (std::size_t i = 0; i < 4; ++i) {
      FleetMember m;
      m.config.rows = kFleetSide;
      m.config.cols = kFleetSide;
      m.config.seed = util::derive_seed(seed, 501 + i);
      m.traffic_seed = util::derive_seed(seed, 601 + i);
      members_.push_back(m);
    }
  }

  std::size_t ensemble_size() const override { return members_.size(); }

  OpResult run(std::size_t i, SpanLog* spans) override {
    return run_member(members_[i], kFleetHorizonS, spans);
  }

  std::vector<double> setup_samples() override {
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& m : members_) {
        const double t0 = now_s();
        wsn::Network net(m.config);
        samples.push_back(now_s() - t0);
      }
    }
    return samples;
  }

  void warm_up() override { run_member(members_.front(), 20.0, nullptr); }

 private:
  struct Outcomes {
    std::uint64_t attempted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t unroutable = 0;
  };

  OpResult run_member(const FleetMember& m, double horizon_s,
                      SpanLog* spans) {
    OpResult out;
    if (spans != nullptr) obs::reset_profile();
    const double t0 = now_s();
    std::optional<wsn::Network> net_storage;
    {
      SpanLog::Scope span(spans, "Network::Network");
      net_storage.emplace(m.config);
    }
    const double t1 = now_s();
    wsn::Network& net = *net_storage;
    Outcomes outcomes;
    Digest deliveries;
    double unicast_s = 0.0;
    double flood_s = 0.0;
    net.set_delivery_handler(
        [&deliveries](wsn::NodeId receiver, const wsn::Message& msg,
                      double time) {
          deliveries.add(receiver);
          deliveries.add(msg.payload.index());
          deliveries.add(time);
        });
    {
      SpanLog::Scope span(spans, "Network::start_beacons");
      net.start_beacons(horizon_s);
    }
    const double t2 = now_s();

    // Each incident: a temporary head floods a 6-hop invite, nearby
    // members send reports to it, and it sends a decision to the sink.
    auto unicast = [&, spans](wsn::Message msg) {
      const double u0 = spans != nullptr ? now_s() : 0.0;
      wsn::UnicastOutcome outcome;
      {
        SpanLog::Scope span(spans, "Network::unicast");
        outcome = net.unicast(std::move(msg));
      }
      if (spans != nullptr) unicast_s += now_s() - u0;
      ++outcomes.attempted;
      switch (outcome) {
        case wsn::UnicastOutcome::kDelivered: ++outcomes.delivered; break;
        case wsn::UnicastOutcome::kDropped: ++outcomes.dropped; break;
        case wsn::UnicastOutcome::kUnroutable: ++outcomes.unroutable; break;
      }
    };
    util::Rng rng(m.traffic_seed);
    const std::size_t n = net.node_count();
    for (std::size_t k = 0; k < kFleetIncidents; ++k) {
      const double t = rng.uniform(10.0, std::max(11.0, horizon_s - 20.0));
      const auto head = static_cast<wsn::NodeId>(rng.uniform_int(n));
      net.events().schedule_at(t, [&, spans, head, t] {
        wsn::Message invite;
        invite.src = head;
        invite.payload = wsn::ClusterInvite{head, t, 6};
        const double f0 = spans != nullptr ? now_s() : 0.0;
        {
          SpanLog::Scope span(spans, "Network::flood");
          net.flood(invite, 6);
        }
        if (spans != nullptr) flood_s += now_s() - f0;
      });
      const auto& around = net.neighbors(head);
      for (std::size_t r = 0;
           r < std::min(kFleetReportsPerIncident, around.size()); ++r) {
        const wsn::NodeId member = around[r];
        net.events().schedule_at(
            t + 1.0 + 0.25 * static_cast<double>(r), [&, member, head] {
              wsn::Message msg;
              msg.src = member;
              msg.dst = head;
              wsn::DetectionReport report;
              report.reporter = member;
              report.position = net.node(member).anchor;
              msg.payload = report;
              unicast(std::move(msg));
            });
      }
      net.events().schedule_at(t + 10.0, [&, head, k] {
        wsn::Message msg;
        msg.src = head;
        msg.dst = wsn::kSinkId;
        wsn::ClusterDecision decision;
        decision.head = head;
        decision.seq = static_cast<std::uint32_t>(k);
        decision.intrusion = true;
        msg.payload = decision;
        unicast(std::move(msg));
      });
    }
    std::size_t events = 0;
    {
      SpanLog::Scope span(spans, "Network::run_events");
      events = net.run_events();
    }
    const double t4 = now_s();
    out.wall_s = t4 - t0;
    out.setup_s = t1 - t0;
    out.node_seconds = static_cast<double>(n) * horizon_s;

    const auto& s = net.stats();
    if (outcomes.delivered + outcomes.dropped + outcomes.unroutable !=
            outcomes.attempted ||
        s.unicasts_attempted != outcomes.attempted ||
        s.unicasts_delivered != outcomes.delivered ||
        s.unicasts_dropped != outcomes.dropped ||
        s.unicasts_unroutable != outcomes.unroutable) {
      out.failure = "unicast outcomes do not add up to attempts";
    }
    Digest d;
    d.add(deliveries.value());
    d.add(events);
    d.add(outcomes.delivered);
    d.add(outcomes.dropped);
    d.add(outcomes.unroutable);
    d.add(s.beacon_receptions);
    d.add(s.suspicions);
    out.digest = d.value();
    const std::uint64_t total_events = net.events_executed_total();
    out.work = {{"events", total_events},
                {"unicasts", s.unicasts_attempted},
                {"floods", s.floods},
                {"bytes_sent", s.bytes_sent},
                {"beacons", s.beacons_sent}};

    if (spans != nullptr) {
      Layers& l = out.layers;
      l.wall_s = out.wall_s;
      l.setup_s = out.setup_s;
      l.adjacency_s = stage_s(obs::Stage::kAdjacency);
      l.start_beacons_s = t2 - t1;
      l.dispatch_s = stage_s(obs::Stage::kEventDispatch);
      l.unicast_s = unicast_s;
      l.flood_s = flood_s;
      add_network_counts(out.counts, s, total_events);
      out.counts.add("wsn.e2e_retries", 0.0);
    }
    return out;
  }

  std::vector<FleetMember> members_;
};

// ---------------------------------------------------------------------------
// Harness

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir = ".";
  std::filesystem::path spans_out;  ///< span log of the traced pass
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "sid_perfbench: %s\nusage: sid_perfbench --workload "
               "harbor|contested_harbor|trace_replay|fleet_plane --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans-out FILE]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--workdir") {
        a.workdir = value;
      } else if (key == "--spans-out") {
        a.spans_out = value;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds out of range");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

double median_or_na(const std::vector<double>& v) {
  return v.empty() ? -1.0 : median(v);
}

/// Quality metrics of one ensemble round; -1 where undefined.
void add_quality(Report& r, const Quality& q, std::uint64_t attempted,
                 std::uint64_t failed) {
  r.add("fail_rate", ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
        "ratio");
  r.add("ship_pd", ratio(static_cast<double>(q.ships_detected),
                         static_cast<double>(q.ship_runs)),
        "ratio");
  r.add("quiet_pfa", ratio(static_cast<double>(q.quiet_false_intrusions),
                           static_cast<double>(q.quiet_runs)),
        "ratio");
  r.add("speed_err_kn_p50", median_or_na(q.speed_err_kn), "kn");
  r.add("time_to_detect_s_p50", median_or_na(q.time_to_detect_s), "s");
  r.add("node_wake_recall", ratio(static_cast<double>(q.wakes_detected),
                                  static_cast<double>(q.wake_arrivals)),
        "ratio");
  r.add("node_false_alarms_per_h",
        q.node_hours > 0.0 ? static_cast<double>(q.false_alarms) / q.node_hours
                           : -1.0,
        "1/h");
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter survives exec and so reports the launcher's peak
/// when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "harbor") {
    return std::make_unique<ScenarioWorkload>(a.seed, false);
  }
  if (a.workload == "contested_harbor") {
    return std::make_unique<ScenarioWorkload>(a.seed, true);
  }
  if (a.workload == "trace_replay") {
    return std::make_unique<TraceReplayWorkload>(a.seed,
                                                 a.workdir / "traces");
  }
  if (a.workload == "fleet_plane") {
    return std::make_unique<FleetWorkload>(a.seed);
  }
  usage(("unknown workload " + a.workload).c_str());
}

/// Per-member record of the first run, against which repeats are checked.
struct FirstRun {
  std::uint64_t digest = 0;
  WorkCounters work;
};

int run_benchmark(const Args& args) {
  auto workload = make_workload(args);
  const std::size_t members = workload->ensemble_size();

  workload->warm_up();
  std::vector<double> setup = workload->setup_samples();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool counters_repeat = true;
  std::vector<std::optional<FirstRun>> first(members);
  Quality quality;
  std::vector<double> op_wall;
  std::vector<std::vector<double>> member_wall(members);
  double node_seconds = 0.0;
  double busy_s = 0.0;

  auto fail = [&](std::size_t i, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "op %zu failed: %s\n", i, why.c_str());
  };
  /// Checks a run of member i against its first run; returns false and
  /// counts a failure on any mismatch.
  auto check_repeat = [&](std::size_t i, const OpResult& r) {
    if (!first[i]) {
      first[i] = FirstRun{r.digest, r.work};
      return true;
    }
    if (r.work != first[i]->work) {
      counters_repeat = false;
      fail(i, "work counters differ from the first run of this op");
      return false;
    }
    if (r.digest != first[i]->digest) {
      fail(i, "result digest differs from the first run of this op");
      return false;
    }
    return true;
  };

  // Untraced pass: cycle the ensemble for the requested time, at least
  // one full round.
  const double start = now_s();
  for (std::size_t k = 0;
       k < members || now_s() - start < args.seconds; ++k) {
    const std::size_t i = k % members;
    ++attempted;
    try {
      OpResult r = workload->run(i, nullptr);
      if (!r.failure.empty()) {
        fail(i, r.failure);
        continue;
      }
      if (!check_repeat(i, r)) continue;
      if (k < members) quality.merge(r.quality);
      op_wall.push_back(r.wall_s);
      member_wall[i].push_back(r.wall_s);
      node_seconds += r.node_seconds;
      busy_s += r.wall_s;
    } catch (const std::exception& e) {
      fail(i, e.what());
    }
  }

  Report e2e;
  e2e.add("node_s_per_s", busy_s > 0.0 ? node_seconds / busy_s : 0.0,
          "node_s/s");
  e2e.add("op_s_p50", median(op_wall), "s");
  e2e.add("setup_s", median(setup), "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");

  Report layers;
  std::size_t rounds = 0;  ///< whole rounds in the traced pass
  if (args.trace) {
    // Traced pass: whole rounds while another round fits in the budget.
    SpanLog spans;
    Layers total;
    LayerCounts counts;
    std::vector<std::vector<double>> traced_wall(members);
    const double traced_start = now_s();
    double round_s = 0.0;
    while (rounds == 0 || now_s() - traced_start + round_s <= args.seconds) {
      const double round_start = now_s();
      for (std::size_t i = 0; i < members; ++i) {
        ++attempted;
        spans.set_op(i);
        // Root span: every span of this op nests under it.
        SpanLog::Scope op_span(&spans, "op");
        try {
          OpResult r = workload->run(i, &spans);
          std::string why = r.failure;
          if (why.empty() && first[i] && r.digest != first[i]->digest) {
            why = "traced digest differs from the untraced digest";
          }
          if (why.empty() && first[i] && r.work != first[i]->work) {
            counters_repeat = false;
            why = "traced work counters differ from the untraced run";
          }
          if (why.empty()) why = workload->traced_extra(i, r, &spans);
          if (!why.empty()) {
            fail(i, why);
            continue;
          }
          traced_wall[i].push_back(r.wall_s);
          total.merge(r.layers);
          for (const auto& [name, v] : r.counts.values) counts.add(name, v);
        } catch (const std::exception& e) {
          fail(i, e.what());
        }
      }
      ++rounds;
      round_s = now_s() - round_start;
    }
    if (!args.spans_out.empty()) spans.write_jsonl(args.spans_out);

    const double R = static_cast<double>(rounds);
    auto per_round = [&](const std::string& name) {
      return counts.get(name) / R;
    };
    auto count = [&](const std::string& name, const char* unit) {
      layers.add(name, per_round(name), unit);
    };
    auto count_ratio = [&](const std::string& name, const std::string& num,
                           const std::string& den) {
      layers.add(name, ratio(per_round(num), per_round(den)), "ratio");
    };
    const double wall = total.wall_s / R;
    const double synthesis = total.synthesis_s / R;
    const double detector = total.detector_s / R;
    const double trace_io = total.trace_io_s / R;
    const double dispatch =
        (total.dispatch_s - total.cluster_s - total.fusion_s) / R;
    const double unicast = total.unicast_s / R;
    const double unattributed = (total.wall_s - total.attributed()) / R;
    const double front_end_wall = per_round("parallel.front_end_wall_s");

    layers.add("run.wall_s", wall, "s");
    layers.add("synthesis.busy_s", synthesis, "s");
    count("synthesis.node_samples", "count");
    layers.add("synthesis.ns_per_sample",
               ratio(synthesis * 1e9, per_round("synthesis.node_samples")),
               "ns");
    layers.add("synthesis.share", ratio(synthesis, wall), "ratio");
    layers.add("detector.busy_s", detector, "s");
    count("detector.samples", "count");
    layers.add("detector.ns_per_sample",
               ratio(detector * 1e9, per_round("detector.samples")), "ns");
    layers.add("detector.share", ratio(detector, wall), "ratio");
    count("detector.alarms", "count");
    count_ratio("detector.true_alarm_ratio", "detector.true_alarms",
                "detector.alarms");
    layers.add("trace_io.read_s", trace_io, "s");
    count("trace_io.bytes", "B");
    layers.add("trace_io.mb_per_s",
               ratio(per_round("trace_io.bytes") / 1e6, trace_io), "MB/s");
    layers.add("wsn.setup_s", total.setup_s / R, "s");
    layers.add("wsn.adjacency_s", total.adjacency_s / R, "s");
    layers.add("wsn.start_beacons_s", total.start_beacons_s / R, "s");
    layers.add("wsn.dispatch_busy_s", dispatch, "s");
    count("wsn.events", "count");
    layers.add("wsn.us_per_event",
               ratio(dispatch * 1e6, per_round("wsn.events")), "us");
    layers.add("wsn.unicast_busy_s", unicast, "s");
    // Unicast time is measured only where the benchmark makes the calls.
    layers.add("wsn.us_per_unicast",
               unicast > 0.0
                   ? ratio(unicast * 1e6, per_round("wsn.unicasts"))
                   : -1.0,
               "us");
    layers.add("wsn.flood_busy_s", total.flood_s / R, "s");
    count("wsn.unicasts", "count");
    count_ratio("wsn.delivery_ratio", "wsn.delivered", "wsn.unicasts");
    layers.add("wsn.hops_per_delivery",
               ratio(per_round("wsn.hops"), per_round("wsn.delivered")),
               "count");
    count("wsn.floods", "count");
    count("wsn.flood_deliveries", "count");
    count("wsn.beacons", "count");
    count("wsn.beacon_receptions", "count");
    count("wsn.route_repairs", "count");
    count_ratio("wsn.false_suspicion_ratio", "wsn.false_suspicions",
                "wsn.suspicions");
    count("wsn.bytes_sent", "B");
    count("wsn.e2e_retries", "count");
    count("wsn.e2e_gave_up", "count");
    count("defense.filtered", "count");
    count("defense.drops", "count");
    count("defense.quarantines", "count");
    count("defense.false_quarantines", "count");
    layers.add("cluster.busy_s", total.cluster_s / R, "s");
    count("cluster.formed", "count");
    count_ratio("cluster.cancel_ratio", "cluster.cancelled", "cluster.formed");
    count("sink.decisions", "count");
    count("sink.duplicates_suppressed", "count");
    layers.add("fusion.busy_s", total.fusion_s / R, "s");
    count("fusion.detections", "count");
    count_ratio("acoustic.accepted_ratio", "acoustic.accepted",
                "acoustic.sent");
    layers.add("parallel.front_end_wall_s", front_end_wall, "s");
    layers.add("parallel.efficiency",
               ratio(per_round("parallel.front_end_busy_s"),
                     static_cast<double>(workload->threads()) *
                         front_end_wall),
               "ratio");
    layers.add("run.unattributed_s", unattributed, "s");
    layers.add("run.unattributed_share", ratio(unattributed, wall), "ratio");
    double traced_sum = 0.0;
    double untraced_sum = 0.0;
    for (std::size_t i = 0; i < members; ++i) {
      if (traced_wall[i].empty() || member_wall[i].empty()) continue;
      traced_sum += median(traced_wall[i]);
      untraced_sum += median(member_wall[i]);
    }
    layers.add("trace.overhead", ratio(traced_sum, untraced_sum), "ratio");
  }

  Report quality_report;
  add_quality(quality_report, quality, attempted, failed);
  const bool correct = failed == 0 && counters_repeat;

  // Human-readable table: every metric, by name and unit.
  std::printf("workload %s  seed %llu  ops %llu  failed %llu  traced rounds "
              "%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), rounds);
  for (const Report* r : {&e2e, &quality_report, &layers}) {
    for (const auto& m : r->metrics()) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first_metric = true;
  auto emit = [&](const Report& r) {
    for (const auto& m : r.metrics()) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      json += first_metric ? "" : ", ";
      json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
              m.unit + "\"}";
      first_metric = false;
    }
  };
  if (args.trace) {
    emit(quality_report);
    emit(layers);
  } else {
    emit(e2e);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sid_perfbench: %s\n", e.what());
    return 1;
  }
}

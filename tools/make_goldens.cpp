// make_goldens: (re)generate the golden run-capsule corpus under
// tests/golden/ — the fixed runs the CI golden-gate job replays on every
// push (docs/REPLAY.md). Each capsule is produced deterministically from
// hard-coded seeds, so regeneration on the same toolchain is a no-op;
// regenerate ONLY when an intentional behaviour change invalidates the
// stored outputs, and say so in the commit message.
//
// Usage: make_goldens [--out=tests/golden]
//
// Corpus:
//  - single_small:      one-shot protocol, harbor field, 225 nodes.
//  - continuous_drift:  10 incremental rounds over a drifting seabed.
//  - chaos_crash_burst: one-shot under 15% crashes + region blackout +
//                       Gilbert-Elliott bursty channel, self-healing on.
//  - band_edge_ulp:     6 incremental rounds where selected readings sit
//                       exactly on (and one ulp around) isolevel band
//                       edges — pins the Def. 3.1 boundary-bit behaviour.
//  - impaired_arq:      one-shot over the link-impairment pipeline
//                       (latency/jitter/dup/reorder/corrupt) with
//                       sliding-window ARQ on a bursty channel — pins
//                       the virtual-time event interleaving.

#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "sim/run_capsule.hpp"
#include "sim/runners.hpp"
#include "util/cli.hpp"

using namespace isomap;

namespace {

/// Per-node readings for one round: sample `field` at each alive node's
/// physical position (dead nodes read 0.0), exactly as the continuous
/// mapper's field-driven round does.
std::vector<double> sense(const Scenario& scenario,
                          const ScalarField& field) {
  std::vector<double> readings;
  scenario.deployment.sense(field, readings);
  return readings;
}

bool emit(const std::filesystem::path& dir, const std::string& name,
          const capsule::RunCapsule& run) {
  const std::filesystem::path path = dir / (name + ".capsule");
  if (!capsule::save(path.string(), run)) {
    std::cerr << "make_goldens: cannot write " << path << "\n";
    return false;
  }
  std::cout << path.string() << ": " << run.rounds.size() << " round(s), "
            << std::filesystem::file_size(path) << " bytes\n";
  return true;
}

capsule::RunCapsule golden_single_small() {
  ScenarioConfig config;
  config.num_nodes = 225;
  config.field_side = 15.0;
  config.seed = 7;
  const Scenario scenario = make_scenario(config);
  const IsoMapOptions options = isomap_options(scenario, 4);
  return capsule::record_single_shot(scenario, options,
                                     "single_small: harbor 225 nodes");
}

capsule::RunCapsule golden_continuous_drift() {
  ScenarioConfig config;
  config.num_nodes = 225;
  config.field_side = 15.0;
  config.seed = 11;
  const Scenario scenario = make_scenario(config);

  ContinuousOptions options;
  options.base = isomap_options(scenario, 4);
  options.stale_rounds = 6;
  options.engine = ContinuousEngine::kIncremental;

  // Drift the seabed from the normal bathymetry to the silted one over
  // the rounds (the ext_continuous storyline, shrunk to golden size).
  const GaussianField silted =
      silted_harbor_bathymetry(scenario.config.bounds());
  std::vector<std::vector<double>> rounds;
  const int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    const double alpha = static_cast<double>(r) / (kRounds - 1);
    const BlendedField field(scenario.field, silted, alpha);
    rounds.push_back(sense(scenario, field));
  }
  return capsule::record_continuous(
      scenario, options, std::move(rounds),
      "continuous_drift: 10 incremental rounds, harbor -> silted");
}

capsule::RunCapsule golden_chaos_crash_burst() {
  ScenarioConfig config;
  config.num_nodes = 300;
  config.field_side = 17.0;
  config.seed = 23;
  const Scenario scenario = make_scenario(config);

  IsoMapOptions options = isomap_options(scenario, 4);
  options.fault.crash_fraction = 0.15;
  options.fault.blackout = true;
  options.fault.blackout_center = {4.0, 12.0};
  options.fault.blackout_radius = 2.5;
  options.fault.blackout_time = 0.4;
  options.fault.seed = 0xC4A05ULL;
  options.link.burst = GilbertElliottParams{};
  options.link.seed = 0xB0057ULL;
  return capsule::record_single_shot(
      scenario, options,
      "chaos_crash_burst: 15% crashes + blackout + bursty channel");
}

capsule::RunCapsule golden_band_edge_ulp() {
  ScenarioConfig config;
  config.num_nodes = 121;
  config.field_side = 11.0;
  config.seed = 31;
  const Scenario scenario = make_scenario(config);

  ContinuousOptions options;
  options.base = isomap_options(scenario, 4);
  options.engine = ContinuousEngine::kIncremental;

  // Rounds 0..5: start from the sensed field, then park a sweep of nodes
  // exactly on isolevel band edges (lambda - eps, lambda, lambda + eps)
  // and nudge them by one ulp per round. Definition 3.1's band membership
  // must resolve these boundary bit patterns identically forever.
  const ContourQuery& query = options.base.query;
  const std::vector<double> levels = query.isolevels();
  const double eps = query.epsilon();
  std::vector<std::vector<double>> rounds;
  std::vector<double> readings = sense(scenario, scenario.field);
  rounds.push_back(readings);
  const int n = scenario.deployment.size();
  for (int r = 1; r < 6; ++r) {
    for (int v = 0; v < n; v += 3) {
      const double lambda =
          levels[static_cast<std::size_t>(v) % levels.size()];
      const double edge = (v % 2 == 0) ? lambda - eps : lambda + eps;
      double value = edge;
      // One-ulp plateau walk: r=1 sits exactly on the edge, then steps
      // alternate one ulp below / above it.
      for (int step = 1; step < r; ++step)
        value = std::nextafter(
            value, (step % 2 == 1) ? -1e300 : 1e300);
      readings[static_cast<std::size_t>(v)] = value;
    }
    rounds.push_back(readings);
  }
  return capsule::record_continuous(
      scenario, options, std::move(rounds),
      "band_edge_ulp: readings parked on isolevel band edges +/- 1 ulp");
}

capsule::RunCapsule golden_impaired_arq() {
  ScenarioConfig config;
  config.num_nodes = 256;
  config.field_side = 16.0;
  config.seed = 41;
  const Scenario scenario = make_scenario(config);

  IsoMapOptions options = isomap_options(scenario, 4);
  options.link.burst = GilbertElliottParams{};
  options.link.seed = 0xA12B3ULL;
  ImpairmentConfig impair;
  impair.latency_s = 0.004;
  impair.jitter_s = 0.006;
  impair.dup_prob = 0.15;
  impair.reorder_prob = 0.1;
  impair.reorder_extra_s = 0.02;
  impair.corrupt_prob = 0.05;
  options.link.impair = impair;
  options.link.arq.window = 4;
  options.link.arq.frame_payload_bytes = 24.0;
  options.link.arq.timeout_s = 0.04;
  options.link.arq.max_frame_attempts = 6;
  return capsule::record_single_shot(
      scenario, options,
      "impaired_arq: bursty + jitter/dup/reorder/corrupt under ARQ");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::filesystem::path dir =
      args.get("out").value_or("tests/golden");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "make_goldens: cannot create " << dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  bool ok = emit(dir, "single_small", golden_single_small());
  ok = emit(dir, "continuous_drift", golden_continuous_drift()) && ok;
  ok = emit(dir, "chaos_crash_burst", golden_chaos_crash_burst()) && ok;
  ok = emit(dir, "band_edge_ulp", golden_band_edge_ulp()) && ok;
  ok = emit(dir, "impaired_arq", golden_impaired_arq()) && ok;
  return ok ? 0 : 1;
}

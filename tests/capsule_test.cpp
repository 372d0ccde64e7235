// Capsule codec + run-capsule record/replay tests.
//
// The fuzz-ish decoder cases (TruncationNeverCrashes / ByteFlips...) are
// the untrusted-input contract: decoding arbitrary bytes must either
// succeed or throw CapsuleError — never crash, never read out of bounds.
// The sanitizer CI job runs this binary under ASan/UBSan to enforce the
// "never" part. GoldenCorpusReplays makes the tests/golden/ corpus a
// tier-1 gate as well as a CI job.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "sim/capsule_fields.hpp"
#include "sim/run_capsule.hpp"
#include "sim/runners.hpp"
#include "util/capsule.hpp"

namespace isomap::capsule {
namespace {

// ---------------------------------------------------------------------------
// Codec primitives.

TEST(CapsuleCodec, VarintRoundTrip) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xDEADBEEFULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  for (std::uint64_t v : values) w.put_u64(v);
  Reader r(w.bytes());
  for (std::uint64_t v : values) EXPECT_EQ(r.get_u64(), v);
  EXPECT_TRUE(r.done());
}

TEST(CapsuleCodec, ZigzagRoundTrip) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  Writer w;
  for (std::int64_t v : values) w.put_i64(v);
  Reader r(w.bytes());
  for (std::int64_t v : values) EXPECT_EQ(r.get_i64(), v);
  EXPECT_TRUE(r.done());
}

TEST(CapsuleCodec, F64BitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::nextafter(1.0, 2.0)};
  Writer w;
  for (double v : values) w.put_f64(v);
  EXPECT_EQ(w.size(), 8 * std::size(values));  // fixed width, not varint
  Reader r(w.bytes());
  for (double v : values) {
    const double got = r.get_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(CapsuleCodec, StringsAndBools) {
  Writer w;
  w.put_bool(true);
  w.put_string("");
  w.put_string(std::string("bin\0ary\n", 8));
  w.put_bool(false);
  Reader r(w.bytes());
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("bin\0ary\n", 8));
  EXPECT_FALSE(r.get_bool());
  EXPECT_TRUE(r.done());
}

TEST(CapsuleCodec, MalformedVarintsThrow) {
  // Unterminated: continuation bit set on every byte.
  const std::string unterminated(11, '\x80');
  EXPECT_THROW(Reader(unterminated).get_u64(), CapsuleError);
  // Ten full groups overflow 64 bits unless the last is 0 or 1.
  std::string overflow(9, '\x80');
  overflow += '\x02';
  EXPECT_THROW(Reader(overflow).get_u64(), CapsuleError);
  // Truncated mid-varint.
  EXPECT_THROW(Reader(std::string(1, '\x80')).get_u64(), CapsuleError);
  // Truncated fixed-width / length-prefixed reads.
  EXPECT_THROW(Reader(std::string(7, 'x')).get_f64(), CapsuleError);
  Writer w;
  w.put_string("hello");
  EXPECT_THROW(Reader(std::string_view(w.bytes()).substr(0, 3)).get_string(),
               CapsuleError);
  // Boolean out of range.
  EXPECT_THROW(Reader(std::string(1, '\x02')).get_bool(), CapsuleError);
}

TEST(CapsuleCodec, CountGuards) {
  Writer w;
  w.put_u64(1000);
  Reader r1(w.bytes());
  EXPECT_THROW(r1.get_count(999), CapsuleError);
  // 1000 items of >= 8 bytes each cannot fit in a 2-byte buffer.
  Reader r2(w.bytes());
  EXPECT_THROW(r2.get_count(100000, 8), CapsuleError);
}

// ---------------------------------------------------------------------------
// Container framing.

TEST(CapsuleContainer, RoundTripAndFind) {
  Capsule c;
  c.add(7, "alpha");
  c.add(3, std::string("\0\x80payload", 9));
  const std::string bytes = c.encode();
  const Capsule back = Capsule::decode(bytes);
  EXPECT_EQ(back.version, kFormatVersion);
  ASSERT_EQ(back.sections.size(), 2u);
  ASSERT_NE(back.find(3), nullptr);
  EXPECT_EQ(back.find(3)->payload, std::string("\0\x80payload", 9));
  EXPECT_EQ(back.find(42), nullptr);
  // Canonical: re-encoding a decoded capsule reproduces the bytes.
  EXPECT_EQ(back.encode(), bytes);
}

TEST(CapsuleContainer, RejectsBadMagicAndVersions) {
  EXPECT_THROW(Capsule::decode(""), CapsuleError);
  EXPECT_THROW(Capsule::decode("not a capsule at all"), CapsuleError);
  std::string bytes = Capsule{}.encode();
  bytes[0] ^= 0x01;
  EXPECT_THROW(Capsule::decode(bytes), CapsuleError);

  const std::string magic(kMagic, sizeof(kMagic));
  EXPECT_THROW(Capsule::decode(magic + '\x00'), CapsuleError);  // version 0
  EXPECT_THROW(Capsule::decode(magic + '\x63'), CapsuleError);  // version 99
  EXPECT_THROW(Capsule::decode(magic), CapsuleError);  // missing version
}

TEST(CapsuleContainer, RejectsTruncatedSection) {
  Capsule c;
  c.add(1, "0123456789");
  const std::string bytes = c.encode();
  // magic + version alone is a valid empty capsule; every longer prefix
  // cuts the section mid-frame and must throw.
  EXPECT_TRUE(Capsule::decode(bytes.substr(0, sizeof(kMagic) + 1))
                  .sections.empty());
  for (std::size_t cut = sizeof(kMagic) + 2; cut < bytes.size(); ++cut)
    EXPECT_THROW(Capsule::decode(bytes.substr(0, cut)), CapsuleError)
        << "prefix of " << cut << " bytes decoded";
}

// ---------------------------------------------------------------------------
// Run-capsule fixtures.

std::vector<double> sense(const Scenario& scenario) {
  std::vector<double> readings;
  scenario.deployment.sense(scenario.field, readings);
  return readings;
}

RunCapsule small_single_shot() {
  ScenarioConfig config;
  config.num_nodes = 64;
  config.field_side = 8.0;
  config.seed = 3;
  const Scenario scenario = make_scenario(config);
  return record_single_shot(scenario, isomap_options(scenario, 3),
                            "test: small single shot");
}

RunCapsule small_continuous() {
  ScenarioConfig config;
  config.num_nodes = 64;
  config.field_side = 8.0;
  config.seed = 5;
  const Scenario scenario = make_scenario(config);
  ContinuousOptions options;
  options.base = isomap_options(scenario, 3);
  options.engine = ContinuousEngine::kIncremental;
  std::vector<std::vector<double>> rounds;
  std::vector<double> readings = sense(scenario);
  for (int r = 0; r < 3; ++r) {
    rounds.push_back(readings);
    for (double& v : readings) v += 0.05;  // uniform drift between rounds
  }
  return record_continuous(scenario, options, std::move(rounds),
                           "test: small continuous");
}

// ---------------------------------------------------------------------------
// Record / save / load / replay.

TEST(RunCapsuleTest, SingleShotWireRoundTripIsCanonical) {
  const RunCapsule run = small_single_shot();
  const std::string bytes = to_capsule(run).encode();
  const RunCapsule back = from_capsule(Capsule::decode(bytes));
  EXPECT_EQ(back.kind, RunKind::kSingleShot);
  EXPECT_EQ(back.label, run.label);
  EXPECT_EQ(back.rounds, run.rounds);
  EXPECT_FALSE(diff_outputs(run, back).has_value());
  // decode(encode(x)) re-encodes to the identical bytes.
  EXPECT_EQ(to_capsule(back).encode(), bytes);
}

TEST(RunCapsuleTest, SingleShotReplayMatchesRecording) {
  const RunCapsule run = small_single_shot();
  EXPECT_FALSE(check_fault_plan(run).has_value());
  const RunCapsule fresh = replay(run);
  const auto diff = diff_outputs(run, fresh);
  EXPECT_FALSE(diff.has_value())
      << diff->where << ": " << diff->detail;
}

TEST(RunCapsuleTest, ContinuousReplayMatchesRecording) {
  const RunCapsule run = small_continuous();
  ASSERT_EQ(run.round_outputs.size(), 3u);
  const std::string bytes = to_capsule(run).encode();
  const RunCapsule back = from_capsule(Capsule::decode(bytes));
  EXPECT_FALSE(diff_outputs(run, back).has_value());
  const RunCapsule fresh = replay(back);
  const auto diff = diff_outputs(run, fresh);
  EXPECT_FALSE(diff.has_value())
      << diff->where << ": " << diff->detail;
}

TEST(RunCapsuleTest, SaveLoadRoundTrip) {
  const RunCapsule run = small_single_shot();
  const std::string path = "capsule_test_tmp.capsule";
  ASSERT_TRUE(save(path, run));
  const RunCapsule back = load(path);
  std::remove(path.c_str());
  EXPECT_FALSE(diff_outputs(run, back).has_value());
}

TEST(RunCapsuleTest, DiffPinpointsPerturbedOutput) {
  const RunCapsule run = small_single_shot();
  RunCapsule tampered = run;
  ASSERT_FALSE(tampered.single.sink_reports.empty());
  tampered.single.sink_reports[0].position.x = std::nextafter(
      tampered.single.sink_reports[0].position.x, 1e300);
  const auto diff = diff_outputs(run, tampered);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->where.find("single.sink_reports["), std::string::npos)
      << diff->where;

  RunCapsule counter = run;
  counter.single.delivered_reports += 1;
  const auto diff2 = diff_outputs(run, counter);
  ASSERT_TRUE(diff2.has_value());
  EXPECT_EQ(diff2->where, "single.delivered_reports");
}

TEST(RunCapsuleTest, UnknownSectionsAreSkipped) {
  // A future writer adds a section this reader has no tag for: decoding
  // must ignore it rather than fail (forward compatibility).
  const RunCapsule run = small_single_shot();
  Capsule c = to_capsule(run);
  c.add(9999, "from-the-future");
  const RunCapsule back = from_capsule(Capsule::decode(c.encode()));
  EXPECT_FALSE(diff_outputs(run, back).has_value());
}

TEST(RunCapsuleTest, ReplayStreamsTrace) {
  const RunCapsule run = small_single_shot();
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  const RunCapsule fresh = replay(run, &sink);
  sink.flush();
  EXPECT_GT(sink.events(), 0u);
  EXPECT_NE(trace_out.str().find("\"kind\""), std::string::npos);
  // Observing the run must not perturb it.
  EXPECT_FALSE(diff_outputs(run, fresh).has_value());
}

TEST(RunCapsuleTest, PreTelemetryCapsulesReplayBitIdentically) {
  // Capsules recorded before the telemetry section existed carry no
  // tag-11 section (the committed golden corpus is exactly this). They
  // must keep replaying bit-identically: replay records a fresh
  // telemetry table, and diff_outputs only compares telemetry when BOTH
  // sides carry one.
  const RunCapsule run = small_single_shot();
  ASSERT_TRUE(run.telemetry.has_value());
  Capsule c = to_capsule(run);
  std::erase_if(c.sections,
                [](const Section& s) { return s.tag == 11; });
  const RunCapsule old = from_capsule(Capsule::decode(c.encode()));
  EXPECT_FALSE(old.telemetry.has_value());
  const RunCapsule fresh = replay(old);
  EXPECT_TRUE(fresh.telemetry.has_value());
  const auto diff = diff_outputs(old, fresh);
  EXPECT_FALSE(diff.has_value()) << diff->where << ": " << diff->detail;
  // The stripped capsule's outputs agree with the original's too.
  EXPECT_FALSE(diff_outputs(run, old).has_value());
}

TEST(RunCapsuleTest, TelemetrySectionRoundTripsBitwise) {
  const RunCapsule run = small_single_shot();
  ASSERT_TRUE(run.telemetry.has_value());
  const RunCapsule back =
      from_capsule(Capsule::decode(to_capsule(run).encode()));
  ASSERT_TRUE(back.telemetry.has_value());
  EXPECT_EQ(back.telemetry->tx_bytes, run.telemetry->tx_bytes);
  EXPECT_EQ(back.telemetry->rx_bytes, run.telemetry->rx_bytes);
  EXPECT_EQ(back.telemetry->ops, run.telemetry->ops);
  EXPECT_EQ(back.telemetry->hops, run.telemetry->hops);
  EXPECT_EQ(back.telemetry->generated, run.telemetry->generated);
  EXPECT_EQ(back.telemetry->delivered, run.telemetry->delivered);
  EXPECT_EQ(back.telemetry->lost_channel, run.telemetry->lost_channel);
  EXPECT_EQ(back.telemetry->lost_crash, run.telemetry->lost_crash);
  // A replay of the telemetry-carrying capsule reproduces the stored
  // table bit for bit — diff_outputs now covers the telemetry arrays.
  const RunCapsule fresh = replay(back);
  ASSERT_TRUE(fresh.telemetry.has_value());
  const auto diff = diff_outputs(back, fresh);
  EXPECT_FALSE(diff.has_value()) << diff->where << ": " << diff->detail;
}

RunCapsule impaired_single_shot() {
  ScenarioConfig config;
  config.num_nodes = 64;
  config.field_side = 8.0;
  config.seed = 13;
  const Scenario scenario = make_scenario(config);
  IsoMapOptions options = isomap_options(scenario, 3);
  options.link.burst = GilbertElliottParams{};
  ImpairmentConfig impair;
  impair.jitter_s = 0.006;
  impair.dup_prob = 0.2;
  impair.reorder_prob = 0.1;
  impair.corrupt_prob = 0.08;
  options.link.impair = impair;
  options.link.arq.window = 4;
  options.link.arq.frame_payload_bytes = 24.0;
  options.link.arq.max_frame_attempts = 5;
  return record_single_shot(scenario, options,
                            "test: impaired single shot");
}

TEST(RunCapsuleTest, LinkImpairSectionRoundTripsAndReplays) {
  const RunCapsule run = impaired_single_shot();
  // The impairment section (tag 12) is present exactly when the recorded
  // run was impaired; unimpaired capsules stay byte-compatible.
  EXPECT_NE(to_capsule(run).find(12), nullptr);
  EXPECT_EQ(to_capsule(small_single_shot()).find(12), nullptr);

  const RunCapsule back =
      from_capsule(Capsule::decode(to_capsule(run).encode()));
  ASSERT_TRUE(back.options.link.impair.has_value());
  EXPECT_EQ(back.options.link.impair->jitter_s, 0.006);
  EXPECT_EQ(back.options.link.impair->dup_prob, 0.2);
  EXPECT_EQ(back.options.link.impair->corrupt_prob, 0.08);
  EXPECT_EQ(back.options.link.arq.window, 4);
  EXPECT_EQ(back.options.link.arq.frame_payload_bytes, 24.0);
  EXPECT_EQ(back.options.link.arq.max_frame_attempts, 5);
  // Measured end-to-end latency survives the wire bit for bit.
  EXPECT_GT(run.single.e2e_last_latency_s, 0.0);
  EXPECT_EQ(back.single.e2e_first_latency_s, run.single.e2e_first_latency_s);
  EXPECT_EQ(back.single.e2e_last_latency_s, run.single.e2e_last_latency_s);
  EXPECT_EQ(back.single.e2e_mean_latency_s, run.single.e2e_mean_latency_s);
  // Replaying the decoded capsule reproduces every output — including
  // the latency fields and the impairment telemetry counters.
  const RunCapsule fresh = replay(back);
  const auto diff = diff_outputs(back, fresh);
  EXPECT_FALSE(diff.has_value()) << diff->where << ": " << diff->detail;
  ASSERT_TRUE(back.telemetry.has_value());
  long long dup_rx = 0;
  for (const long long v : back.telemetry->dup_rx) dup_rx += v;
  EXPECT_GT(dup_rx, 0);
}

TEST(RunCapsuleTest, ImpairedDiffCatchesLatencyPerturbation) {
  const RunCapsule run = impaired_single_shot();
  RunCapsule bent = run;
  bent.single.e2e_mean_latency_s += 1e-9;
  const auto diff = diff_outputs(run, bent);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->where, "single.e2e_mean_latency_s");
}

// ---------------------------------------------------------------------------
// Field tables.

/// Converts to any member type, so T{AnyMember{}...} probes how many
/// members aggregate T has.
struct AnyMember {
  template <class T>
  operator T() const;
};

template <class T, class... Members>
constexpr std::size_t aggregate_arity() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; })
    return aggregate_arity<T, Members..., AnyMember>();
  else
    return sizeof...(Members);
}

/// Field and skip entries of T's table (tail / per-node markers excluded).
template <class T>
constexpr std::size_t table_members() {
  return std::apply(
      [](const auto&... e) {
        return (std::size_t{0} + ... +
                (requires { e.member; } ? std::size_t{1} : std::size_t{0}));
      },
      schema::kFields<T>);
}

/// Members of T. An output record's table lists the members of its
/// counter base in place, so they count one by one.
template <class T>
constexpr std::size_t stored_members() {
  std::size_t n = aggregate_arity<T>();
  if constexpr (std::is_same_v<T, SingleShotOutputs>)
    n += aggregate_arity<IsoMapCounters>() - 1;
  if constexpr (std::is_same_v<T, RoundOutputs>)
    n += aggregate_arity<RoundCounters>() - 1;
  return n;
}

template <class T>
void expect_table_covers_members() {
  EXPECT_EQ(table_members<T>(), stored_members<T>())
      << "a member of " << typeid(T).name()
      << " has no field table entry (add a field, or a skip with a reason)";
}

template <class... T>
void expect_tables_cover_members() {
  (expect_table_covers_members<T>(), ...);
}

TEST(CapsuleSchema, EveryStoredMemberHasATableEntry) {
  expect_tables_cover_members<
      FieldBounds, ScenarioConfig, ContourQuery, IsoMapOptions, LinkOptions,
      GilbertElliottParams, FaultConfig, ImpairmentConfig, ArqConfig,
      ContinuousOptions, DeploymentSnapshot::NodeRec, FaultEvent,
      IsolineReport, ContourPolyline, LevelContour, obs::LedgerTotals,
      IsoMapCounters, SingleShotOutputs, ContinuousMapper::SinkDumpEntry,
      RoundCounters, RoundOutputs, obs::TelemetryEnergyModel,
      obs::NodeTelemetrySnapshot>();
  // Vec2 is no aggregate (it has constructors): pin its layout instead.
  static_assert(sizeof(Vec2) == 2 * sizeof(double));
  EXPECT_EQ(table_members<Vec2>(), 2u);
}

// ---------------------------------------------------------------------------
// Decode-time range rules: a capsule that decodes must replay.

const std::string kGoldenDir = ISOMAP_GOLDEN_DIR;

TEST(CapsuleDecode, IntFieldsRejectValuesOutsideIntRange) {
  // Rewrite the deployment section's sink varint to sink + 2^32, which a
  // narrowing decode would silently read back as the original sink.
  for (const char* name : {"single_small", "continuous_drift"}) {
    SCOPED_TRACE(name);
    Capsule c = read_file(kGoldenDir + "/" + name + ".capsule");
    for (Section& s : c.sections) {
      if (s.tag != 5) continue;  // deployment
      Reader r(s.payload);
      Writer w;
      for (int i = 0; i < 5; ++i) w.put_f64(r.get_f64());  // bounds, range
      const std::int64_t sink = r.get_i64();
      w.put_i64(sink + (std::int64_t{1} << 32));
      s.payload = w.take() + s.payload.substr(s.payload.size() - r.remaining());
    }
    EXPECT_THROW((void)from_capsule(Capsule::decode(c.encode())),
                 CapsuleError);
  }
}

TEST(CapsuleDecode, RejectsUnboundedQueriesAndInvalidLinkConfigs) {
  const RunCapsule golden = load(kGoldenDir + "/impaired_arq.capsule");
  ASSERT_TRUE(golden.options.link.impair.has_value());
  for (const double granularity : {0.0, 1e-7}) {
    RunCapsule run = golden;
    run.options.query.granularity = granularity;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
        << "granularity " << granularity;
  }
  RunCapsule run = golden;
  run.options.link.arq.window = 0;
  EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError);
}

TEST(CapsuleDecode, RejectsNonFiniteOrNonPositiveRadioRange) {
  const RunCapsule golden = load(kGoldenDir + "/single_small.capsule");
  for (const double range : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0,
                             -1.5}) {
    RunCapsule run = golden;
    run.radio_range = range;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
        << "radio_range " << range;
  }
}

TEST(CapsuleDecode, RejectsBadHeaderBytesAndLinkOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* name : {"single_small", "continuous_drift"}) {
    SCOPED_TRACE(name);
    const RunCapsule golden = load(kGoldenDir + "/" + name + ".capsule");
    for (const double bytes : {nan, inf, -5.0}) {
      RunCapsule run = golden;
      run.options.header_bytes = bytes;
      EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
          << "header_bytes " << bytes;
    }
    for (const double loss : {nan, inf, -0.5, 1.0}) {
      RunCapsule run = golden;
      run.options.link.loss = loss;
      EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
          << "link_loss " << loss;
    }
    RunCapsule run = golden;
    run.options.link.retries = -4;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError);
    // Gilbert–Elliott bursts the channel would reject.
    const auto bent_burst = [&](auto&& bend) {
      RunCapsule bent = golden;
      bend(bent.options.link.burst.emplace());
      return bent;
    };
    for (const RunCapsule& bent :
         {bent_burst([](auto& p) { p.p_exit_burst = 0.0; }),
          bent_burst([](auto& p) { p.p_enter_burst = -0.1; }),
          bent_burst([](auto& p) { p.loss_good = 1.0; }),
          bent_burst([](auto& p) { p.loss_bad = 1.5; })})
      EXPECT_THROW((void)from_capsule(to_capsule(bent)), CapsuleError);
    // The boundary values still decode.
    run = golden;
    run.options.header_bytes = 0.0;
    run.options.link.retries = 0;
    EXPECT_NO_THROW((void)from_capsule(to_capsule(run)));
  }
}

TEST(CapsuleDecode, RejectsBadRegressionHopsAndContinuousOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const RunCapsule single = load(kGoldenDir + "/single_small.capsule");
  const RunCapsule continuous =
      load(kGoldenDir + "/continuous_drift.capsule");
  for (const RunCapsule* golden : {&single, &continuous}) {
    for (const int hops : {0, -1}) {
      RunCapsule run = *golden;
      run.options.query.regression_hops = hops;
      EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
          << "regression_hops " << hops;
    }
  }
  // Wider scopes are a single-shot option only: the continuous mapper's
  // fit caches hold 1-hop neighbourhoods.
  RunCapsule run = single;
  run.options.query.regression_hops = 2;
  EXPECT_NO_THROW((void)from_capsule(to_capsule(run)));
  run = continuous;
  run.options.query.regression_hops = 2;
  EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError);

  for (const double v : {nan, inf, -4.0}) {
    run = continuous;
    run.continuous.withdraw_bytes = v;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
        << "withdraw_bytes " << v;
    run = continuous;
    run.continuous.beacon_bytes = v;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
        << "beacon_bytes " << v;
    run = continuous;
    run.continuous.gradient_refresh_deg = v;
    EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError)
        << "gradient_refresh_deg " << v;
  }
  run = continuous;
  run.continuous.stale_rounds = -3;
  EXPECT_THROW((void)from_capsule(to_capsule(run)), CapsuleError);
  // The boundary values still decode.
  run = continuous;
  run.continuous.withdraw_bytes = 0.0;
  run.continuous.beacon_bytes = 0.0;
  run.continuous.gradient_refresh_deg = 0.0;
  run.continuous.stale_rounds = 0;
  EXPECT_NO_THROW((void)from_capsule(to_capsule(run)));
}

// ---------------------------------------------------------------------------
// Fuzz-ish decoder robustness. Run under ASan/UBSan in CI.

/// from_capsule over arbitrary bytes must either produce a value or throw
/// CapsuleError. Any other exception (or a sanitizer report) is a bug.
void expect_clean_decode(const std::string& bytes) {
  try {
    (void)from_capsule(Capsule::decode(bytes));
  } catch (const CapsuleError&) {
    // Expected for malformed input.
  }
}

TEST(CapsuleFuzz, TruncationNeverCrashes) {
  const std::string bytes = to_capsule(small_single_shot()).encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    expect_clean_decode(bytes.substr(0, cut));
}

TEST(CapsuleFuzz, ByteFlipsNeverCrash) {
  const std::string bytes = to_capsule(small_single_shot()).encode();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const char mask : {'\x01', '\x80', '\xFF'}) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      expect_clean_decode(mutated);
    }
  }
}

TEST(CapsuleFuzz, CorruptCountsCannotBalloonAllocations) {
  // A section whose node count claims far more items than the payload
  // holds must be rejected up front (not after a giant resize).
  const RunCapsule run = small_single_shot();
  Capsule c = to_capsule(run);
  for (Section& s : c.sections) {
    Writer w;
    w.put_u64((1ULL << 22) - 1);  // huge but within the count cap
    s.payload = w.take();
  }
  EXPECT_THROW((void)from_capsule(c), CapsuleError);
}

// ---------------------------------------------------------------------------
// Golden corpus: every committed capsule replays bit-identically.

/// 64-bit FNV-1a.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GoldenCorpus, AllGoldensReplayBitIdentically) {
  // Digests of each golden decoded and encoded again. The four schema-1
  // goldens gain the schema-2 tails on re-encode (SHA-256 prefixes
  // 21d45fe3, 5021a012, 0f3f1bec, 784de186); impaired_arq is schema 2
  // and re-encodes to its own file bytes (41458716).
  const struct {
    const char* name;
    std::uint64_t reencoded_fnv1a;
  } goldens[] = {{"single_small", 0x90d5e33fdebaee4bULL},
                 {"continuous_drift", 0xb513890578dee044ULL},
                 {"chaos_crash_burst", 0x3ce9ee3dc67eb661ULL},
                 {"band_edge_ulp", 0x000b3e9126a6b98bULL},
                 {"impaired_arq", 0x852db866ba7ff2d2ULL}};
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.name);
    const std::string path = kGoldenDir + "/" + golden.name + ".capsule";
    const RunCapsule stored = load(path);
    const auto plan_diff = check_fault_plan(stored);
    EXPECT_FALSE(plan_diff.has_value())
        << plan_diff->where << ": " << plan_diff->detail;
    const RunCapsule fresh = replay(stored);
    const auto diff = diff_outputs(stored, fresh);
    EXPECT_FALSE(diff.has_value()) << diff->where << ": " << diff->detail;

    const std::string reencoded = to_capsule(stored).encode();
    EXPECT_EQ(fnv1a(reencoded), golden.reencoded_fnv1a);
    EXPECT_EQ(to_capsule(from_capsule(Capsule::decode(reencoded))).encode(),
              reencoded);
    if (std::string(golden.name) == "impaired_arq") {
      EXPECT_EQ(reencoded, read_file(path).encode());
    }
  }
}

}  // namespace
}  // namespace isomap::capsule

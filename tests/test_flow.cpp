#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "flow/csv.hpp"
#include "flow/record.hpp"
#include "flow/trace_gen.hpp"
#include "stream/flow_analyzer.hpp"

namespace ddpm::flow {
namespace {

FlowRecord sample_record() {
  FlowRecord r;
  r.src = 0xC0A80002;
  r.dst = 0xC0A80001;
  r.bytes = 12345;
  r.packets = 17;
  r.first_ts = 1000;
  r.last_ts = 2000;
  r.proto = 6;
  r.attack = false;
  return r;
}

TEST(CsvParse, RoundTripsOneLine) {
  const FlowRecord r = sample_record();
  std::ostringstream os;
  write_csv(os, {r});
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], r);
}

TEST(CsvParse, AttackLabelRoundTrips) {
  FlowRecord r = sample_record();
  r.attack = true;
  std::ostringstream os;
  write_csv(os, {r});
  EXPECT_NE(os.str().find("ATTACK"), std::string::npos);
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].attack);
  EXPECT_EQ(parsed[0], r);
}

TEST(CsvParse, EmptyFile) {
  std::istringstream is("");
  const CsvStats stats = read_csv(is, [](const FlowRecord&) { FAIL(); });
  EXPECT_FALSE(stats.header_ok);
  EXPECT_EQ(stats.lines, 0u);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, HeaderOnly) {
  std::istringstream is(std::string(kCsvHeader) + "\n");
  const CsvStats stats = read_csv(is, [](const FlowRecord&) { FAIL(); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, MalformedLinesAreCountedAndSkipped) {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  os << "1,2,3,4,5,6,17,BENIGN\n";        // good
  os << "1,2,3,4,5\n";                    // truncated
  os << "a,b,c,d,e,f,g,h\n";              // garbage
  os << "1,2,3,4,5,6,999,BENIGN\n";       // proto overflow
  os << "1,2,3,4,5,6,17,\n";              // empty label
  os << "1,2,3,4,5,6,17,BENIGN,extra\n";  // extra field
  os << "9,8,7,6,5,4,3,DDoS\n";           // good (attack)
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_EQ(stats.lines, 7u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.malformed, 5u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_FALSE(parsed[0].attack);
  EXPECT_TRUE(parsed[1].attack);
}

TEST(CsvParse, BlankLinesAndCrlfTolerated) {
  std::istringstream is(std::string(kCsvHeader) +
                        "\r\n1,2,3,4,5,6,17,BENIGN\r\n\n");
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(CsvParse, OutOfOrderTimestampsCounted) {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  os << "1,2,3,4,500,600,17,BENIGN\n";
  os << "1,2,3,4,100,200,17,BENIGN\n";  // earlier than predecessor
  os << "1,2,3,4,700,800,17,BENIGN\n";
  std::istringstream is(os.str());
  const CsvStats stats = read_csv(is, [](const FlowRecord&) {});
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.out_of_order, 1u);
}

TEST(CsvParse, RejectsObviousGarbage) {
  FlowRecord r;
  EXPECT_FALSE(parse_csv_line("", r));
  EXPECT_FALSE(parse_csv_line(",,,,,,,", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17", r));
  EXPECT_FALSE(parse_csv_line("-1,2,3,4,5,6,17,BENIGN", r));
  EXPECT_FALSE(parse_csv_line("1.5,2,3,4,5,6,17,BENIGN", r));
  EXPECT_FALSE(parse_csv_line("99999999999,2,3,4,5,6,17,BENIGN", r));  // u32 overflow
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN\r", r));
}

TEST(CsvParse, ZeroPacketFlowIsMalformed) {
  // A flow of no packets carries no weight, yet fed to a full Space-Saving
  // summary it would still evict a monitored key.
  FlowRecord r;
  EXPECT_FALSE(parse_csv_line("1,2,0,0,5,6,17,BENIGN", r));
  EXPECT_FALSE(parse_csv_line("1,2,64,0,5,6,17,DDoS", r));
  EXPECT_TRUE(parse_csv_line("1,2,64,1,5,6,17,BENIGN", r));
  EXPECT_EQ(r.packets, 1u);
  std::ostringstream os;
  os << kCsvHeader << "\n";
  os << "1,2,64,1,100,100,17,BENIGN\n";
  os << "3,2,0,0,200,200,17,DDoS\n";
  os << "4,2,64,1,300,300,17,BENIGN\n";
  std::istringstream is(os.str());
  std::vector<std::uint32_t> sources;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { sources.push_back(rec.src); });
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(sources, (std::vector<std::uint32_t>{1, 4}));
}

TEST(FlowRecordDeathTest, ZeroPacketRecordIsRejectedAtIngest) {
  // A record built in code skips the CSV reader's check above; the
  // analyzer must not stage its zero count as a Space-Saving weight.
  stream::FlowStreamAnalyzer analyzer(stream::FlowAnalyzerConfig{});
  FlowRecord r = sample_record();
  analyzer.ingest(r);  // a filled-in record is fine
  r.packets = 0;
  EXPECT_DEATH(analyzer.ingest(r),
               "DDPM_CHECK failure:.*FlowRecord.packets must be >= 1");
}

TEST(CsvParse, QuotedFieldsWithCommasAndEscapedQuotes) {
  FlowRecord r;
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"BENIGN\"", r));
  EXPECT_FALSE(r.attack);
  // A quoted label may contain commas without growing the field count.
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"DDoS, stage 2\"", r));
  EXPECT_TRUE(r.attack);
  // Quoting works on numeric fields too.
  EXPECT_TRUE(parse_csv_line("\"1\",\"2\",3,4,5,6,17,BENIGN", r));
  EXPECT_EQ(r.src, 1u);
  EXPECT_EQ(r.dst, 2u);
  // Doubled quotes escape a literal quote inside a quoted field.
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"say \"\"hi\"\"\"", r));
  EXPECT_TRUE(r.attack);
  // Unterminated quote, junk after the closing quote, quoted-empty label.
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"oops", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"x\"y", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,\"\"", r));
}

TEST(CsvParse, TrailingDelimiterTolerated) {
  FlowRecord r;
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,", r));
  EXPECT_FALSE(r.attack);
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,\"BENIGN\",", r));
  EXPECT_TRUE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,\r", r));
  // But only ONE trailing delimiter — more than that is a ninth field.
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,,", r));
  EXPECT_FALSE(parse_csv_line("1,2,3,4,5,6,17,BENIGN,x", r));
}

TEST(CsvFuzz, EdgeCaseSerializationsRoundTrip) {
  TraceGenConfig config;
  config.seed = 99;
  config.duration = 30'000;
  config.attack_start = 5'000;
  config.attack_duration = 20'000;
  const std::vector<FlowRecord> records = TraceGenerator(config).generate();
  ASSERT_GT(records.size(), 200u);

  // Re-serialize by hand with deterministic edge-case decorations: CRLF
  // line endings, quoted label (and sometimes src) fields, and trailing
  // delimiters. The parser must see through every combination.
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::ostringstream os;
  os << kCsvHeader << "\r\n";
  for (const FlowRecord& r : records) {
    if (next() % 4 == 0) {
      os << '"' << r.src << '"';
    } else {
      os << r.src;
    }
    os << ',' << r.dst << ',' << r.bytes << ',' << r.packets << ','
       << r.first_ts << ',' << r.last_ts << ',' << unsigned(r.proto) << ',';
    const std::string_view label = r.attack ? "ATTACK" : kBenignLabel;
    switch (next() % 3) {
      case 0: os << label; break;
      case 1: os << '"' << label << '"'; break;
      case 2: os << label << ','; break;  // trailing delimiter
    }
    os << (next() % 2 ? "\r\n" : "\n");
  }
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(parsed, records);
}

TEST(CsvFuzz, GenerateWriteParseRoundTripsByteIdentically) {
  TraceGenConfig config;
  config.seed = 77;
  config.duration = 50'000;
  config.attack_sources = 2'000;
  config.attack_start = 10'000;
  config.attack_duration = 20'000;
  const std::vector<FlowRecord> records = TraceGenerator(config).generate();
  ASSERT_GT(records.size(), 500u);

  std::ostringstream os;
  write_csv(os, records);
  std::istringstream is(os.str());
  std::vector<FlowRecord> parsed;
  const CsvStats stats =
      read_csv(is, [&](const FlowRecord& rec) { parsed.push_back(rec); });
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(parsed, records);

  // And the re-serialization is byte-identical too.
  std::ostringstream os2;
  write_csv(os2, parsed);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(TraceGen, DeterministicAcrossInstances) {
  TraceGenConfig config;
  config.seed = 42;
  config.duration = 30'000;
  const std::vector<FlowRecord> a = TraceGenerator(config).generate();
  const std::vector<FlowRecord> b = TraceGenerator(config).generate();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
}

TEST(TraceGen, TimestampsNonDecreasing) {
  TraceGenConfig config;
  config.seed = 7;
  config.duration = 50'000;
  config.attack_start = 10'000;
  config.attack_duration = 30'000;
  TraceGenerator gen(config);
  FlowRecord r;
  netsim::SimTime prev = 0;
  while (gen.next(r)) {
    EXPECT_GE(r.first_ts, prev);
    EXPECT_GE(r.last_ts, r.first_ts);
    EXPECT_LT(r.first_ts, config.duration);
    prev = r.first_ts;
  }
}

TEST(TraceGen, FloodEmitsDistinctSpoofedSources) {
  TraceGenConfig config;
  config.seed = 3;
  config.duration = 100'000;
  config.attack = AttackShape::kFlood;
  config.attack_sources = 5'000;
  config.attack_start = 0;
  config.attack_duration = 100'000;
  config.attack_rate = 0.2;  // ~20k attack flows > 5k sources: wraps the pool
  config.benign_rate = 0.001;
  TraceGenerator gen(config);
  FlowRecord r;
  std::set<std::uint32_t> attack_sources;
  std::uint64_t attack_flows = 0;
  while (gen.next(r)) {
    if (!r.attack) continue;
    ++attack_flows;
    attack_sources.insert(r.src);
    EXPECT_EQ(r.dst, config.victim);
    EXPECT_GE(r.first_ts, config.attack_start);
    EXPECT_LT(r.first_ts, config.attack_start + config.attack_duration);
  }
  ASSERT_GT(attack_flows, std::uint64_t(config.attack_sources));
  // The pool wrapped, so every one of the configured sources appeared.
  EXPECT_EQ(attack_sources.size(), std::size_t(config.attack_sources));
}

TEST(TraceGen, PulseLeavesGaps) {
  TraceGenConfig config;
  config.seed = 5;
  config.duration = 200'000;
  config.attack = AttackShape::kPulse;
  config.attack_start = 0;
  config.attack_duration = 200'000;
  config.pulse_period = 50'000;
  config.pulse_duty = 0.2;
  config.benign_rate = 0.0001;
  TraceGenerator gen(config);
  FlowRecord r;
  while (gen.next(r)) {
    if (!r.attack) continue;
    // Attack flows appear only in the first 20% of each period.
    const netsim::SimTime phase = r.first_ts % config.pulse_period;
    EXPECT_LT(phase, netsim::SimTime(0.2 * double(config.pulse_period)) + 1);
  }
}

TEST(TraceGen, ScrambleIsInjectiveOnSample) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    seen.insert(TraceGenerator::scramble(i));
  }
  EXPECT_EQ(seen.size(), 100'000u);
}

TEST(TraceGen, BenignOnlyHasNoAttackRecords) {
  TraceGenConfig config;
  config.seed = 11;
  config.duration = 50'000;
  config.attack = AttackShape::kNone;
  TraceGenerator gen(config);
  FlowRecord r;
  std::uint64_t n = 0;
  while (gen.next(r)) {
    EXPECT_FALSE(r.attack);
    ++n;
  }
  EXPECT_GT(n, 100u);
  EXPECT_EQ(n, gen.emitted());
}

TEST(FlowRecordLayout, StaysPacked) {
  static_assert(sizeof(FlowRecord) == 40);
  static_assert(alignof(FlowRecord) == 8);
}

}  // namespace
}  // namespace ddpm::flow

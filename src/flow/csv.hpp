// Dependency-free CSV ingestion for CIC-DDoS2019-style flow traces.
//
// The wire format is one flow per line:
//
//   src,dst,bytes,packets,first_ts,last_ts,proto,label
//
// with a mandatory header row and a textual label column ("BENIGN" or an
// attack name, as in the CIC-DDoS2019 ground-truth CSVs; anything that is
// not BENIGN is an attack). All other columns are unsigned decimal
// integers, so a generate → write → parse round trip reproduces the
// records byte-identically (tests/test_flow.cpp pins this).
//
// Malformed input never throws mid-stream: a line that does not parse
// (wrong field count, non-numeric field, overflow, trailing garbage, a flow
// of zero packets) is counted in CsvStats::malformed and skipped, because
// real capture files contain truncated tails and corrupt lines. Out-of-order timestamps are
// legal (captures interleave exporters) but counted, since downstream
// windowing folds stragglers into the current window.
//
// Ingestion lives HERE, not in src/stream: the repo linter's
// stream-no-ingest rule keeps <fstream> and string parsing out of the
// sketch library so its hot paths stay pure state updates.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/shard_annotations.hpp"
#include "flow/record.hpp"

namespace ddpm::flow {

inline constexpr std::string_view kCsvHeader =
    "src,dst,bytes,packets,first_ts,last_ts,proto,label";
inline constexpr std::string_view kBenignLabel = "BENIGN";

struct CsvStats {
  std::uint64_t lines = 0;         // data lines seen (header excluded)
  std::uint64_t records = 0;       // successfully parsed
  std::uint64_t malformed = 0;     // skipped lines
  std::uint64_t out_of_order = 0;  // first_ts earlier than its predecessor
  bool header_ok = false;          // first line matched kCsvHeader

  friend bool operator==(const CsvStats&, const CsvStats&) = default;
};

/// Parses one data line (no trailing newline; a trailing '\r' is
/// tolerated). Returns false — leaving `out` unspecified — when the line
/// is malformed.
bool parse_csv_line(std::string_view line, FlowRecord& out);

/// Streams every well-formed record of `in` into `sink` in file order.
/// An empty stream yields zero records and header_ok == false.
using RecordSink = std::function<void(const FlowRecord&)>;
CsvStats read_csv(std::istream& in, const RecordSink& sink);

/// File convenience wrappers. Reading a file that cannot be opened throws
/// std::runtime_error (an absent trace is a configuration error, not a
/// malformed line).
CsvStats read_csv_file(const std::string& path, const RecordSink& sink);
std::vector<FlowRecord> read_csv_file(const std::string& path,
                                      CsvStats* stats = nullptr);

/// Serializes records in the exact format parse_csv_line accepts.
/// DDPM_DET_SINK: the write → parse round trip is pinned byte-identical,
/// so serialization must not observe any nondeterministic order.
DDPM_DET_SINK void write_csv(std::ostream& out,
                             const std::vector<FlowRecord>& records);
void write_csv_file(const std::string& path,
                    const std::vector<FlowRecord>& records);

}  // namespace ddpm::flow

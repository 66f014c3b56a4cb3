#include "flow/csv.hpp"

#include <array>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/parse_number.hpp"

namespace ddpm::flow {

namespace {

/// Splits the next field off `line` into `out` and shrinks `line` to the
/// tail; `more` reports whether a comma was consumed. A field wrapped in
/// double quotes may contain commas, and a doubled `""` inside is an
/// escaped quote — when one occurs the unescaped text lives in `scratch`,
/// which must outlive the returned view. Returns false on a malformed
/// field (unterminated quote, or junk between the closing quote and the
/// next comma).
bool take_field(std::string_view& line, bool& more, std::string& scratch,
                std::string_view& out) {
  if (!line.empty() && line.front() == '"') {
    bool escaped = false;
    std::size_t i = 1;
    for (; i < line.size(); ++i) {
      if (line[i] != '"') continue;
      if (i + 1 < line.size() && line[i + 1] == '"') {
        escaped = true;
        ++i;  // consume the doubled quote
        continue;
      }
      break;  // lone quote closes the field
    }
    if (i >= line.size()) return false;  // unterminated quote
    const std::string_view body = line.substr(1, i - 1);
    const std::string_view rest = line.substr(i + 1);
    if (!rest.empty() && rest.front() != ',') return false;
    more = !rest.empty();
    line = more ? rest.substr(1) : std::string_view{};
    if (escaped) {
      scratch.clear();
      for (std::size_t j = 0; j < body.size(); ++j) {
        scratch.push_back(body[j]);
        if (body[j] == '"') ++j;  // collapse the doubling
      }
      out = scratch;
    } else {
      out = body;
    }
    return true;
  }
  const std::size_t comma = line.find(',');
  more = comma != std::string_view::npos;
  out = more ? line.substr(0, comma) : line;
  line = more ? line.substr(comma + 1) : std::string_view{};
  return true;
}

}  // namespace

bool parse_csv_line(std::string_view line, FlowRecord& out) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string, 8> scratch;
  std::string_view fields[8];
  bool more = true;
  for (std::size_t i = 0; i < 8; ++i) {
    if (!take_field(line, more, scratch[i], fields[i])) return false;
  }
  // Exactly eight fields. One trailing delimiter (a common exporter
  // artifact) is tolerated, but anything after it is a ninth field.
  if (more && !line.empty()) return false;
  FlowRecord r;
  std::uint32_t proto = 0;
  using core::parse_number;
  if (!parse_number(fields[0], r.src) || !parse_number(fields[1], r.dst) ||
      !parse_number(fields[2], r.bytes) ||
      !parse_number(fields[3], r.packets) ||
      !parse_number(fields[4], r.first_ts) ||
      !parse_number(fields[5], r.last_ts) || !parse_number(fields[6], proto) ||
      r.packets == 0 || proto > 255 || fields[7].empty()) {
    return false;
  }
  r.proto = static_cast<std::uint8_t>(proto);
  r.attack = fields[7] != kBenignLabel;
  out = r;
  return true;
}

CsvStats read_csv(std::istream& in, const RecordSink& sink) {
  CsvStats stats;
  std::string line;
  bool first_line = true;
  netsim::SimTime prev_ts = 0;
  while (std::getline(in, line)) {
    std::string_view view(line);
    if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
    if (first_line) {
      first_line = false;
      if (view == kCsvHeader) {
        stats.header_ok = true;
        continue;  // header row is not a data line
      }
      // Headerless input: fall through and treat it as data.
    }
    if (view.empty()) continue;  // blank lines (trailing newline) are noise
    ++stats.lines;
    FlowRecord record;
    if (!parse_csv_line(view, record)) {
      ++stats.malformed;
      continue;
    }
    if (stats.records > 0 && record.first_ts < prev_ts) ++stats.out_of_order;
    prev_ts = record.first_ts;
    ++stats.records;
    if (sink) sink(record);
  }
  return stats;
}

CsvStats read_csv_file(const std::string& path, const RecordSink& sink) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("flow::read_csv_file: cannot open " + path);
  return read_csv(in, sink);
}

std::vector<FlowRecord> read_csv_file(const std::string& path,
                                      CsvStats* stats) {
  std::vector<FlowRecord> records;
  const CsvStats s = read_csv_file(
      path, [&records](const FlowRecord& r) { records.push_back(r); });
  if (stats != nullptr) *stats = s;
  return records;
}

void write_csv(std::ostream& out, const std::vector<FlowRecord>& records) {
  out << kCsvHeader << '\n';
  for (const FlowRecord& r : records) {
    out << r.src << ',' << r.dst << ',' << r.bytes << ',' << r.packets << ','
        << r.first_ts << ',' << r.last_ts << ',' << unsigned(r.proto) << ','
        << (r.attack ? "ATTACK" : kBenignLabel) << '\n';
  }
}

void write_csv_file(const std::string& path,
                    const std::vector<FlowRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("flow::write_csv_file: cannot open " + path);
  }
  write_csv(out, records);
}

}  // namespace ddpm::flow

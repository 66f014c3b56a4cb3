#include "stream/flow_analyzer.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "core/check.hpp"
#include "core/parallel_runner.hpp"
#include "stream/sketch.hpp"

namespace ddpm::stream {

namespace {

void append_top(std::ostringstream& os, const char* name,
                const std::vector<TopEntry>& entries) {
  os << "  \"" << name << "\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"key\": " << entries[i].key << ", \"count\": " << entries[i].count
       << ", \"error\": " << entries[i].error << "}";
  }
  os << "]";
}

void append_alarm(std::ostringstream& os, const char* name,
                  const std::optional<netsim::SimTime>& t) {
  os << "  \"" << name << "\": ";
  if (t) {
    os << *t;
  } else {
    os << "null";
  }
  os << ",\n";
}

}  // namespace

std::string StreamReport::to_json() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  os << "{\n";
  os << "  \"records\": " << records << ",\n";
  os << "  \"packets\": " << packets << ",\n";
  os << "  \"bytes\": " << bytes << ",\n";
  os << "  \"windows\": " << windows << ",\n";
  append_alarm(os, "detection_time", detection_time);
  append_alarm(os, "entropy_alarm", entropy_alarm);
  append_alarm(os, "share_alarm", share_alarm);
  append_alarm(os, "cusum_alarm", cusum_alarm);
  os << "  \"victim_identified\": " << (victim_identified ? "true" : "false")
     << ",\n";
  os << "  \"victim\": " << victim << ",\n";
  os << "  \"victim_share\": " << victim_share << ",\n";
  os << "  \"last_entropy_bits\": " << last_entropy_bits << ",\n";
  os << "  \"cusum_statistic\": " << cusum_statistic << ",\n";
  os << "  \"memory_bytes\": " << memory_bytes << ",\n";
  os << "  \"peak_buffer_bytes\": " << peak_buffer_bytes << ",\n";
  append_top(os, "top_sources", top_sources);
  os << ",\n";
  append_top(os, "top_dests", top_dests);
  os << "\n}\n";
  return os.str();
}

FlowStreamAnalyzer::Shard::Shard(const FlowAnalyzerConfig& config,
                                 std::uint64_t seed)
    : src_top(config.topk, seed),
      dst_top(config.topk, mix64(seed)),
      win_dst_top(config.topk, mix64(seed)) {}

std::size_t FlowStreamAnalyzer::Shard::memory_bytes() const noexcept {
  return src_top.memory_bytes() + dst_top.memory_bytes() +
         win_dst_top.memory_bytes();
}

FlowStreamAnalyzer::FlowStreamAnalyzer(FlowAnalyzerConfig config)
    : config_(config),
      entropy_(config.entropy_window, config.entropy_buckets,
               mix64(config.seed ^ 0xe117'0b17ULL)) {
  DDPM_CHECK(config_.window > 0, "FlowStreamAnalyzer: window must be positive");
  DDPM_CHECK(config_.shards > 0, "FlowStreamAnalyzer: shards must be positive");
  DDPM_CHECK(config_.cusum_slack_frac >= 0.0,
             "FlowStreamAnalyzer: cusum_slack_frac must be >= 0");
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.emplace_back(config_, mix64(config_.seed + i + 1));
  }
  src_buf_.resize(config_.shards);
  dst_buf_.resize(config_.shards);
}

std::uint32_t FlowStreamAnalyzer::shard_of(std::uint32_t key) const noexcept {
  return range_reduce(mix64(config_.seed ^ key), config_.shards);
}

void FlowStreamAnalyzer::ingest(const flow::FlowRecord& record) {
  DDPM_CHECK(!finished_, "FlowStreamAnalyzer: ingest after finish");
  // The count is a Space-Saving weight: a zero would still evict a key.
  DDPM_CHECK(record.packets >= 1,
             "FlowStreamAnalyzer: FlowRecord.packets must be >= 1");
  const core::WindowIndex w = record.first_ts / config_.window;
  if (open_window_ < w) advance_to(w);

  ++report_.records;
  report_.packets += record.packets;
  report_.bytes += record.bytes;
  win_arrivals_ += record.packets;
  src_buf_[shard_of(record.src)].push_back(Staged{record.src, record.packets});
  dst_buf_[shard_of(record.dst)].push_back(Staged{record.dst, record.packets});
  // One entropy observation per record: flow arrivals, not packets, carry
  // the source-diversity signal (a spoofed flood is many flows).
  entropy_.observe_key(record.src);
}

void FlowStreamAnalyzer::advance_to(core::WindowIndex w) {
  close_window();  // the open window, which may hold records
  // Every window before `w` is empty. A warm-up window is a CUSUM baseline
  // sample, so those are closed one by one (at most warmup_windows).
  while (open_window_ < w && report_.windows < config_.warmup_windows) {
    close_window();
  }
  if (open_window_ == w) return;
  // After warm-up an empty window reads only state that empty windows do
  // not change, and it folds 0 into CUSUM, which cannot raise the
  // statistic (the slack is not negative). So any alarm an empty window
  // can raise, the first one raises: close that one, and fold 0 for each
  // of the rest. A record far in the future costs at most warmup_windows
  // + 2 closes, whatever the gap and whatever the statistic.
  close_window();
  const std::uint64_t rest = w - open_window_;
  if (cusum_) cusum_->fold_zeros(rest);  // reported at the next close
  report_.windows += rest;
  open_window_ = w;
}

void FlowStreamAnalyzer::judge_window(std::uint64_t arrivals) {
  // Saturates for the window holding the last representable tick.
  constexpr netsim::SimTime kLastTick =
      std::numeric_limits<netsim::SimTime>::max();
  const core::WindowIndex last = core::WindowIndex(kLastTick / config_.window);
  const netsim::SimTime window_end =
      open_window_ < last ? netsim::SimTime(open_window_ + 1) * config_.window
                          : kLastTick;

  // Per-window top destination across shards (serial, shard order).
  SpaceSavingTopK::Item best;
  for (const Shard& s : shards_) {
    const SpaceSavingTopK::Item it = s.win_dst_top.top1();
    if (it.count > best.count ||
        (it.count == best.count && it.count > 0 && it.key < best.key)) {
      best = it;
    }
  }

  report_.last_entropy_bits = entropy_.entropy_bits();
  const bool busy = arrivals >= config_.min_window_arrivals;

  if (busy && entropy_.full()) {
    const double h = report_.last_entropy_bits;
    if ((h < config_.entropy_low_bits || h > config_.entropy_high_bits) &&
        !report_.entropy_alarm) {
      report_.entropy_alarm = window_end;
    }
  }

  // Provable share: count - error is a lower bound on the true count.
  const double floor = double(best.count - best.error);
  const double share = arrivals > 0 ? floor / double(arrivals) : 0.0;
  if (busy && share > config_.hh_share && !report_.share_alarm) {
    report_.share_alarm = window_end;
  }

  // CUSUM over the window's top-destination count, baselined on warm-up.
  const double value = double(best.count);
  if (report_.windows < config_.warmup_windows) {
    warmup_sum_ += value;
    if (report_.windows + 1 == config_.warmup_windows) {
      const double mean =
          std::max(1.0, warmup_sum_ / double(config_.warmup_windows));
      cusum_.emplace(mean, config_.cusum_slack_frac * mean,
                     config_.cusum_threshold_frac * mean);
    }
  } else if (cusum_) {
    if (cusum_->fold(value) && !report_.cusum_alarm) {
      report_.cusum_alarm = window_end;
    }
    report_.cusum_statistic = cusum_->statistic();
  }

  if (!report_.detection_time &&
      (report_.entropy_alarm || report_.share_alarm || report_.cusum_alarm)) {
    report_.detection_time = window_end;
    // Name the window's top destination as the victim at first alarm.
    if (best.count > 0) {
      report_.victim_identified = true;
      report_.victim = best.key;
      report_.victim_share = share;
    }
  }
}

void FlowStreamAnalyzer::close_window() {
  std::size_t buffered = 0;
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    buffered += src_buf_[i].capacity() + dst_buf_[i].capacity();
  }
  buffered *= sizeof(Staged);
  report_.peak_buffer_bytes = std::max(report_.peak_buffer_bytes, buffered);

  // Fan the shards across workers: each index touches only shards_[i],
  // src_buf_[i], dst_buf_[i] — disjoint state, no locks needed. Results
  // are merged serially below, so jobs never changes a single byte.
  const core::ParallelRunner runner(config_.jobs);
  // det-taint allowance: each index touches only shard i's sketches and
  // buffers (disjoint state), and judge/merge below run serially in shard
  // order — the dispatch is unobservable in the report bytes.
  runner.for_each_index(  // ddpm-analyze: allow(det-taint)
      config_.shards, [&](std::size_t i) {
    Shard& s = shards_[i];
    for (const Staged& st : src_buf_[i]) s.src_top.offer(st.key, st.weight);
    // In a flood almost every destination record is the victim, so the
    // destination runs are long (on trace_replay_1m, 99 % of the staged
    // entries are merged). Source runs are not: spoofed sources are
    // distinct.
    offer_runs(s.dst_top, dst_buf_[i]);
    offer_runs(s.win_dst_top, dst_buf_[i]);
  });

  judge_window(win_arrivals_);

  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_[i].win_dst_top.clear();
    src_buf_[i].clear();
    dst_buf_[i].clear();
  }
  win_arrivals_ = 0;
  ++open_window_;
  ++report_.windows;
}

std::vector<TopEntry> FlowStreamAnalyzer::merged_top(bool sources,
                                                     std::size_t k) const {
  std::vector<TopEntry> merged;
  for (const Shard& s : shards_) {
    const SpaceSavingTopK& summary = sources ? s.src_top : s.dst_top;
    for (const SpaceSavingTopK::Item& it : summary.top(k)) {
      merged.push_back(TopEntry{it.key, it.count, it.error});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TopEntry& a, const TopEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

std::size_t FlowStreamAnalyzer::memory_bytes() const noexcept {
  std::size_t total = entropy_.memory_bytes();
  for (const Shard& s : shards_) total += s.memory_bytes();
  return total;
}

StreamReport FlowStreamAnalyzer::finish() {
  DDPM_CHECK(!finished_, "FlowStreamAnalyzer: finish called twice");
  close_window();  // flush the open window
  finished_ = true;
  report_.memory_bytes = memory_bytes();
  report_.top_sources = merged_top(true, 10);
  report_.top_dests = merged_top(false, 10);
  return report_;
}

StreamReport replay(flow::TraceGenerator& gen,
                    const FlowAnalyzerConfig& config) {
  FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord record;
  while (gen.next(record)) analyzer.ingest(record);
  return analyzer.finish();
}

StreamReport replay(const std::vector<flow::FlowRecord>& records,
                    const FlowAnalyzerConfig& config) {
  FlowStreamAnalyzer analyzer(config);
  for (const flow::FlowRecord& record : records) analyzer.ingest(record);
  return analyzer.finish();
}

}  // namespace ddpm::stream

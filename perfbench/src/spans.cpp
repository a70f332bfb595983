#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::Setup: return "setup";
    case SpanName::Process: return "process";
    case SpanName::Task: return "task";
    case SpanName::Hash: return "hash";
    case SpanName::Add: return "add";
  }
  return "?";
}

SpanRecorder::SpanRecorder(int nranks, std::size_t keep_per_rank, Clock clock)
    : ranks_(static_cast<std::size_t>(nranks)),
      keep_(keep_per_rank),
      clock_(clock) {
  for (RankState& r : ranks_) {
    r.stack.reserve(16);
    r.recs.reserve(std::min<std::size_t>(keep_, 1 << 16));
  }
}

void SpanRecorder::open(int rank, SpanName name) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const std::int64_t t = clock_();
  std::uint32_t rec = kNoParent;
  if (rs.recs.size() < keep_) {
    rec = static_cast<std::uint32_t>(rs.recs.size());
    SpanRecord r;
    r.start_ns = t;
    r.parent = rs.stack.empty() ? kNoParent : rs.stack.back().rec;
    r.run = run_;
    r.rank = rank;
    r.name = name;
    rs.recs.push_back(r);
  } else {
    ++rs.dropped;
  }
  rs.stack.push_back({t, 0, rec, name});
}

std::int64_t SpanRecorder::close(int rank) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.stack.empty()) throw std::logic_error("span close without open");
  const std::int64_t t = clock_();
  const Frame f = rs.stack.back();
  rs.stack.pop_back();
  const std::int64_t dur = t - f.start;
  SpanTotals& tot = rs.totals[static_cast<std::size_t>(f.name)];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - f.child_ns;
  rs.last_end[static_cast<std::size_t>(f.name)] = t;
  if (!rs.stack.empty()) rs.stack.back().child_ns += dur;
  if (f.rec != kNoParent) rs.recs[f.rec].end_ns = t;
  return t;
}

SpanTotals SpanRecorder::totals(SpanName name) const {
  SpanTotals sum;
  for (const RankState& rs : ranks_) {
    const SpanTotals& t = rs.totals[static_cast<std::size_t>(name)];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

std::int64_t SpanRecorder::last_end(int rank, SpanName name) const {
  return ranks_[static_cast<std::size_t>(rank)]
      .last_end[static_cast<std::size_t>(name)];
}

void SpanRecorder::reset_totals() {
  for (RankState& rs : ranks_) {
    rs.totals = {};
    rs.last_end = {};
  }
}

std::uint64_t SpanRecorder::records_kept() const {
  std::uint64_t n = 0;
  for (const RankState& rs : ranks_) n += rs.recs.size();
  return n;
}

std::uint64_t SpanRecorder::records_dropped() const {
  std::uint64_t n = 0;
  for (const RankState& rs : ranks_) n += rs.dropped;
  return n;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  bool have = false;
  for (const RankState& rs : ranks_) {
    if (!rs.recs.empty() && (!have || rs.recs.front().start_ns < t0)) {
      t0 = rs.recs.front().start_ns;
      have = true;
    }
  }
  out << "{\"fields\": [\"rank\", \"name\", \"run\", \"parent\", "
         "\"start_ns\", \"end_ns\"],\n \"dropped\": "
      << records_dropped() << ",\n \"spans\": [";
  bool first = true;
  for (const RankState& rs : ranks_) {
    for (const SpanRecord& r : rs.recs) {
      out << (first ? "\n  " : ",\n  ") << "[" << r.rank << ", \""
          << span_name(r.name) << "\", " << r.run << ", "
          << (r.parent == kNoParent ? std::int64_t{-1}
                                    : std::int64_t{r.parent})
          << ", " << r.start_ns - t0 << ", "
          << (r.end_ns < 0 ? std::int64_t{-1} : r.end_ns - t0) << "]";
      first = false;
    }
  }
  out << "\n ]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

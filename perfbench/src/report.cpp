#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = xs[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): position i*(n+1)/4.
  auto cut = [&](std::int64_t i) {
    const auto len = static_cast<std::int64_t>(n);
    const std::int64_t m = len + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, len - 1);
    const std::int64_t delta = i * m - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Full-precision rendering of a double ("null" for non-finite values).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += json_number(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace gmb {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int Tracer::Begin(const char* name, std::uint64_t id, double start) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = start;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index, double end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
  // Spans close in LIFO order; tolerate a round root closed early.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, double> Tracer::SelfTimes(int root) const {
  std::map<std::string, double> self;
  if (root < 0) return self;
  // Spans are appended in start order, so a span's ancestors all precede
  // it: one forward pass marks the subtree of `root`.
  std::vector<char> inside(spans_.size(), 0);
  std::vector<double> child_time(spans_.size(), 0.0);
  inside[static_cast<std::size_t>(root)] = 1;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && inside[static_cast<std::size_t>(parent)]) {
      inside[i] = 1;
      child_time[static_cast<std::size_t>(parent)] +=
          spans_[i].end - spans_[i].start;
    }
  }
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
       ++i) {
    if (!inside[i]) continue;
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(span.end - span.start);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"id\":%llu}\n",
                 i, s.name, s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void Checker::Record(const char* name, bool passed,
                     const std::string& detail) {
  auto& count = counts_[name];
  ++count.first;
  if (passed) return;
  ++count.second;
  ++failures_;
  // The first few failures of each check carry enough to debug it.
  if (count.second <= 3 && !inject_)
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name, detail.c_str());
}

void Checker::EqInt(const char* name, std::int64_t actual,
                    std::int64_t expected) {
  if (inject_) expected += 1;
  Record(name, actual == expected,
         std::to_string(actual) + " != " + std::to_string(expected));
}

void Checker::EqStr(const char* name, const std::string& actual,
                    std::string expected) {
  if (inject_) {
    // Swap the first two characters that differ; a digest with all-equal
    // characters gets one appended instead.
    bool swapped = false;
    for (std::size_t i = 1; i < expected.size() && !swapped; ++i) {
      if (expected[i] != expected[0]) {
        std::swap(expected[0], expected[i]);
        swapped = true;
      }
    }
    if (!swapped) expected += "x";
  }
  Record(name, actual == expected, actual + " != " + expected);
}

void Checker::Near(const char* name, double actual, double expected,
                   double rel_tol) {
  if (inject_) expected = expected * (1.0 + 100.0 * rel_tol) + 1e-300;
  const double scale = std::max(std::fabs(actual), std::fabs(expected));
  const bool passed = std::fabs(actual - expected) <= rel_tol * scale;
  char detail[128];
  std::snprintf(detail, sizeof detail, "%.17g vs %.17g (rel tol %g)", actual,
                expected, rel_tol);
  Record(name, passed, detail);
}

void Checker::Le(const char* name, std::int64_t actual, std::int64_t bound) {
  if (inject_) bound = actual - 1;
  Record(name, actual <= bound,
         std::to_string(actual) + " > " + std::to_string(bound));
}

void Checker::Lt(const char* name, double a, double b) {
  if (inject_) std::swap(a, b);
  char detail[128];
  std::snprintf(detail, sizeof detail, "%.17g !< %.17g", a, b);
  Record(name, a < b, detail);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool MoreRounds(const Options& options, double start, int rounds_done) {
  if (rounds_done == 0) return true;
  if (options.trace && rounds_done < 2) return true;
  if (options.small) return false;
  // Traced runs end on a traced round so its spans are the last written.
  if (options.trace && rounds_done % 2 != 0) return true;
  return Now() - start < options.seconds;
}

void ReportRound(const Options& options, int round, bool traced,
                 double setup_s, double run_s) {
  std::fprintf(stderr, "%s round %d%s: set-up %.3f s, run phase %.3f s\n",
               options.workload.c_str(), round, traced ? " (traced)" : "",
               setup_s, run_s);
}

bool TracedRound(const Options& options, int index) {
  return options.trace && index % 2 == 1;
}

}  // namespace gmb

// Shared harness of the GridMarket benchmark: wall clocks, in-memory
// spans, sample statistics, named correctness checks and the result line.
//
// Every workload drives GridMarket only through its public calls and
// times each layer from outside, around the call that enters it. Spans
// are recorded only in traced rounds; untraced rounds pay for nothing
// but the clock reads their end-to-end metrics need.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gm {
class GridMarket;
}

namespace gmb {

/// Seconds on the steady clock since the first call in this process.
double Now();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // spans, journals; inside the checkout
  bool small = false;         // self-test sizes
  bool inject = false;        // self-test: wrong expectations
};

/// Spans kept in memory and written as JSONL at exit. Single-threaded by
/// design: every timed phase of every workload runs on one thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t id = 0;  // job, epoch or round id
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Open a span starting at `start` under the innermost open one;
  /// returns its index, or -1 when tracing is off.
  int Begin(const char* name, std::uint64_t id, double start);
  void End(int index, double end);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (duration minus child spans) summed per span name, over
  /// spans that descend from `root`.
  std::map<std::string, double> SelfTimes(int root) const;
  /// Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer& GlobalTracer();

/// Times one call from outside; when tracing is on, the same two clock
/// reads also make a span.
class Timed {
 public:
  explicit Timed(const char* name, std::uint64_t id = 0)
      : start_(Now()), index_(GlobalTracer().Begin(name, id, start_)) {}
  ~Timed() { (void)Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// The span's index in the tracer, or -1 when tracing is off.
  int index() const { return index_; }
  /// Seconds since construction; the first call closes the span.
  double Stop() {
    if (end_ < 0.0) {
      end_ = Now();
      GlobalTracer().End(index_, end_);
    }
    return end_ - start_;
  }

 private:
  double start_;
  double end_ = -1.0;
  int index_;
};

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);


/// Named correctness checks. With `inject`, every check compares against
/// a deliberately wrong expectation (one micro-dollar off, a swapped
/// digest, a reversed order), so a self-test can prove each one fires.
class Checker {
 public:
  explicit Checker(bool inject) : inject_(inject) {}

  void EqInt(const char* name, std::int64_t actual, std::int64_t expected);
  void EqStr(const char* name, const std::string& actual,
             std::string expected);
  void Near(const char* name, double actual, double expected,
            double rel_tol);
  /// actual <= bound
  void Le(const char* name, std::int64_t actual, std::int64_t bound);
  /// a < b
  void Lt(const char* name, double a, double b);

  bool ok() const { return failures_ == 0; }
  /// name -> {evaluated, failed}
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
  counts() const {
    return counts_;
  }

 private:
  void Record(const char* name, bool passed, const std::string& detail);

  bool inject_;
  std::uint64_t failures_ = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts_;
};

/// Attempted and failed counts of one kind of operation.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct Outcome {
  std::map<std::string, OpCount> ops;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  // Traced runs: run-phase wall time of the untraced rounds, and the root
  // span of the last traced round.
  std::vector<double> untraced_run_s;
  int traced_root = -1;
  // Spans of extra standalone layer calls made only in traced rounds;
  // their time is left out of the tracing overhead.
  std::vector<std::string> probe_spans;
};

/// Peak resident memory of this process, in MB.
double PeakRssMb();

Outcome RunPaperJobs(const Options& options, Checker& checker);
Outcome RunBusyMarket(const Options& options, Checker& checker);
Outcome RunAudit1m(const Options& options, Checker& checker);

/// One price-advice query for host `host`: window statistics, a
/// Normal-model budget for two capacity targets and an AR forecast over
/// the host's own price history, each timed apart.
struct AdviceResult {
  bool ok = false;
  double host_stats_s = 0.0;
  double budget_s = 0.0;
  double forecast_s = 0.0;
};
AdviceResult PriceAdvice(gm::GridMarket& grid, std::size_t host,
                         std::uint64_t id, Checker& checker);

/// Round loop shared by every workload: run whole rounds until `seconds`
/// of wall time have passed since `start`; traced runs alternate an
/// untraced and a traced round and never stop before one of each.
bool MoreRounds(const Options& options, double start, int rounds_done);
/// One progress line per round on standard error.
void ReportRound(const Options& options, int round, bool traced,
                 double setup_s, double run_s);
/// Whether round `index` records spans.
bool TracedRound(const Options& options, int index);

}  // namespace gmb

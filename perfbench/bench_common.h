// Shared pieces of the repository benchmark: run options, the result
// report, exact percentiles from raw samples, the benchmark's own span
// recorder, the APB input data, and the independent group-by every answer
// is checked against.
#ifndef CURE_PERFBENCH_BENCH_COMMON_H_
#define CURE_PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "etl/loader.h"
#include "gen/datasets.h"
#include "query/node_query.h"
#include "schema/cube_schema.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Run options and pinned knobs.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// APB rows are density * 12,393,000 / scale_divisor. The benchmark runs
  /// at 200; the self-test runs at a larger divisor (a tiny input).
  uint64_t scale_divisor = 200;
  /// Self-test hook: perturb one expected aggregate so the checks must fail.
  bool corrupt_expected = false;
  /// Private work directory (created by the caller, removed at exit).
  std::string work_dir;
  /// Directory the traced run writes its span files into.
  std::string out_dir;
};

/// Every program knob the workloads touch, set explicitly so that the
/// library defaults (and the environment overrides some of them consult)
/// cannot change the program under test.
struct Knobs {
  static constexpr double kApbDensity = 4.0;
  /// The budget bench_fig23_24_apb uses at scale 200: 3 * 256 MB / 200.
  static constexpr uint64_t kBuildBudgetBytes = 3ull * (256ull << 20) / 200;
  static constexpr int kBuildThreads = 2;
  static constexpr size_t kBatchRows = 1024;
  static constexpr size_t kScanBufferRecords = 4096;
  static constexpr size_t kSignaturePool = 1 << 20;
  static constexpr double kFactCacheFraction = 1.0;
  /// Budget of the serving-side builds: large enough to stay in memory,
  /// because only in-memory-built cubes reopen from cube.bin.
  static constexpr uint64_t kInMemoryBudgetBytes = 256ull << 20;
};

// ---------------------------------------------------------------------------
// Time, memory and percentiles.

int64_t NowMicros();
/// Microseconds with nanosecond resolution, for per-operation latencies.
double NowUs();

/// Samples this process's resident set and thread count (read-only from
/// /proc/self/status) every 2 ms on a thread of its own, from construction
/// until Stop(), so that a figure covers the timed part of a run and not
/// the high-water mark its set-up left behind.
class ResourceSampler {
 public:
  ResourceSampler();
  ~ResourceSampler() { Stop(); }
  void Stop();
  /// The highest resident set of the sampled span in MB: VmHWM when the
  /// span raised the high-water mark (then it is exact), else the highest
  /// VmRSS sample.
  double peak_rss_mb() const;
  /// The highest thread count sampled, the sampler itself not counted.
  int peak_threads() const { return max_threads_.load(); }
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

 private:
  /// `own_threads`: the sampler's threads alive at the call, not counted.
  void Sample(int own_threads);
  int64_t hwm_start_kb_ = 0;
  int64_t hwm_end_kb_ = 0;
  std::atomic<int64_t> max_rss_kb_{0};
  std::atomic<int> max_threads_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Raw per-operation samples; every percentile is an exact order statistic
/// (linear interpolation between the two nearest ranks), never a bucket
/// bound.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  /// The highest of p99.9 / p99 / p95 / p90 with at least ten samples
  /// beyond it; *name gets its label. False when there are fewer than 40
  /// samples (no percentile above the median is a tail then).
  bool Tail(double* value, std::string* name) const;

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// The benchmark's own spans (traced runs only).
//
// A recorder of its own rather than cure::Tracer: enabling the library
// tracer also arms every span inside the libraries, and a profile=1 reply
// then scans every thread's ring for the request's spans and appends them
// to the reply (TcpLineServer::FormatProfileSection), which would change
// the reply bytes and the serving times the traced run measures.

class Spans {
 public:
  static Spans& Get();
  void Enable() { enabled_ = true; }
  /// Starts a span; returns its id (0 when tracing is off).
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);
  /// Durations, in microseconds, of every finished span called `name`.
  Samples Durations(const std::string& name) const;
  /// Writes every span as Chrome trace_event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    int64_t start_us;
    int64_t end_us;
    int tid;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0)
      : id_(Spans::Get().Begin(name, request)) {}
  ~ScopedSpan() { Finish(); }
  /// Ends the span before the scope does.
  void Finish() {
    Spans::Get().End(id_);
    id_ = 0;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

// ---------------------------------------------------------------------------
// Report: the one JSON line the benchmark prints last.

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the run is reported as incorrect.
  void Wrong(const std::string& what);
  bool correct() const { return wrong_ == 0; }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  /// Prints the JSON object on stdout as the last line.
  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

/// The end-to-end metrics every untraced run prints.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;  ///< ResourceSampler over the timed part
  double throughput_per_s = 0;
  Samples op_us;  ///< per-operation latency samples
  uint64_t cube_bytes = 0;
  /// Label of the operation ("build", "drill query", ...) for the log.
  std::string op_name;
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Names of the per-layer metrics a traced run prints, each with its unit.
/// Layers a workload leaves idle read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
void ReportPerLayer(const std::map<std::string, double>& values,
                    Report* report);

// ---------------------------------------------------------------------------
// Input data: APB-1 rows with string member names on every level.

/// Column (= level) names, dimension by dimension, leaf level first.
extern const std::vector<std::vector<std::string>> kLevelColumns;
extern const std::vector<std::string> kDimNames;

struct ApbData {
  cure::gen::Dataset generated;  ///< generator codes ("gen codes")
  /// Load spec of the CSV: every level column, the dollar_sales measure and
  /// the aggregates sum, count, min and max of it.
  std::string spec_text;
  uint64_t rows() const { return generated.table.num_rows(); }
  int num_dims() const { return generated.schema.num_dims(); }
  /// Generator code of dimension d at level l for a leaf code.
  uint32_t LevelCode(int d, int l, uint32_t leaf) const {
    return generated.schema.dim(d).CodeAt(leaf, l);
  }
};

ApbData MakeData(uint64_t seed, uint64_t scale_divisor);
/// Member name of a generator code, e.g. "class_17".
std::string MemberName(int d, int l, uint32_t code);
/// Writes the rows as CSV (header + one line per row).
bool WriteCsv(const ApbData& data, const std::string& path);

/// Dictionary codes the CSV loader assigns, derived independently: codes
/// are handed out in order of first appearance, row by row.
struct CodeMaps {
  /// code[d][l][gen code] -> loader code.
  std::vector<std::vector<std::vector<uint32_t>>> code;
};
CodeMaps DeriveLoaderCodes(const ApbData& data);
/// True when every dictionary of `loaded` agrees with `maps`.
bool CodesMatchDictionaries(const ApbData& data, const CodeMaps& maps,
                            const cure::etl::LoadedDataset& loaded);

// ---------------------------------------------------------------------------
// Independent group-by.

/// Aggregates of one group, in the spec's order.
struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  void Add(int64_t dollar);
  void Merge(const Agg& other);
};

/// One group of a node: loader codes of the grouping dimensions (ascending
/// dimension order) plus the aggregates.
struct Group {
  std::vector<uint32_t> dims;
  Agg agg;
};

/// A slice predicate in generator codes.
struct GenSlice {
  int dim = 0;
  int level = 0;
  uint32_t code = 0;
};

/// (count, checksum) of a result: the checksum is the order-independent
/// row hash the serving protocol puts in its reply header.
struct Answer {
  uint64_t count = 0;
  uint64_t checksum = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && checksum == o.checksum;
  }
};
uint64_t RowHash(const std::vector<uint32_t>& dims, const Agg& agg);
Answer AnswerOf(const std::vector<Group>& groups);

/// Hash group-by straight over the generated rows, without the cube engine.
/// Nothing is cached: callers group a node once and answer every request on
/// it from the result, so at most one node's groups are held at a time.
class GroupBy {
 public:
  GroupBy(const ApbData* data, const CodeMaps* maps)
      : data_(data), maps_(maps) {}

  /// The groups of one node in generator codes, 16 bits per grouping
  /// dimension packed into a key.
  struct NodeGroups {
    std::vector<int> levels;    ///< per dimension; num_levels means ALL
    std::vector<int> grouping;  ///< grouping dimensions, ascending
    std::vector<uint64_t> keys;
    std::vector<Agg> aggs;
  };
  NodeGroups GroupNode(const std::vector<int>& levels) const;
  /// The groups of `node` that pass `slices`, in loader codes.
  std::vector<Group> Select(const NodeGroups& node,
                            const std::vector<GenSlice>& slices) const;
  std::vector<Group> Node(const std::vector<int>& levels) const {
    return Select(GroupNode(levels), {});
  }
  /// Totals over all rows (the apex).
  Agg Total() const;
  /// Adds rows (generator leaf codes + dollar_sales) to the grouped input.
  void AddRows(const std::vector<uint32_t>& dims,
               const std::vector<int64_t>& measures);

 private:
  const ApbData* data_;
  const CodeMaps* maps_;
  std::vector<uint32_t> extra_dims_;
  std::vector<int64_t> extra_measures_;
};

/// Applies SELECT TOP k BY count with the server's deterministic tie order
/// (ascending loader codes), as the TOPK verb defines it.
std::vector<Group> TopK(std::vector<Group> groups, size_t k);
/// Keeps the groups with count >= min_count.
std::vector<Group> Iceberg(std::vector<Group> groups, int64_t min_count);

// ---------------------------------------------------------------------------
// Requests: protocol lines with their independently computed answers.

struct Request {
  std::string line;
  Answer expected;
  /// Index of the drill session the line comes from.
  size_t session = 0;
  /// For in-process replays: the landed node and its slices (loader codes).
  cure::schema::NodeId node = 0;
  std::vector<cure::query::CureQueryEngine::Slice> slices;
  int64_t min_count = 0;
  size_t topk = 0;
};

/// Turns seeded DrillDownSessions over the loaded schema into request
/// lines and computes each line's answer with `groupby`. A tenth of the
/// steps become TOPK and a tenth ICEBERG / SLICE ... MINSUP over the same
/// node and slices; steps onto nodes with more than 5,000 groups are left
/// out (an interactive drill step reads a bounded node, and the few steps
/// onto near-leaf nodes would otherwise set a run's pace by how many of
/// them a seed happens to draw). With `navigation_verbs` a lattice step is
/// sent as DRILL / ROLLUP, else as QUERY / SLICE only (the verbs the
/// router forwards to every shard).
std::vector<Request> MakeRequests(const cure::schema::CubeSchema& loaded_schema,
                                  const CodeMaps& maps, const GroupBy& groupby,
                                  size_t sessions, size_t steps, uint64_t seed,
                                  bool navigation_verbs);

/// Parses "OK <count> <checksum-hex> ..." reply headers.
bool ParseReplyHeader(const std::string& reply, Answer* answer);

// ---------------------------------------------------------------------------
// Line-protocol client over one loopback connection.

class LineClient {
 public:
  ~LineClient();
  bool Connect(int port);
  /// Sends one line and reads the full reply up to the "." terminator.
  bool Call(const std::string& line, std::string* reply);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Runs `fn` and returns its wall time in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const double start = NowUs();
  fn();
  return NowUs() - start;
}

/// Log line on stderr.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // CURE_PERFBENCH_BENCH_COMMON_H_

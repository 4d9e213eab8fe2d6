#include "bench_common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "gen/random.h"
#include "query/workload.h"
#include "schema/lattice.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"

namespace perfbench {

using cure::schema::NodeId;

// ---------------------------------------------------------------------------
// Time, memory, percentiles.

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowUs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) *
         1e-3;
}

namespace {

/// The value of one "Key:" line of /proc/self/status (kB for the Vm* lines),
/// or -1.
int64_t StatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const size_t key_len = std::strlen(key);
  char line[256];
  int64_t value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::atoll(line + key_len);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

ResourceSampler::ResourceSampler() : hwm_start_kb_(StatusField("VmHWM:")) {
  Sample(/*own_threads=*/0);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample(/*own_threads=*/1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

void ResourceSampler::Sample(int own_threads) {
  const int64_t rss = StatusField("VmRSS:");
  if (rss > max_rss_kb_.load()) max_rss_kb_.store(rss);
  const int threads = static_cast<int>(StatusField("Threads:")) - own_threads;
  if (threads > max_threads_.load()) max_threads_.store(threads);
}

void ResourceSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  Sample(/*own_threads=*/0);
  hwm_end_kb_ = StatusField("VmHWM:");
}

double ResourceSampler::peak_rss_mb() const {
  const int64_t kb =
      hwm_end_kb_ > hwm_start_kb_ ? hwm_end_kb_ : max_rss_kb_.load();
  return static_cast<double>(kb) / 1024.0;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

bool Samples::Tail(double* value, std::string* name) const {
  if (values_.size() < 40) return false;
  static const std::pair<double, const char*> kTails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}};
  for (const auto& [q, label] : kTails) {
    if (static_cast<double>(values_.size()) * (1.0 - q) >= 10.0) {
      *value = Quantile(q);
      *name = label;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Spans.

namespace {
std::atomic<int> next_tid{1};
thread_local int tls_tid = 0;
}  // namespace

Spans& Spans::Get() {
  static Spans* spans = new Spans();
  return *spans;
}

uint64_t Spans::Begin(const char* name, uint64_t request) {
  if (!enabled_) return 0;
  if (tls_tid == 0) tls_tid = next_tid.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, NowMicros(), -1, tls_tid});
  return spans_.size();  // the span's index + 1
}

void Spans::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_us = now;
}

Samples Spans::Durations(const std::string& name) const {
  Samples out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    if (span.end_us >= 0 && name == span.name) {
      out.Add(static_cast<double>(span.end_us - span.start_us));
    }
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_us < 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%" PRId64 ",\"dur\":%" PRId64
                 ",\"args\":{\"request\":%" PRIu64 "}}",
                 first ? "" : ",\n", span.name, span.tid, span.start_us,
                 span.end_us - span.start_us, span.request);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Report.

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Wrong(const std::string& what) {
  if (wrong_ < 10) Log("CHECK FAILED: %s", what.c_str());
  ++wrong_;
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    const double v = std::isfinite(metric.first) ? metric.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Set("setup_s", e2e.setup_s, "s");
  report->Set("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report->Set("throughput_per_s", e2e.throughput_per_s, "1/s");
  report->Set("op_p50_us", e2e.op_us.Median(), "us");
  report->Set("cube_bytes", static_cast<double>(e2e.cube_bytes), "bytes");
  double tail = 0;
  std::string tail_name;
  if (e2e.op_us.Tail(&tail, &tail_name)) {
    Log("%s latency: n=%zu p50=%.1f us %s=%.1f us", e2e.op_name.c_str(),
        e2e.op_us.size(), e2e.op_us.Median(), tail_name.c_str(), tail);
  } else {
    Log("%s latency: n=%zu p50=%.1f us (too few samples for a tail)",
        e2e.op_name.c_str(), e2e.op_us.size(), e2e.op_us.Median());
  }
  Log("setup %.3f s, throughput %.2f /s, cube %" PRIu64 " bytes, rss %.1f MB",
      e2e.setup_s, e2e.throughput_per_s, e2e.cube_bytes, e2e.peak_rss_mb);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // Traced-run throughput (same definition as throughput_per_s); the
      // gap to the untraced runs is the tracing overhead.
      {"trace.throughput_per_s", "1/s"},
      // build_apb
      {"etl.load_s", "s"},
      {"engine.partition_s", "s"},
      {"engine.construct_s", "s"},
      {"engine.merge_s", "s"},
      {"engine.construct_cpu_s", "s"},
      {"cube.persist_s", "s"},
      {"cube.open_s", "s"},
      {"engine.partitions", "count"},
      {"engine.n_rows", "count"},
      {"storage.write_bytes", "bytes"},
      {"storage.read_bytes", "bytes"},
      {"storage.sort_spill_bytes", "bytes"},
      {"cube.tt", "count"},
      {"cube.nt", "count"},
      {"cube.cat", "count"},
      {"cube.relations", "count"},
      // serve_drill
      {"query.engine_us", "us"},
      {"serve.execute_us", "us"},
      {"serve.handle_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.reply_bytes", "bytes"},
      {"serve.queue_wait_us", "us"},
      {"algebra.exact_hits", "count"},
      {"algebra.semantic_hits", "count"},
      {"algebra.misses", "count"},
      {"algebra.probe_useful_ratio", "ratio"},
      {"algebra.evictions", "count"},
      {"storage.read_bytes_per_query", "bytes"},
      {"storage.read_ops_per_query", "count"},
      // cluster_scatter
      {"router.handle_us", "us"},
      {"router.backend_rtt_us", "us"},
      {"router.merge_us", "us"},
      {"router.gathered_rows_per_query", "count"},
      {"router.returned_rows_per_query", "count"},
      {"common.peak_threads", "count"},
      // live_ingest
      {"maintain.append_us", "us"},
      {"storage.fsyncs_per_batch", "count"},
      {"maintain.refresh_ms", "ms"},
      {"maintain.refresh_stats_ms", "ms"},
      {"maintain.delta_refreshes", "count"},
      {"maintain.rebuild_refreshes", "count"},
      {"maintain.skipped_busy", "count"},
      {"algebra.live_hit_ratio", "ratio"},
  };
  return kMetrics;
}

void ReportPerLayer(const std::map<std::string, double>& values,
                    Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    report->Set(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& metric : PerLayerMetrics()) known |= metric.first == name;
    if (!known) Log("internal: per-layer metric %s is not declared", name.c_str());
    Log("layer %-32s %.6g", name.c_str(), value);
  }
}

// ---------------------------------------------------------------------------
// Input data.

const std::vector<std::string> kDimNames = {"product", "customer", "time",
                                            "channel"};
const std::vector<std::vector<std::string>> kLevelColumns = {
    {"code", "class", "group", "family", "line", "division"},
    {"store", "retailer"},
    {"month", "quarter", "year"},
    {"channel_base"},
};

ApbData MakeData(uint64_t seed, uint64_t scale_divisor) {
  ApbData data;
  cure::gen::ApbSpec spec;
  spec.density = Knobs::kApbDensity;
  spec.scale_divisor = scale_divisor;
  spec.seed = seed;
  data.generated = cure::gen::MakeApb(spec);
  std::string text;
  for (size_t d = 0; d < kLevelColumns.size(); ++d) {
    text += "dim " + kDimNames[d];
    for (const std::string& column : kLevelColumns[d]) text += " " + column;
    text += "\n";
  }
  text +=
      "measure dollar_sales\n"
      "agg sum dollar_sales\nagg count\n"
      "agg min dollar_sales\nagg max dollar_sales\n";
  data.spec_text = text;
  return data;
}

std::string MemberName(int d, int l, uint32_t code) {
  return kLevelColumns[d][l] + "_" + std::to_string(code);
}

bool WriteCsv(const ApbData& data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line;
  for (size_t d = 0; d < kLevelColumns.size(); ++d) {
    for (const std::string& column : kLevelColumns[d]) line += column + ",";
  }
  line += "unit_sales,dollar_sales\n";
  std::fputs(line.c_str(), f);
  const cure::schema::FactTable& table = data.generated.table;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    line.clear();
    for (int d = 0; d < data.num_dims(); ++d) {
      const uint32_t leaf = table.dim(d, r);
      for (size_t l = 0; l < kLevelColumns[d].size(); ++l) {
        line += MemberName(d, static_cast<int>(l),
                           data.LevelCode(d, static_cast<int>(l), leaf));
        line += ',';
      }
    }
    line += std::to_string(table.measure(0, r));
    line += ',';
    line += std::to_string(table.measure(1, r));
    line += '\n';
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

CodeMaps DeriveLoaderCodes(const ApbData& data) {
  CodeMaps maps;
  const cure::schema::CubeSchema& schema = data.generated.schema;
  maps.code.resize(data.num_dims());
  std::vector<std::vector<uint32_t>> next(data.num_dims());
  for (int d = 0; d < data.num_dims(); ++d) {
    const int levels = schema.dim(d).num_levels();
    maps.code[d].resize(levels);
    next[d].assign(levels, 0);
    for (int l = 0; l < levels; ++l) {
      maps.code[d][l].assign(schema.dim(d).cardinality(l), UINT32_MAX);
    }
  }
  const cure::schema::FactTable& table = data.generated.table;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (int d = 0; d < data.num_dims(); ++d) {
      const uint32_t leaf = table.dim(d, r);
      for (size_t l = 0; l < maps.code[d].size(); ++l) {
        uint32_t& code =
            maps.code[d][l][data.LevelCode(d, static_cast<int>(l), leaf)];
        if (code == UINT32_MAX) code = next[d][l]++;
      }
    }
  }
  return maps;
}

bool CodesMatchDictionaries(const ApbData& data, const CodeMaps& maps,
                            const cure::etl::LoadedDataset& loaded) {
  for (int d = 0; d < data.num_dims(); ++d) {
    for (size_t l = 0; l < maps.code[d].size(); ++l) {
      const cure::etl::Dictionary& dict = loaded.dictionaries[d][l];
      for (uint32_t gen = 0; gen < maps.code[d][l].size(); ++gen) {
        const uint32_t code = maps.code[d][l][gen];
        if (code == UINT32_MAX) continue;
        if (code >= dict.size() ||
            dict.Decode(code) != MemberName(d, static_cast<int>(l), gen)) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Independent group-by.

void Agg::Add(int64_t dollar) {
  if (count == 0) {
    min = dollar;
    max = dollar;
  } else {
    min = std::min(min, dollar);
    max = std::max(max, dollar);
  }
  sum += dollar;
  ++count;
}

void Agg::Merge(const Agg& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  sum += other.sum;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

namespace {
// The protocol's row hash (ResultSink): one mixing step per value.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}
}  // namespace

uint64_t RowHash(const std::vector<uint32_t>& dims, const Agg& agg) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint32_t v : dims) h = Mix(h, v);
  for (int64_t v : {agg.sum, agg.count, agg.min, agg.max}) {
    h = Mix(h, static_cast<uint64_t>(v));
  }
  return h;
}

Answer AnswerOf(const std::vector<Group>& groups) {
  Answer answer;
  for (const Group& group : groups) {
    ++answer.count;
    answer.checksum ^= RowHash(group.dims, group.agg);
  }
  return answer;
}

GroupBy::NodeGroups GroupBy::GroupNode(const std::vector<int>& levels) const {
  const cure::schema::CubeSchema& schema = data_->generated.schema;
  const cure::schema::FactTable& table = data_->generated.table;
  NodeGroups out;
  out.levels = levels;
  for (int d = 0; d < data_->num_dims(); ++d) {
    if (levels[d] < schema.dim(d).num_levels()) out.grouping.push_back(d);
  }
  std::unordered_map<uint64_t, size_t> index;
  const uint64_t base_rows = table.num_rows();
  const uint64_t rows = base_rows + extra_measures_.size();
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t key = 0;
    for (const int d : out.grouping) {
      const uint32_t leaf =
          r < base_rows ? table.dim(d, r)
                        : extra_dims_[(r - base_rows) * data_->num_dims() + d];
      key = (key << 16) | data_->LevelCode(d, levels[d], leaf);
    }
    auto [slot, inserted] = index.try_emplace(key, out.aggs.size());
    if (inserted) {
      out.keys.push_back(key);
      out.aggs.emplace_back();
    }
    out.aggs[slot->second].Add(r < base_rows ? table.measure(1, r)
                                             : extra_measures_[r - base_rows]);
  }
  return out;
}

std::vector<Group> GroupBy::Select(const NodeGroups& node,
                                   const std::vector<GenSlice>& slices) const {
  const cure::schema::CubeSchema& schema = data_->generated.schema;
  const size_t g = node.grouping.size();
  // Per slice: the key position of its dimension and the map from the
  // node's level to the slice's level.
  std::vector<std::pair<size_t, std::vector<uint32_t>>> slice_maps;
  for (const GenSlice& slice : slices) {
    size_t pos = 0;
    while (pos < g && node.grouping[pos] != slice.dim) ++pos;
    slice_maps.emplace_back(
        pos, pos < g ? schema.dim(slice.dim)
                           .LevelToLevelMap(node.levels[slice.dim], slice.level)
                           .value()
                     : std::vector<uint32_t>{});
  }
  auto code_at = [g](uint64_t key, size_t pos) {
    return static_cast<uint32_t>((key >> (16 * (g - 1 - pos))) & 0xFFFF);
  };
  std::vector<Group> out;
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    bool pass = true;
    for (size_t s = 0; s < slices.size() && pass; ++s) {
      const auto& [pos, map] = slice_maps[s];
      pass = pos < g && map[code_at(node.keys[i], pos)] == slices[s].code;
    }
    if (!pass) continue;
    Group group;
    group.dims.resize(g);
    for (size_t pos = 0; pos < g; ++pos) {
      const int d = node.grouping[pos];
      group.dims[pos] = maps_->code[d][node.levels[d]][code_at(node.keys[i], pos)];
    }
    group.agg = node.aggs[i];
    out.push_back(std::move(group));
  }
  return out;
}

Agg GroupBy::Total() const {
  std::vector<int> apex(data_->num_dims());
  for (int d = 0; d < data_->num_dims(); ++d) {
    apex[d] = data_->generated.schema.dim(d).num_levels();
  }
  const NodeGroups grouped = GroupNode(apex);
  return grouped.aggs.empty() ? Agg{} : grouped.aggs[0];
}

void GroupBy::AddRows(const std::vector<uint32_t>& dims,
                      const std::vector<int64_t>& measures) {
  extra_dims_.insert(extra_dims_.end(), dims.begin(), dims.end());
  extra_measures_.insert(extra_measures_.end(), measures.begin(),
                         measures.end());
}

std::vector<Group> TopK(std::vector<Group> groups, size_t k) {
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.agg.count != b.agg.count) return a.agg.count > b.agg.count;
    return a.dims < b.dims;
  });
  if (groups.size() > k) groups.resize(k);
  return groups;
}

std::vector<Group> Iceberg(std::vector<Group> groups, int64_t min_count) {
  std::vector<Group> out;
  for (Group& group : groups) {
    if (group.agg.count >= min_count) out.push_back(std::move(group));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Requests.

namespace {

// The request stream's verb mix and node bound (see MakeRequests).
constexpr double kTopkShare = 0.1;
constexpr double kIcebergShare = 0.1;
constexpr size_t kMaxNodeGroups = 5000;

std::string SliceText(const cure::schema::CubeSchema& schema,
                      const CodeMaps& maps,
                      const cure::query::CureQueryEngine::Slice& slice,
                      std::vector<GenSlice>* gen) {
  // Loader code -> generator code through the independent code maps.
  const std::vector<uint32_t>& codes = maps.code[slice.dim][slice.level];
  uint32_t gen_code = 0;
  while (gen_code < codes.size() && codes[gen_code] != slice.code) ++gen_code;
  gen->push_back(GenSlice{slice.dim, slice.level, gen_code});
  return schema.dim(slice.dim).level(slice.level).name + "=" +
         MemberName(slice.dim, slice.level, gen_code);
}

}  // namespace

std::vector<Request> MakeRequests(const cure::schema::CubeSchema& schema,
                                  const CodeMaps& maps, const GroupBy& groupby,
                                  size_t sessions, size_t steps, uint64_t seed,
                                  bool navigation_verbs) {
  const cure::schema::Lattice lattice(&schema);
  const cure::schema::NodeIdCodec& codec = lattice.codec();
  const std::vector<cure::query::DrillSession> drills =
      cure::query::DrillDownSessions(schema, sessions, steps, seed);
  cure::gen::Rng rng(seed ^ 0x5eedf00dull);
  std::vector<Request> out;
  std::vector<std::vector<GenSlice>> gen_slices;
  for (size_t s = 0; s < drills.size(); ++s) {
    const cure::query::DrillSession& session = drills[s];
    NodeId prev = 0;
    for (size_t i = 0; i < session.size(); ++i) {
      const cure::query::DrillStep& step = session[i];
      Request request;
      request.session = s;
      request.node = step.node;
      request.slices = step.slices;
      gen_slices.emplace_back();
      std::string slice_text;
      for (const auto& slice : step.slices) {
        slice_text += " " + SliceText(schema, maps, slice, &gen_slices.back());
      }
      const std::string spec =
          cure::serve::FormatNodeSpec(schema, codec, step.node);
      // The verb: a TOPK / iceberg share, else the lattice step itself.
      const double p = rng.NextDouble();
      if (p < kTopkShare) {
        request.topk = 1 + rng.NextRange(10);
        request.line = "TOPK " + spec + " " + std::to_string(request.topk) +
                       slice_text;
      } else if (p < kTopkShare + kIcebergShare) {
        request.min_count = 2 + static_cast<int64_t>(rng.NextRange(30));
        request.line =
            step.slices.empty()
                ? "ICEBERG " + spec + " " + std::to_string(request.min_count)
                : "SLICE " + spec + slice_text + " MINSUP " +
                      std::to_string(request.min_count);
      } else {
        std::string verb;
        if (navigation_verbs && i > 0 && prev != step.node) {
          const std::vector<int> a = codec.Decode(prev);
          const std::vector<int> b = codec.Decode(step.node);
          for (int d = 0; d < codec.num_dims(); ++d) {
            if (a[d] == b[d]) continue;
            // A drill lowers the level (ALL is the highest level number).
            verb = (b[d] < a[d] ? "DRILL " : "ROLLUP ") +
                   cure::serve::FormatNodeSpec(schema, codec, prev) + " " +
                   schema.dim(d).name();
          }
        }
        request.line = !verb.empty() ? verb + slice_text
                                     : (step.slices.empty() ? "QUERY " : "SLICE ") +
                                           spec + slice_text;
      }
      prev = step.node;
      out.push_back(std::move(request));
    }
  }

  // Answers, one node at a time: group it once, answer every request on
  // it, drop the groups.
  std::map<NodeId, std::vector<size_t>> by_node;
  for (size_t i = 0; i < out.size(); ++i) by_node[out[i].node].push_back(i);
  std::vector<bool> keep(out.size(), true);
  for (const auto& [node, indices] : by_node) {
    const GroupBy::NodeGroups grouped = groupby.GroupNode(codec.Decode(node));
    for (const size_t i : indices) {
      if (grouped.aggs.size() > kMaxNodeGroups) {
        keep[i] = false;
        continue;
      }
      std::vector<Group> groups = groupby.Select(grouped, gen_slices[i]);
      if (out[i].topk > 0) groups = TopK(std::move(groups), out[i].topk);
      if (out[i].min_count > 0) {
        groups = Iceberg(std::move(groups), out[i].min_count);
      }
      out[i].expected = AnswerOf(groups);
    }
  }
  std::vector<Request> kept;
  for (size_t i = 0; i < out.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(out[i]));
  }
  return kept;
}

bool ParseReplyHeader(const std::string& reply, Answer* answer) {
  unsigned long long count = 0;
  unsigned long long checksum = 0;
  if (std::sscanf(reply.c_str(), "OK %llu %llx", &count, &checksum) != 2) {
    return false;
  }
  answer->count = count;
  answer->checksum = checksum;
  return true;
}

// ---------------------------------------------------------------------------
// LineClient.

LineClient::~LineClient() { Close(); }

bool LineClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return true;
}

bool LineClient::Call(const std::string& line, std::string* reply) {
  if (fd_ < 0) return false;
  const std::string framed = line + "\n";
  if (!cure::serve::WriteAllToFd(fd_, framed.data(), framed.size())) {
    return false;
  }
  reply->clear();
  // A reply ends with a line holding a lone "."; only the bytes that
  // arrived since the last look are searched again.
  size_t searched = 0;
  char chunk[1 << 16];
  while (true) {
    const size_t from = searched >= 2 ? searched - 2 : 0;
    const size_t end = buffer_.find("\n.\n", from);
    if (end != std::string::npos) {
      reply->assign(buffer_, 0, end + 3);
      buffer_.erase(0, end + 3);
      return true;
    }
    searched = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void LineClient::Close() {
  if (fd_ >= 0) {
    const char quit[] = "QUIT\n";
    cure::serve::WriteAllToFd(fd_, quit, sizeof(quit) - 1);
    ::close(fd_);
  }
  fd_ = -1;
  buffer_.clear();
}

void Log(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[perfbench] ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

}  // namespace perfbench

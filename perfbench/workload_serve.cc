// serve_drill: analyst drill-down sessions against one served cube.
//
// A persisted APB cube is opened the way cure_serve opens it (disk-resident
// node relations, dictionary-decoded replies) behind a TcpLineServer on an
// ephemeral loopback port with 2 workers and the semantic result cache on,
// its budget below the working set of the sessions. Two client connections
// replay seeded DrillDownSessions as DRILL / ROLLUP / SLICE lines with a
// share of TOPK and ICEBERG, each waiting for its reply (a closed loop).

#include <atomic>
#include <thread>

#include "common/metrics.h"
#include "tools/tool_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr size_t kSessions = 384;
constexpr size_t kStepsPerSession = 10;
/// Cache budget as a share of the sessions' distinct-result bytes.
constexpr double kCacheShare = 0.25;

struct ClientResult {
  Samples latency_us;
  Samples reply_bytes;
  // From the profile=1 stage line of each reply (traced runs only): the
  // server's queue wait, its own execute time, and the rest of the round
  // trip (socket, framing, parsing, the client), all of the same request.
  Samples queue_wait_us;
  Samples execute_us;
  Samples transport_us;
  uint64_t done = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
};

/// Size of the QueryResult the semantic cache holds for `count` rows of
/// `grouping` dimensions (QueryResult::ByteSize's accounting).
uint64_t ResultBytes(uint64_t count, int grouping, int num_aggregates) {
  return sizeof(cure::serve::QueryResult) +
         count * (sizeof(cure::query::ResultSink::Row) +
                  4ull * static_cast<uint64_t>(grouping) +
                  8ull * static_cast<uint64_t>(num_aggregates));
}

int64_t ProfileField(const std::string& reply, const std::string& key) {
  const size_t pos = reply.find(" " + key + "=");
  if (pos == std::string::npos) return -1;
  return std::atoll(reply.c_str() + pos + key.size() + 2);
}

/// One closed-loop client: replays `requests[i]` for i in its share, in
/// order, round after round, until `stop`.
void RunClient(int port, const std::vector<Request>& requests,
               const std::vector<size_t>& order, bool profile,
               const std::atomic<bool>* stop, ClientResult* out) {
  LineClient client;
  if (!client.Connect(port)) {
    ++out->failed;
    return;
  }
  std::string reply;
  size_t next = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const Request& request = requests[order[next]];
    next = (next + 1) % order.size();
    const std::string line =
        profile ? request.line + " profile=1" : request.line;
    const double t0 = NowUs();
    const bool ok = client.Call(line, &reply);
    const double t1 = NowUs();
    Answer got;
    if (!ok || !ParseReplyHeader(reply, &got)) {
      ++out->failed;
      if (!ok) client.Connect(port);
      continue;
    }
    ++out->done;
    out->latency_us.Add(t1 - t0);
    out->reply_bytes.Add(static_cast<double>(reply.size()));
    if (profile) {
      const int64_t wait = ProfileField(reply, "queue_wait_us");
      const int64_t total = ProfileField(reply, "total_us");
      const int64_t encode = ProfileField(reply, "encode_us");
      if (wait >= 0 && total >= 0 && encode >= 0) {
        out->queue_wait_us.Add(static_cast<double>(wait));
        out->execute_us.Add(static_cast<double>(total));
        out->transport_us.Add(t1 - t0 - static_cast<double>(wait + total + encode));
      }
    }
    if (!(got == request.expected)) {
      if (out->wrong++ == 0) out->first_wrong = request.line;
    }
  }
}

}  // namespace

int RunServeDrill(const Options& options, int64_t start_us, Report* report) {
  LoadedInput input;
  if (!LoadInput(options, report, &input)) return 1;
  const std::string dir = options.work_dir + "/cube";
  {
    cure::Result<std::unique_ptr<cure::engine::CureCube>> cube =
        cure::engine::BuildCure(
            input.loaded->schema,
            cure::engine::FactInput{.table = &input.loaded->table},
            PinnedBuildOptions(options, Knobs::kInMemoryBudgetBytes));
    if (!cube.ok()) {
      Log("build: %s", cube.status().ToString().c_str());
      return 1;
    }
    const cure::Status persisted =
        PersistCubeDir(dir, input.loaded->schema, input.loaded->table,
                       cube->get(), input.loaded->dictionaries);
    if (!persisted.ok()) {
      Log("persist: %s", persisted.ToString().c_str());
      return 1;
    }
  }
  input.loaded.reset();  // serving reads the cube directory only
  cure::Result<std::unique_ptr<cure::tools::OpenedCube>> opened =
      cure::tools::OpenCubeDir(dir);
  if (!opened.ok()) {
    Log("open: %s", opened.status().ToString().c_str());
    return 1;
  }
  const cure::tools::OpenedCube& cube = **opened;

  std::vector<Request> requests =
      MakeRequests(cube.schema, input.maps, *input.groupby, kSessions,
                   kStepsPerSession, options.seed, /*navigation_verbs=*/true);
  if (options.corrupt_expected) requests[0].expected.count += 1;

  // The cache budget is a fixed share of the distinct results the sessions
  // touch, so hits, derivations and evictions all occur.
  std::map<std::string, uint64_t> distinct;
  for (const Request& request : requests) {
    if (request.topk > 0 || request.min_count > 0) continue;
    std::string key = std::to_string(request.node);
    for (const auto& slice : request.slices) {
      key += ":" + std::to_string(slice.dim) + "." + std::to_string(slice.level) +
             "." + std::to_string(slice.code);
    }
    int grouping = 0;
    const std::vector<int> levels = cube.cube->store().codec().Decode(request.node);
    for (int d = 0; d < cube.schema.num_dims(); ++d) {
      grouping += levels[d] < cube.schema.dim(d).num_levels();
    }
    distinct[key] = ResultBytes(request.expected.count, grouping,
                                cube.schema.num_aggregates());
  }
  uint64_t working_set = 0;
  for (const auto& [key, bytes] : distinct) working_set += bytes;
  const uint64_t cache_bytes =
      static_cast<uint64_t>(static_cast<double>(working_set) * kCacheShare);

  cure::Result<std::unique_ptr<cure::serve::CubeServer>> server =
      cure::serve::CubeServer::Create(
          cube.cube.get(), PinnedServerOptions(kServerWorkers, cache_bytes));
  if (!server.ok()) {
    Log("server: %s", server.status().ToString().c_str());
    return 1;
  }
  cure::serve::TcpServerOptions tcp_options;
  tcp_options.port = 0;
  tcp_options.max_connections = 8;
  cure::Result<std::unique_ptr<cure::serve::TcpLineServer>> tcp =
      cure::serve::TcpLineServer::Start(
          server->get(), tcp_options,
          cure::tools::MakeDictDecoder(&cube.dictionaries),
          cure::tools::MakeDictResolver(&cube.dictionaries));
  if (!tcp.ok()) {
    Log("listen: %s", tcp.status().ToString().c_str());
    return 1;
  }
  const int port = (*tcp)->port();

  // Client c replays sessions c, c + kClients, ... in their step order.
  std::vector<std::vector<size_t>> orders(kClients);
  for (size_t i = 0; i < requests.size(); ++i) {
    orders[requests[i].session % kClients].push_back(i);
  }
  Log("%zu requests in %zu sessions, %zu distinct results, working set %llu "
      "bytes, cache %llu bytes",
      requests.size(), kSessions, distinct.size(),
      static_cast<unsigned long long>(working_set),
      static_cast<unsigned long long>(cache_bytes));

  EndToEnd e2e;
  e2e.op_name = "drill query";
  e2e.cube_bytes = FileBytes(dir + "/cube.bin");
  e2e.setup_s = EndSetup(options, start_us);

  cure::MetricsRegistry& global = cure::GlobalMetrics();
  const uint64_t read_bytes0 =
      global.counter("cure_storage_read_bytes_total")->value();
  const uint64_t read_ops0 =
      global.counter("cure_storage_read_ops_total")->value();
  ResourceSampler sampler;
  std::atomic<bool> stop{false};
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  const int64_t timed_start = NowMicros();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, port, std::cref(requests),
                         std::cref(orders[c]), options.trace, &stop,
                         &results[c]);
  }
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(options.seconds * 1e6)));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double timed_seconds =
      static_cast<double>(NowMicros() - timed_start) * 1e-6;
  sampler.Stop();
  e2e.peak_rss_mb = sampler.peak_rss_mb();
  const uint64_t read_bytes =
      global.counter("cure_storage_read_bytes_total")->value() - read_bytes0;
  const uint64_t read_ops =
      global.counter("cure_storage_read_ops_total")->value() - read_ops0;

  ClientResult all;
  for (const ClientResult& r : results) {
    all.latency_us.Append(r.latency_us);
    all.reply_bytes.Append(r.reply_bytes);
    all.queue_wait_us.Append(r.queue_wait_us);
    all.execute_us.Append(r.execute_us);
    all.transport_us.Append(r.transport_us);
    all.done += r.done;
    all.failed += r.failed;
    all.wrong += r.wrong;
    if (all.first_wrong.empty()) all.first_wrong = r.first_wrong;
  }
  report->Attempt(all.done + all.failed);
  report->Failed(all.failed);
  if (all.wrong > 0) {
    report->Wrong(std::to_string(all.wrong) +
                  " replies differ from the group-by, first: " +
                  all.first_wrong);
  }
  e2e.op_us = all.latency_us;
  e2e.throughput_per_s = static_cast<double>(all.done) / timed_seconds;

  const cure::algebra::QueryCache::Stats exact = (*server)->cache()->stats();
  const cure::algebra::SemanticCache::Stats semantic =
      (*server)->semantic_cache()->stats();
  Log("cache: %llu exact hits, %llu semantic hits, %llu semantic misses, "
      "%llu evictions",
      static_cast<unsigned long long>(exact.hits),
      static_cast<unsigned long long>(semantic.semantic_hits),
      static_cast<unsigned long long>(semantic.semantic_misses),
      static_cast<unsigned long long>(exact.evictions));

  std::map<std::string, double> layers;
  if (options.trace) {
    layers["trace.throughput_per_s"] = e2e.throughput_per_s;
    layers["serve.reply_bytes"] = all.reply_bytes.Median();
    layers["serve.queue_wait_us"] = all.queue_wait_us.Median();
    layers["serve.execute_us"] = all.execute_us.Median();
    layers["serve.transport_us"] = all.transport_us.Median();
    layers["algebra.exact_hits"] = static_cast<double>(exact.hits);
    layers["algebra.semantic_hits"] = static_cast<double>(semantic.semantic_hits);
    layers["algebra.misses"] = static_cast<double>(
        exact.misses >= semantic.semantic_hits ? exact.misses - semantic.semantic_hits
                                               : 0);
    const uint64_t probes = semantic.semantic_hits + semantic.semantic_misses;
    layers["algebra.probe_useful_ratio"] =
        probes > 0 ? static_cast<double>(semantic.semantic_hits) /
                         static_cast<double>(probes)
                   : 0;
    layers["algebra.evictions"] = static_cast<double>(exact.evictions);
    layers["storage.read_bytes_per_query"] =
        static_cast<double>(read_bytes) / static_cast<double>(all.done);
    layers["storage.read_ops_per_query"] =
        static_cast<double>(read_ops) / static_cast<double>(all.done);

    // In process, one full round of every line in the stream's order, with
    // the cache as the timed part left it: the engine alone (no cache, so
    // every request takes the engine path), then the protocol handler
    // (cache, parsing and encoding included).
    cure::Result<std::unique_ptr<cure::query::CureQueryEngine>> engine =
        cure::query::CureQueryEngine::Create(cube.cube.get(),
                                             Knobs::kFactCacheFraction);
    if (!engine.ok()) {
      Log("engine: %s", engine.status().ToString().c_str());
      return 1;
    }
    (*engine)->set_batch_rows(Knobs::kBatchRows);
    const int count_aggregate = (*server)->count_aggregate();
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& request = requests[i];
      cure::query::ResultSink sink(/*retain=*/request.topk > 0);
      ScopedSpan span("query.engine", i + 1);
      const cure::Status status = (*engine)->QueryNodeSlicedIceberg(
          request.node, request.slices, count_aggregate, request.min_count,
          &sink);
      span.Finish();
      if (!status.ok()) report->Wrong("engine: " + status.ToString());
      if (request.topk == 0 &&
          !(Answer{sink.count(), sink.checksum()} == request.expected)) {
        report->Wrong("engine answer differs from the group-by: " + request.line);
      }
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      ScopedSpan span("serve.handle", i + 1);
      const std::string reply = (*tcp)->HandleLine(requests[i].line);
      span.Finish();
      Answer got;
      if (!ParseReplyHeader(reply, &got) || !(got == requests[i].expected)) {
        report->Wrong("handle: " + requests[i].line);
      }
    }
    layers["query.engine_us"] = Spans::Get().Durations("query.engine").Median();
    layers["serve.handle_us"] = Spans::Get().Durations("serve.handle").Median();
  }

  (*tcp)->Stop();
  tcp->reset();
  server->reset();
  SyncWorkDir(options.work_dir);
  if (options.trace) {
    ReportPerLayer(layers, report);
  } else {
    ReportEndToEnd(e2e, report);
  }
  return 0;
}

}  // namespace perfbench

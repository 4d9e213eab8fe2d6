// cluster_scatter: one router over three row-range shards, in one process.
//
// The rows are split into 3 disjoint contiguous ranges, as `cure_tool shard`
// does (one dictionary set, so codes agree across shards). Each shard cube
// is persisted, reopened and served by its own TcpLineServer with 1 worker
// and the cache off. A CureRouter runs behind its own LineTransport; two
// client connections send a seeded mix of QUERY, SLICE, ICEBERG and TOPK,
// each waiting for its reply. Every routed answer must equal the answer
// over the whole table.

#include <atomic>
#include <chrono>
#include <thread>

#include "router/backend_client.h"
#include "router/merge.h"
#include "router/router.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"
#include "tools/tool_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kShards = 3;
// Two closed-loop clients rather than one: a routed query is a chain of
// about 30 context switches, and with one client every hand-off waits for
// an idle vCPU to be woken, a delay that follows the host's load. A second
// chain in flight keeps the vCPUs busy (see README.md, Steadiness).
constexpr int kClients = 2;
constexpr size_t kSessions = 512;
constexpr size_t kStepsPerSession = 8;

struct Shard {
  std::unique_ptr<cure::tools::OpenedCube> cube;
  std::unique_ptr<cure::serve::CubeServer> server;
  std::unique_ptr<cure::serve::TcpLineServer> tcp;
};

/// The line the router forwards to every shard for `request`: iceberg
/// thresholds and TOPK selection are applied after the merge, so shards
/// answer the plain (sliced) query.
std::string BackendLine(const cure::schema::CubeSchema& schema,
                        const Request& request) {
  const cure::schema::NodeIdCodec codec(schema);
  std::vector<std::string> tokens = cure::serve::SplitTokens(request.line);
  std::string line = (request.slices.empty() ? "QUERY " : "SLICE ") +
                     cure::serve::FormatNodeSpec(schema, codec, request.node);
  for (const std::string& token : tokens) {
    if (token.find('=') != std::string::npos) line += " " + token;
  }
  return line;
}

}  // namespace

int RunClusterScatter(const Options& options, int64_t start_us,
                      Report* report) {
  LoadedInput input;
  if (!LoadInput(options, report, &input)) return 1;
  const cure::etl::LoadedDataset& loaded = *input.loaded;
  const cure::schema::CubeSchema& schema = loaded.schema;

  std::vector<Shard> shards(kShards);
  cure::router::ShardMap map;
  const uint64_t total_rows = loaded.table.num_rows();
  const int num_dims = schema.num_dims();
  const int num_measures = schema.num_raw_measures();
  std::vector<uint32_t> dims(num_dims);
  std::vector<int64_t> measures(num_measures);
  uint64_t cube_bytes = 0;
  for (int k = 0; k < kShards; ++k) {
    const uint64_t begin = total_rows * k / kShards;
    const uint64_t end = total_rows * (k + 1) / kShards;
    cure::schema::FactTable part(num_dims, num_measures);
    part.Reserve(end - begin);
    for (uint64_t row = begin; row < end; ++row) {
      for (int d = 0; d < num_dims; ++d) dims[d] = loaded.table.dim(d, row);
      for (int m = 0; m < num_measures; ++m) {
        measures[m] = loaded.table.measure(m, row);
      }
      part.AppendRow(dims.data(), measures.data());
    }
    const std::string dir = options.work_dir + "/shard_" + std::to_string(k);
    {
      cure::Result<std::unique_ptr<cure::engine::CureCube>> cube =
          cure::engine::BuildCure(
              schema, cure::engine::FactInput{.table = &part},
              PinnedBuildOptions(options, Knobs::kInMemoryBudgetBytes));
      if (!cube.ok()) {
        Log("build shard %d: %s", k, cube.status().ToString().c_str());
        return 1;
      }
      const cure::Status persisted =
          PersistCubeDir(dir, schema, part, cube->get(), loaded.dictionaries);
      if (!persisted.ok()) {
        Log("persist shard %d: %s", k, persisted.ToString().c_str());
        return 1;
      }
    }
    cube_bytes += FileBytes(dir + "/cube.bin");
    cure::Result<std::unique_ptr<cure::tools::OpenedCube>> opened =
        cure::tools::OpenCubeDir(dir);
    if (!opened.ok()) {
      Log("open shard %d: %s", k, opened.status().ToString().c_str());
      return 1;
    }
    shards[k].cube = std::move(opened).value();
    cure::Result<std::unique_ptr<cure::serve::CubeServer>> server =
        cure::serve::CubeServer::Create(shards[k].cube->cube.get(),
                                        PinnedServerOptions(1, 0));
    if (!server.ok()) {
      Log("server %d: %s", k, server.status().ToString().c_str());
      return 1;
    }
    shards[k].server = std::move(server).value();
    cure::serve::TcpServerOptions tcp_options;
    tcp_options.port = 0;
    tcp_options.max_connections = 16;
    cure::Result<std::unique_ptr<cure::serve::TcpLineServer>> tcp =
        cure::serve::TcpLineServer::Start(
            shards[k].server.get(), tcp_options,
            cure::tools::MakeDictDecoder(&shards[k].cube->dictionaries),
            cure::tools::MakeDictResolver(&shards[k].cube->dictionaries));
    if (!tcp.ok()) {
      Log("listen %d: %s", k, tcp.status().ToString().c_str());
      return 1;
    }
    shards[k].tcp = std::move(tcp).value();
    map.shards.push_back({cure::router::BackendAddress{
        .host = "127.0.0.1", .port = shards[k].tcp->port()}});
  }

  // The router decodes and re-encodes rows through the shared dictionaries.
  const std::vector<std::vector<cure::etl::Dictionary>>* dictionaries =
      &loaded.dictionaries;
  cure::router::RouterOptions router_options;
  router_options.backend_timeout_seconds = 30.0;
  router_options.health_period_seconds = 0;
  router_options.num_threads = kShards;
  router_options.hedge_seconds = -1;
  router_options.hedge_percentile = 0;
  router_options.retry_budget = 3;
  router_options.backoff_initial_seconds = 0.005;
  router_options.backoff_cap_seconds = 0.25;
  router_options.breaker_failure_threshold = 3;
  router_options.breaker_cooldown_seconds = 2.0;
  router_options.allow_partial = false;
  router_options.slow_query_seconds = 0;
  cure::Result<std::unique_ptr<cure::router::CureRouter>> router =
      cure::router::CureRouter::Create(
          &schema, map, router_options,
          [dictionaries](int d, int l, const std::string& value) {
            return (*dictionaries)[d][l].Lookup(value);
          },
          cure::tools::MakeDictDecoder(dictionaries));
  if (!router.ok()) {
    Log("router: %s", router.status().ToString().c_str());
    return 1;
  }
  cure::serve::LineTransportOptions transport_options;
  transport_options.port = 0;
  transport_options.max_connections = 8;
  cure::Result<std::unique_ptr<cure::serve::LineTransport>> transport =
      cure::serve::LineTransport::Start(
          [raw = router->get()](const std::string& line) {
            return raw->HandleLine(line);
          },
          transport_options);
  if (!transport.ok()) {
    Log("router listen: %s", transport.status().ToString().c_str());
    return 1;
  }

  std::vector<Request> requests =
      MakeRequests(schema, input.maps, *input.groupby, kSessions,
                   kStepsPerSession, options.seed, /*navigation_verbs=*/false);
  if (options.corrupt_expected) requests[0].expected.checksum ^= 1;
  Log("%zu requests, %d shards of about %llu rows", requests.size(), kShards,
      static_cast<unsigned long long>(total_rows / kShards));

  EndToEnd e2e;
  e2e.op_name = "routed query";
  e2e.cube_bytes = cube_bytes;
  e2e.setup_s = EndSetup(options, start_us);

  ResourceSampler sampler;
  struct ClientResult {
    Samples latency_us;
    uint64_t done = 0, failed = 0, wrong = 0;
    std::string first_wrong;
  };
  const int port = (*transport)->port();
  std::vector<ClientResult> results(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  const int64_t timed_start = NowMicros();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& out = results[c];
      LineClient client;
      if (!client.Connect(port)) {
        ++out.failed;
        return;
      }
      std::string reply;
      for (size_t next = c; !stop.load(std::memory_order_relaxed);
           next = (next + kClients) % requests.size()) {
        const Request& request = requests[next];
        const double t0 = NowUs();
        const bool ok = client.Call(request.line, &reply);
        const double t1 = NowUs();
        Answer got;
        if (!ok || !ParseReplyHeader(reply, &got)) {
          ++out.failed;
          if (!ok) client.Connect(port);
          continue;
        }
        ++out.done;
        out.latency_us.Add(t1 - t0);
        if (!(got == request.expected) && out.wrong++ == 0) {
          out.first_wrong = request.line;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(options.seconds * 1e6)));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double timed_seconds =
      static_cast<double>(NowMicros() - timed_start) * 1e-6;
  sampler.Stop();
  e2e.peak_rss_mb = sampler.peak_rss_mb();
  uint64_t done = 0, failed = 0, wrong = 0;
  std::string first_wrong;
  for (const ClientResult& r : results) {
    e2e.op_us.Append(r.latency_us);
    done += r.done;
    failed += r.failed;
    wrong += r.wrong;
    if (first_wrong.empty()) first_wrong = r.first_wrong;
  }
  report->Attempt(done + failed);
  report->Failed(failed);
  if (wrong > 0) {
    report->Wrong(std::to_string(wrong) +
                  " routed replies differ from the whole-table group-by, "
                  "first: " + first_wrong);
  }
  e2e.throughput_per_s = static_cast<double>(done) / timed_seconds;

  std::map<std::string, double> layers;
  if (options.trace) {
    layers["trace.throughput_per_s"] = e2e.throughput_per_s;
    layers["common.peak_threads"] = sampler.peak_threads();
    // In process, over the same requests: the router's handler, each
    // shard's round trip with the line the router forwards, and the merge
    // of the captured shard replies.
    cure::router::BackendClient backend(30.0);
    int count_aggregate = -1;
    for (int y = 0; y < schema.num_aggregates(); ++y) {
      if (schema.aggregate(y).fn == cure::schema::AggFn::kCount) count_aggregate = y;
    }
    const size_t replay = std::min<size_t>(requests.size(), 200);
    Samples gathered, returned;
    for (size_t i = 0; i < replay; ++i) {
      const Request& request = requests[i];
      ScopedSpan span("router.handle", i + 1);
      const std::string routed = (*router)->HandleLine(request.line);
      span.Finish();
      Answer got;
      if (!ParseReplyHeader(routed, &got) || !(got == request.expected)) {
        report->Wrong("router handler: " + request.line);
      }
      returned.Add(static_cast<double>(got.count));

      const std::string line = BackendLine(schema, request);
      std::vector<cure::router::BackendReply> replies;
      for (int k = 0; k < kShards; ++k) {
        ScopedSpan rtt("router.backend_rtt", i + 1);
        cure::Result<cure::router::BackendReply> shard_reply =
            backend.Query(map.shards[k][0], line);
        rtt.Finish();
        if (!shard_reply.ok() || !shard_reply->status.ok()) {
          report->Wrong("shard " + std::to_string(k) + ": " + line);
          continue;
        }
        replies.push_back(std::move(shard_reply).value());
      }
      uint64_t rows = 0;
      for (const auto& r : replies) rows += r.rows.size();
      gathered.Add(static_cast<double>(rows));

      // The merge: rows decoded back to codes, grouped, finished.
      const std::vector<int> levels = cure::schema::NodeIdCodec(schema).Decode(
          request.node);
      std::vector<std::pair<int, int>> columns;
      for (int d = 0; d < schema.num_dims(); ++d) {
        if (levels[d] < schema.dim(d).num_levels()) columns.push_back({d, levels[d]});
      }
      ScopedSpan merge_span("router.merge", i + 1);
      cure::router::PartialMerger merger(schema);
      std::vector<uint32_t> key(columns.size());
      std::vector<int64_t> aggrs(schema.num_aggregates());
      for (const auto& r : replies) {
        for (const std::string& row : r.rows) {
          const std::vector<std::string> fields = cure::serve::SplitTokens(row);
          if (fields.size() != columns.size() + aggrs.size()) continue;
          for (size_t c = 0; c < columns.size(); ++c) {
            const cure::Result<uint32_t> code =
                (*dictionaries)[columns[c].first][columns[c].second].Lookup(
                    fields[c]);
            key[c] = code.ok() ? code.value() : UINT32_MAX;
          }
          for (size_t y = 0; y < aggrs.size(); ++y) {
            aggrs[y] = std::atoll(fields[columns.size() + y].c_str());
          }
          merger.Add(key, aggrs.data());
        }
      }
      cure::query::ResultSink sink(/*retain=*/false);
      const cure::Status merged =
          merger.Finish(count_aggregate, request.min_count, &sink);
      merge_span.Finish();
      if (!merged.ok()) report->Wrong("merge: " + merged.ToString());
    }
    layers["router.handle_us"] = Spans::Get().Durations("router.handle").Median();
    layers["router.backend_rtt_us"] =
        Spans::Get().Durations("router.backend_rtt").Median();
    layers["router.merge_us"] = Spans::Get().Durations("router.merge").Median();
    layers["router.gathered_rows_per_query"] = gathered.Sum() / replay;
    layers["router.returned_rows_per_query"] = returned.Sum() / replay;
  }

  (*transport)->Stop();
  transport->reset();
  router->reset();
  for (Shard& shard : shards) {
    shard.tcp->Stop();
    shard.tcp.reset();
    shard.server.reset();
  }
  SyncWorkDir(options.work_dir);
  if (options.trace) {
    ReportPerLayer(layers, report);
  } else {
    ReportEndToEnd(e2e, report);
  }
  return 0;
}

}  // namespace perfbench

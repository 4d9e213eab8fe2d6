// live_ingest: writes beside reads on a live cube.
//
// An in-memory LiveCube (WAL in the run's work directory, fsync per commit)
// sits behind a CubeServer with the result cache on. One writer appends
// fixed-size seeded row batches and calls Flush() after each one (a delta
// refresh; there is no size or timer trigger). One reader replays drill
// lines over a loopback connection at the same time. After every Flush()
// the apex must equal the base totals plus every row appended so far; at
// the end, sampled nodes must equal the benchmark's own group-by over base
// plus appended rows.

#include <atomic>
#include <thread>

#include "common/metrics.h"
#include "gen/random.h"
#include "maintain/live_cube.h"
#include "tools/tool_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kBatchRows = 512;
constexpr int kServerWorkers = 2;
constexpr size_t kSessions = 48;
constexpr size_t kStepsPerSession = 10;
/// Cache budget (live results are invalidated by every refresh epoch).
constexpr uint64_t kCacheBytes = 16ull << 20;

/// Sums the apex row of a query response into an Agg.
bool ApexTotals(const cure::serve::QueryResponse& response, Agg* out) {
  if (!response.status.ok() || response.result == nullptr ||
      response.result->rows.size() != 1 ||
      response.result->rows[0].aggrs.size() != 4) {
    return false;
  }
  const std::vector<int64_t>& a = response.result->rows[0].aggrs;
  *out = Agg{a[0], a[1], a[2], a[3]};
  return true;
}

}  // namespace

int RunLiveIngest(const Options& options, int64_t start_us, Report* report) {
  LoadedInput input;
  if (!LoadInput(options, report, &input)) return 1;
  const cure::schema::CubeSchema schema = input.loaded->schema;
  const cure::schema::NodeIdCodec codec(schema);

  cure::maintain::MaintainOptions maintain;
  maintain.wal_path = options.work_dir + "/wal.bin";
  maintain.refresh_rows = 1ull << 60;   // Flush() only: no size trigger,
  maintain.refresh_bytes = 1ull << 60;  // no byte trigger,
  maintain.refresh_seconds = 0;         // no timer.
  maintain.build = PinnedBuildOptions(options, Knobs::kInMemoryBudgetBytes);
  maintain.fact_cache_fraction = Knobs::kFactCacheFraction;
  maintain.allow_delta = true;
  maintain.io_retry_attempts = 3;
  maintain.io_retry_backoff_ms = 1;
  maintain.io_retry_backoff_cap_ms = 100;
  cure::Result<std::unique_ptr<cure::maintain::LiveCube>> live =
      cure::maintain::LiveCube::Open(schema, std::move(input.loaded->table),
                                     maintain);
  if (!live.ok()) {
    Log("live cube: %s", live.status().ToString().c_str());
    return 1;
  }
  cure::Result<std::unique_ptr<cure::serve::CubeServer>> server =
      cure::serve::CubeServer::Create(
          live->get(), PinnedServerOptions(kServerWorkers, kCacheBytes));
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
          cure::tools::MakeDictDecoder(&input.loaded->dictionaries),
          cure::tools::MakeDictResolver(&input.loaded->dictionaries));
  if (!tcp.ok()) {
    Log("listen: %s", tcp.status().ToString().c_str());
    return 1;
  }
  // The reader's lines; their answers change with every refresh, so the
  // reader checks that each one is answered, and the writer checks the
  // apex after every refresh.
  const std::vector<Request> requests =
      MakeRequests(schema, input.maps, *input.groupby, kSessions,
                   kStepsPerSession, options.seed, /*navigation_verbs=*/true);

  const ApbData& data = input.data;
  Agg expected_total = input.groupby->Total();
  if (options.corrupt_expected) expected_total.count += 1;
  std::vector<int> apex_levels(schema.num_dims());
  for (int d = 0; d < schema.num_dims(); ++d) {
    apex_levels[d] = schema.dim(d).num_levels();
  }
  const cure::schema::NodeId apex = codec.Encode(apex_levels);
  const uint64_t cube_bytes = (*live)->snapshot()->cube->TotalBytes();

  // Writer step: append one seeded batch, make it visible, check the apex.
  cure::gen::Rng rng(options.seed * 104729 + 7);
  std::vector<uint32_t> gen_dims(schema.num_dims());
  std::vector<uint32_t> codes(schema.num_dims());
  std::vector<uint32_t> added_dims;
  std::vector<int64_t> added_measures;
  Samples append_us, refresh_ms, refresh_stats_ms;
  uint64_t batches = 0, batches_failed = 0, rows_ingested = 0;
  double writer_busy_s = 0;
  auto ingest_batch = [&](bool timed) {
    cure::maintain::RowBatch batch(schema.num_dims(), schema.num_raw_measures());
    std::vector<uint32_t> batch_dims;
    std::vector<int64_t> batch_measures;
    for (uint64_t r = 0; r < kBatchRows; ++r) {
      // Leaf members that exist in the base rows, APB-style dollar sales.
      for (int d = 0; d < schema.num_dims(); ++d) {
        gen_dims[d] = data.generated.table.dim(d, rng.NextRange(data.rows()));
        codes[d] = input.maps.code[d][0][gen_dims[d]];
      }
      const int64_t dollar = (static_cast<int64_t>(rng.NextRange(100)) + 1) *
                             (static_cast<int64_t>(rng.NextRange(50)) + 1);
      batch.Add(codes.data(), &dollar);
      batch_dims.insert(batch_dims.end(), gen_dims.begin(), gen_dims.end());
      batch_measures.push_back(dollar);
    }
    if (timed) ++batches;
    cure::Status appended;
    const double t_append = TimeUs([&] {
      ScopedSpan span("maintain.append", batches);
      appended = (*server)->Append(batch);
    });
    cure::Result<cure::maintain::RefreshStats> refreshed =
        cure::Status::Internal("not run");
    const double t_refresh = TimeUs([&] {
      ScopedSpan span("maintain.refresh", batches);
      if (appended.ok()) refreshed = (*server)->Flush();
    });
    if (!appended.ok() || !refreshed.ok()) {
      Log("append/flush: %s / %s", appended.ToString().c_str(),
          refreshed.status().ToString().c_str());
      if (timed) ++batches_failed;
      return;
    }
    for (const int64_t dollar : batch_measures) expected_total.Add(dollar);
    added_dims.insert(added_dims.end(), batch_dims.begin(), batch_dims.end());
    added_measures.insert(added_measures.end(), batch_measures.begin(),
                          batch_measures.end());
    if (timed) {
      writer_busy_s += (t_append + t_refresh) * 1e-6;
      rows_ingested += kBatchRows;
      append_us.Add(t_append);
      refresh_ms.Add(t_refresh * 1e-3);
      refresh_stats_ms.Add(refreshed->seconds * 1e3);
    }
    cure::serve::QueryRequest query;
    query.node = apex;
    query.retain_rows = true;
    Agg got;
    if (!ApexTotals((*server)->Execute(query), &got) ||
        got.count != expected_total.count ||
        got.sum != expected_total.sum || got.min != expected_total.min ||
        got.max != expected_total.max) {
      report->Wrong("apex after refresh " + std::to_string(batches) +
                    " differs from base plus appended rows");
    }
  };
  // The first refresh materializes the standby replica (a rebuild); users
  // pay it once, so it belongs to set-up.
  ingest_batch(/*timed=*/false);

  EndToEnd e2e;
  e2e.op_name = "live query";
  e2e.cube_bytes = cube_bytes;
  e2e.setup_s = EndSetup(options, start_us);

  cure::MetricsRegistry& global = cure::GlobalMetrics();
  cure::Counter* fsyncs = global.counter("cure_storage_fsync_total");
  const cure::maintain::LiveCube::Counters counters0 = (*live)->counters();
  const cure::algebra::QueryCache::Stats cache0 = (*server)->cache()->stats();
  const cure::algebra::SemanticCache::Stats semantic0 =
      (*server)->semantic_cache()->stats();

  ResourceSampler sampler;
  std::atomic<bool> stop{false};
  // Reader: one closed-loop connection replaying the drill lines.
  Samples reader_us;
  uint64_t reader_done = 0, reader_failed = 0;
  std::thread reader([&] {
    LineClient client;
    if (!client.Connect((*tcp)->port())) {
      ++reader_failed;
      return;
    }
    std::string reply;
    for (size_t next = 0; !stop.load(std::memory_order_relaxed);
         next = (next + 1) % requests.size()) {
      const double t0 = NowUs();
      const bool ok = client.Call(requests[next].line, &reply);
      const double t1 = NowUs();
      Answer got;
      if (!ok || !ParseReplyHeader(reply, &got)) {
        ++reader_failed;
        if (!ok) client.Connect((*tcp)->port());
        continue;
      }
      ++reader_done;
      reader_us.Add(t1 - t0);
    }
  });

  const uint64_t fsyncs0 = fsyncs->value();
  const int64_t timed_start = NowMicros();
  const int64_t timed_end =
      timed_start + static_cast<int64_t>(options.seconds * 1e6);
  while (NowMicros() < timed_end) ingest_batch(/*timed=*/true);
  const double timed_seconds =
      static_cast<double>(NowMicros() - timed_start) * 1e-6;
  stop.store(true);
  reader.join();
  sampler.Stop();
  e2e.peak_rss_mb = sampler.peak_rss_mb();
  const uint64_t fsync_count = fsyncs->value() - fsyncs0;

  // Final check: sampled nodes of the live snapshot against the group-by
  // over base plus appended rows.
  input.groupby->AddRows(added_dims, added_measures);
  {
    std::vector<int> finest(schema.num_dims(), 0);
    std::vector<cure::schema::NodeId> nodes = {apex, codec.Encode(finest)};
    cure::gen::Rng node_rng(options.seed * 31 + 5);
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(
          static_cast<cure::schema::NodeId>(node_rng.NextRange(codec.num_nodes())));
    }
    std::shared_ptr<const cure::maintain::CubeSnapshot> snapshot =
        (*live)->snapshot();
    for (const cure::schema::NodeId node : nodes) {
      cure::query::ResultSink sink(/*retain=*/false);
      const cure::Status status = snapshot->engine->QueryNode(node, &sink);
      const Answer expected = AnswerOf(input.groupby->Node(codec.Decode(node)));
      if (!status.ok() || !(Answer{sink.count(), sink.checksum()} == expected)) {
        report->Wrong("live node " + codec.Name(node, schema) +
                      " differs from the group-by over base plus appended rows");
      }
    }
  }

  report->Attempt(batches + reader_done + reader_failed);
  report->Failed(batches_failed + reader_failed);
  e2e.op_us = reader_us;
  e2e.throughput_per_s =
      writer_busy_s > 0 ? static_cast<double>(rows_ingested) / writer_busy_s : 0;
  Log("%llu batches of %llu rows in %.2f s; reader answered %llu queries",
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(kBatchRows), timed_seconds,
      static_cast<unsigned long long>(reader_done));

  std::map<std::string, double> layers;
  if (options.trace) {
    const cure::maintain::LiveCube::Counters counters = (*live)->counters();
    const cure::algebra::QueryCache::Stats cache = (*server)->cache()->stats();
    const cure::algebra::SemanticCache::Stats semantic =
        (*server)->semantic_cache()->stats();
    layers["trace.throughput_per_s"] = e2e.throughput_per_s;
    layers["maintain.append_us"] = append_us.Median();
    layers["storage.fsyncs_per_batch"] =
        static_cast<double>(fsync_count) / static_cast<double>(batches);
    layers["maintain.refresh_ms"] = refresh_ms.Median();
    layers["maintain.refresh_stats_ms"] = refresh_stats_ms.Median();
    layers["maintain.delta_refreshes"] =
        static_cast<double>(counters.refresh_delta - counters0.refresh_delta);
    layers["maintain.rebuild_refreshes"] =
        static_cast<double>(counters.refresh_rebuild - counters0.refresh_rebuild);
    layers["maintain.skipped_busy"] =
        static_cast<double>(counters.refresh_skipped - counters0.refresh_skipped);
    const uint64_t hits = (cache.hits - cache0.hits) +
                          (semantic.semantic_hits - semantic0.semantic_hits);
    const uint64_t lookups =
        (cache.hits - cache0.hits) + (cache.misses - cache0.misses);
    layers["algebra.live_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  }

  (*tcp)->Stop();
  tcp->reset();
  server->reset();
  live->reset();
  SyncWorkDir(options.work_dir);
  if (options.trace) {
    ReportPerLayer(layers, report);
  } else {
    ReportEndToEnd(e2e, report);
  }
  return 0;
}

}  // namespace perfbench

// build_apb: the paper's external construction path, end to end.
//
// Set-up generates APB-1 rows (density 4, 1/200 scale) and writes them as
// CSV with a string member name on every level. Each timed build then runs
// CSV -> etl load -> external BuildCure (the bench_fig23_24_apb budget,
// below the fact table, two construction threads) -> PersistPacked plus
// dictionaries -> OpenPersisted, and the run reports the median build.
// Serving and routing stay idle.

#include <filesystem>

#include "gen/random.h"
#include "schema/lattice.h"
#include "storage/file_io.h"
#include "tools/tool_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct CounterSnapshot {
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
  uint64_t spill_bytes = 0;
  static CounterSnapshot Take() {
    cure::MetricsRegistry& global = cure::GlobalMetrics();
    CounterSnapshot s;
    s.write_bytes = global.counter("cure_storage_write_bytes_total")->value();
    s.read_bytes = global.counter("cure_storage_read_bytes_total")->value();
    s.spill_bytes =
        global.counter("cure_storage_sort_spill_bytes_total")->value();
    return s;
  }
};

/// A node to check after every build, with its independently computed
/// answer.
struct CheckedNode {
  cure::schema::NodeId node = 0;
  Answer expected;
};

/// Conservation checks over one node's rows: ΣCOUNT is the row count, ΣSUM
/// the measure totals, MIN / MAX the global extremes.
void CheckConservation(const std::string& label,
                       const std::vector<cure::query::ResultSink::Row>& rows,
                       const Agg& total, Report* report) {
  Agg sum;
  for (const cure::query::ResultSink::Row& row : rows) {
    if (row.aggrs.size() != 4) {
      report->Wrong(label + ": row has " + std::to_string(row.aggrs.size()) +
                    " aggregates");
      return;
    }
    sum.Merge(Agg{row.aggrs[0], row.aggrs[1], row.aggrs[2], row.aggrs[3]});
  }
  if (sum.count != total.count || sum.sum != total.sum ||
      sum.min != total.min || sum.max != total.max) {
    report->Wrong(label + ": node totals (count " + std::to_string(sum.count) +
                  ", sum " + std::to_string(sum.sum) + ", min " +
                  std::to_string(sum.min) + ", max " + std::to_string(sum.max) +
                  ") differ from the rows (" + std::to_string(total.count) +
                  ", " + std::to_string(total.sum) + ", " +
                  std::to_string(total.min) + ", " + std::to_string(total.max) +
                  ")");
  }
}

/// Queries `nodes` on `cube` and checks each against the rows: the
/// conservation totals and the group-by's (count, checksum).
/// With `regions` set, only nodes of its region 0 are checked.
void CheckNodes(const std::string& label, const cure::engine::CureCube* cube,
                const std::vector<CheckedNode>& nodes,
                const cure::schema::NodeIdCodec& codec,
                const cure::schema::CubeSchema& schema, const Agg& total,
                const cure::engine::CureCube* regions, Report* report) {
  cure::Result<std::unique_ptr<cure::query::CureQueryEngine>> engine =
      cure::query::CureQueryEngine::Create(cube, Knobs::kFactCacheFraction);
  if (!engine.ok()) {
    report->Wrong(label + ": query engine: " + engine.status().ToString());
    return;
  }
  (*engine)->set_batch_rows(Knobs::kBatchRows);
  for (const CheckedNode& node : nodes) {
    if (regions != nullptr && regions->NodeRegion(node.node) != 0) continue;
    const std::string what = label + " node " + codec.Name(node.node, schema);
    cure::query::ResultSink sink(/*retain=*/true);
    const cure::Status status = (*engine)->QueryNode(node.node, &sink);
    if (!status.ok()) {
      report->Wrong(what + ": " + status.ToString());
      continue;
    }
    CheckConservation(what, sink.rows(), total, report);
    const Answer got{sink.count(), sink.checksum()};
    if (!(got == node.expected)) {
      report->Wrong(what + ": " + std::to_string(got.count) +
                    " rows, checksum differs from the group-by (" +
                    std::to_string(node.expected.count) + " rows)");
    }
  }
}

}  // namespace

int RunBuildApb(const Options& options, int64_t start_us, Report* report) {
  ApbData data = MakeData(options.seed, options.scale_divisor);
  CodeMaps maps = DeriveLoaderCodes(data);
  GroupBy groupby(&data, &maps);
  const std::string csv = options.work_dir + "/apb.csv";
  if (!WriteCsv(data, csv)) {
    Log("cannot write %s", csv.c_str());
    return 1;
  }
  // Budget scales with the input so the self-test's tiny input still takes
  // the external path.
  const uint64_t budget =
      Knobs::kBuildBudgetBytes * 200 / options.scale_divisor;

  // Nodes checked after every build: the apex, the finest node and two
  // seeded others, each against the totals and the group-by.
  const cure::schema::CubeSchema& gen_schema = data.generated.schema;
  const cure::schema::NodeIdCodec codec(gen_schema);
  std::vector<int> apex(data.num_dims()), finest(data.num_dims(), 0);
  for (int d = 0; d < data.num_dims(); ++d) {
    apex[d] = gen_schema.dim(d).num_levels();
  }
  std::vector<CheckedNode> checked;
  checked.push_back({codec.Encode(apex), {}});
  checked.push_back({codec.Encode(finest), {}});
  cure::gen::Rng rng(options.seed * 7919 + 13);
  for (int i = 0; i < 2; ++i) {
    checked.push_back(
        {static_cast<cure::schema::NodeId>(rng.NextRange(codec.num_nodes())),
         {}});
  }
  for (CheckedNode& node : checked) {
    node.expected = AnswerOf(groupby.Node(codec.Decode(node.node)));
  }
  Agg total = groupby.Total();
  if (options.corrupt_expected) total.sum += 1;

  EndToEnd e2e;
  e2e.op_name = "build";
  e2e.setup_s = EndSetup(options, start_us);

  Samples load_s, partition_s, construct_s, merge_s, construct_cpu_s,
      persist_s, open_s, write_bytes, read_bytes, spill_bytes;
  std::map<std::string, double> layers;
  uint64_t first_cube_bytes = 0;
  double busy_seconds = 0;
  uint64_t rows_built = 0;
  ResourceSampler sampler;
  const int64_t timed_start = NowMicros();
  for (int build = 0;; ++build) {
    if (build > 0 &&
        static_cast<double>(NowMicros() - timed_start) * 1e-6 >= options.seconds) {
      break;
    }
    report->Attempt();
    const std::string dir = options.work_dir + "/cube_" + std::to_string(build);
    const CounterSnapshot before = CounterSnapshot::Take();
    const double t0 = NowUs();
    ScopedSpan build_span("bench.build", static_cast<uint64_t>(build) + 1);

    std::unique_ptr<cure::etl::LoadedDataset> loaded;
    const double t_load = TimeUs([&] {
      ScopedSpan span("etl.load");
      cure::Result<cure::etl::LoadedDataset> result =
          cure::etl::LoadCsvFile(csv, data.spec_text);
      if (result.ok()) {
        loaded = std::make_unique<cure::etl::LoadedDataset>(
            std::move(result).value());
      } else {
        Log("load: %s", result.status().ToString().c_str());
      }
    });
    if (loaded == nullptr) {
      report->Failed();
      continue;
    }
    // The external path reads the fact table in relation form: the
    // cube directory's fact.bin, written first.
    cure::Result<cure::storage::Relation> fact =
        cure::Status::Internal("not written");
    const double t_fact = TimeUs([&] {
      ScopedSpan span("storage.write_fact");
      fact = WriteFactRelation(dir, loaded->table);
    });
    cure::Result<std::unique_ptr<cure::engine::CureCube>> cube =
        cure::Status::Internal("not built");
    if (fact.ok()) {
      ScopedSpan span("engine.build_cure");
      cube = cure::engine::BuildCure(
          loaded->schema, cure::engine::FactInput{.relation = &fact.value()},
          PinnedBuildOptions(options, budget));
    } else {
      cube = fact.status();
    }
    if (!cube.ok()) {
      Log("build: %s", cube.status().ToString().c_str());
      report->Failed();
      continue;
    }
    cure::Status persisted;
    const double t_persist = t_fact + TimeUs([&] {
      ScopedSpan span("cube.persist");
      persisted = PersistCubeFiles(dir, loaded->schema, cube->get(),
                                   loaded->dictionaries);
    });
    std::unique_ptr<cure::tools::OpenedCube> opened;
    const double t_open = TimeUs([&] {
      ScopedSpan span("cube.open");
      if (!persisted.ok()) return;
      cure::Result<std::unique_ptr<cure::tools::OpenedCube>> result =
          cure::tools::OpenCubeDir(dir);
      if (result.ok()) {
        opened = std::move(result).value();
      } else {
        persisted = result.status();
      }
    });
    const double t1 = NowUs();
    build_span.Finish();
    if (!persisted.ok() || opened == nullptr) {
      Log("persist/open: %s", persisted.ToString().c_str());
      report->Failed();
      continue;
    }
    const CounterSnapshot after = CounterSnapshot::Take();
    const double build_us = t1 - t0;
    e2e.op_us.Add(build_us);
    busy_seconds += build_us * 1e-6;
    rows_built += loaded->table.num_rows();

    const cure::engine::BuildStats& stats = (*cube)->stats();
    load_s.Add(t_load * 1e-6);
    partition_s.Add(stats.partition_stage.wall_seconds);
    construct_s.Add(stats.construct_stage.wall_seconds);
    merge_s.Add(stats.merge_stage.wall_seconds);
    construct_cpu_s.Add(stats.construct_stage.cpu_seconds);
    persist_s.Add(t_persist * 1e-6);
    open_s.Add(t_open * 1e-6);
    write_bytes.Add(static_cast<double>(after.write_bytes - before.write_bytes));
    read_bytes.Add(static_cast<double>(after.read_bytes - before.read_bytes));
    spill_bytes.Add(static_cast<double>(after.spill_bytes - before.spill_bytes));
    layers["engine.partitions"] = static_cast<double>(stats.num_partitions);
    layers["engine.n_rows"] = static_cast<double>(stats.n_rows);
    layers["cube.tt"] = static_cast<double>(stats.tt);
    layers["cube.nt"] = static_cast<double>(stats.nt);
    layers["cube.cat"] = static_cast<double>(stats.cat);
    layers["cube.relations"] = static_cast<double>(stats.num_relations);
    if (!stats.external) report->Wrong("build did not take the external path");

    // Checks, outside the timed part: the cube file is deterministic, and
    // the checked nodes of the reopened cube match the rows.
    const uint64_t cube_bytes = FileBytes(dir + "/cube.bin");
    if (build == 0) first_cube_bytes = cube_bytes;
    if (cube_bytes != first_cube_bytes || cube_bytes == 0) {
      report->Wrong("cube.bin size changed between builds");
    }
    // The built cube answers every checked node. The reopened one answers
    // only nodes built from the sound partitions (region 0): cube.bin does
    // not carry node N, so row-ids into N do not resolve after a reopen.
    CheckNodes("build " + std::to_string(build), cube->get(), checked, codec,
               gen_schema, total, /*regions=*/nullptr, report);
    CheckNodes("reopened build " + std::to_string(build), opened->cube.get(),
               checked, codec, gen_schema, total, /*regions=*/cube->get(),
               report);
    opened.reset();
    cube->reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  sampler.Stop();
  e2e.peak_rss_mb = sampler.peak_rss_mb();
  e2e.cube_bytes = first_cube_bytes;
  e2e.throughput_per_s =
      busy_seconds > 0 ? static_cast<double>(rows_built) / busy_seconds : 0;
  SyncWorkDir(options.work_dir);

  if (!options.trace) {
    ReportEndToEnd(e2e, report);
    return 0;
  }
  layers["trace.throughput_per_s"] = e2e.throughput_per_s;
  layers["etl.load_s"] = load_s.Median();
  layers["engine.partition_s"] = partition_s.Median();
  layers["engine.construct_s"] = construct_s.Median();
  layers["engine.merge_s"] = merge_s.Median();
  layers["engine.construct_cpu_s"] = construct_cpu_s.Median();
  layers["cube.persist_s"] = persist_s.Median();
  layers["cube.open_s"] = open_s.Median();
  layers["storage.write_bytes"] = write_bytes.Median();
  layers["storage.read_bytes"] = read_bytes.Median();
  layers["storage.sort_spill_bytes"] = spill_bytes.Median();
  Log("builds: %zu, median %.3f s", e2e.op_us.size(), e2e.op_us.Median() * 1e-6);
  ReportPerLayer(layers, report);
  return 0;
}

}  // namespace perfbench

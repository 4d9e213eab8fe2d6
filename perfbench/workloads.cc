#include "workloads.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include "etl/schema_io.h"
#include "query/node_query.h"
#include "storage/file_io.h"
#include "storage/relation.h"

namespace perfbench {

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "build_apb") return RunBuildApb;
  if (name == "serve_drill") return RunServeDrill;
  if (name == "cluster_scatter") return RunClusterScatter;
  if (name == "live_ingest") return RunLiveIngest;
  return nullptr;
}

cure::engine::CureOptions PinnedBuildOptions(const Options& options,
                                             uint64_t budget) {
  cure::engine::CureOptions build;
  build.signature_pool_capacity = Knobs::kSignaturePool;
  build.memory_budget_bytes = budget;
  build.dims_in_nt = false;
  build.flat = false;
  build.min_support = 1;
  build.plan_style = cure::plan::ExecutionPlan::Style::kTall;
  build.sort_policy = cure::engine::SortPolicy::kAuto;
  build.batch_rows = Knobs::kBatchRows;
  build.scan_buffer_records = Knobs::kScanBufferRecords;
  build.temp_dir = options.work_dir;
  build.num_threads = Knobs::kBuildThreads;
  build.force_external = false;
  build.trace = false;
  return build;
}

cure::serve::CubeServerOptions PinnedServerOptions(int threads,
                                                   uint64_t cache_bytes) {
  cure::serve::CubeServerOptions server;
  server.num_threads = threads;
  server.max_inflight = 128;
  server.cache_bytes = cache_bytes;
  server.cache_shards = 8;
  server.semantic_cache = true;
  server.semantic_min_scan_rows = 4096;
  server.fact_cache_fraction = Knobs::kFactCacheFraction;
  server.default_deadline_seconds = 0;
  server.slow_query_seconds = 0;
  server.batch_rows = Knobs::kBatchRows;
  return server;
}

cure::Result<cure::storage::Relation> WriteFactRelation(
    const std::string& dir, const cure::schema::FactTable& table) {
  CURE_RETURN_IF_ERROR(cure::storage::EnsureDir(dir));
  CURE_ASSIGN_OR_RETURN(
      cure::storage::Relation fact,
      cure::storage::Relation::CreateFile(dir + "/fact.bin", table.RecordSize()));
  CURE_RETURN_IF_ERROR(table.WriteTo(&fact));
  CURE_RETURN_IF_ERROR(fact.Seal());
  return fact;
}

cure::Status PersistCubeFiles(
    const std::string& dir, const cure::schema::CubeSchema& schema,
    cure::engine::CureCube* cube,
    const std::vector<std::vector<cure::etl::Dictionary>>& dictionaries) {
  CURE_RETURN_IF_ERROR(cure::storage::EnsureDir(dir));
  CURE_RETURN_IF_ERROR(cube->mutable_store().PersistPacked(dir + "/cube.bin"));
  CURE_RETURN_IF_ERROR(cure::etl::WriteStringToFile(
      dir + "/schema.txt", cure::etl::SerializeSchema(schema)));
  for (size_t d = 0; d < dictionaries.size(); ++d) {
    for (size_t l = 0; l < dictionaries[d].size(); ++l) {
      CURE_RETURN_IF_ERROR(cure::etl::WriteStringToFile(
          dir + "/dict_" + std::to_string(d) + "_" + std::to_string(l) + ".txt",
          dictionaries[d][l].Serialize()));
    }
  }
  return cure::Status::OK();
}

cure::Status PersistCubeDir(
    const std::string& dir, const cure::schema::CubeSchema& schema,
    const cure::schema::FactTable& table, cure::engine::CureCube* cube,
    const std::vector<std::vector<cure::etl::Dictionary>>& dictionaries) {
  CURE_RETURN_IF_ERROR(WriteFactRelation(dir, table).status());
  return PersistCubeFiles(dir, schema, cube, dictionaries);
}

bool LoadInput(const Options& options, Report* report, LoadedInput* input) {
  input->data = MakeData(options.seed, options.scale_divisor);
  input->maps = DeriveLoaderCodes(input->data);
  input->groupby = std::make_unique<GroupBy>(&input->data, &input->maps);
  const std::string csv = options.work_dir + "/apb.csv";
  if (!WriteCsv(input->data, csv)) {
    Log("cannot write %s", csv.c_str());
    return false;
  }
  cure::Result<cure::etl::LoadedDataset> loaded =
      cure::etl::LoadCsvFile(csv, input->data.spec_text);
  if (!loaded.ok()) {
    Log("load failed: %s", loaded.status().ToString().c_str());
    return false;
  }
  input->loaded =
      std::make_unique<cure::etl::LoadedDataset>(std::move(loaded).value());
  if (!CodesMatchDictionaries(input->data, input->maps, *input->loaded)) {
    report->Wrong("etl dictionaries disagree with first-appearance codes");
  }
  if (input->loaded->table.num_rows() != input->data.rows()) {
    report->Wrong("etl loaded a different row count");
  }
  return true;
}

void SyncWorkDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double EndSetup(const Options& options, int64_t start_us) {
  const double setup_s = static_cast<double>(NowMicros() - start_us) * 1e-6;
  SyncWorkDir(options.work_dir);
  malloc_trim(0);
  return setup_s;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace perfbench

// The four workloads and the cube plumbing they share.
#ifndef CURE_PERFBENCH_WORKLOADS_H_
#define CURE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/cure.h"
#include "etl/loader.h"
#include "serve/cube_server.h"
#include "storage/relation.h"

namespace perfbench {

/// Runs one workload; fills `report`. Returns 0, or a non-zero exit code on
/// a set-up error (then no result is printed).
using WorkloadFn = int (*)(const Options& options, int64_t start_us,
                           Report* report);
WorkloadFn FindWorkload(const std::string& name);

int RunBuildApb(const Options& options, int64_t start_us, Report* report);
int RunServeDrill(const Options& options, int64_t start_us, Report* report);
int RunClusterScatter(const Options& options, int64_t start_us,
                      Report* report);
int RunLiveIngest(const Options& options, int64_t start_us, Report* report);

/// Build options with every knob pinned. `budget` decides in-memory vs
/// external construction.
cure::engine::CureOptions PinnedBuildOptions(const Options& options,
                                             uint64_t budget);

/// Serving options with every knob pinned.
cure::serve::CubeServerOptions PinnedServerOptions(int threads,
                                                   uint64_t cache_bytes);

/// Writes a serveable cube directory the way `cure_tool build` does:
/// {cube.bin, fact.bin, schema.txt, dict_<d>_<l>.txt}.
cure::Status PersistCubeDir(
    const std::string& dir, const cure::schema::CubeSchema& schema,
    const cure::schema::FactTable& table, cure::engine::CureCube* cube,
    const std::vector<std::vector<cure::etl::Dictionary>>& dictionaries);

/// The two halves of PersistCubeDir: the sealed fact relation (dir/fact.bin)
/// and everything else.
cure::Result<cure::storage::Relation> WriteFactRelation(
    const std::string& dir, const cure::schema::FactTable& table);
cure::Status PersistCubeFiles(
    const std::string& dir, const cure::schema::CubeSchema& schema,
    cure::engine::CureCube* cube,
    const std::vector<std::vector<cure::etl::Dictionary>>& dictionaries);

/// Common set-up of the serving workloads: data, independent code maps and
/// group-by, the CSV written and loaded through etl.
struct LoadedInput {
  ApbData data;
  CodeMaps maps;
  std::unique_ptr<GroupBy> groupby;
  std::unique_ptr<cure::etl::LoadedDataset> loaded;
};
bool LoadInput(const Options& options, Report* report, LoadedInput* input);

/// Flushes this file system's dirty pages so a run's writes are not left
/// for the next run's timed part to pay for.
void SyncWorkDir(const std::string& dir);

/// Ends a workload's set-up: returns its seconds since `start_us`, then,
/// outside that figure, syncs the work directory and hands the heap that
/// set-up freed back to the system, so that neither its dirty pages nor its
/// freed memory are charged to the timed part.
double EndSetup(const Options& options, int64_t start_us);

/// Size of a file in bytes (0 when absent).
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // CURE_PERFBENCH_WORKLOADS_H_

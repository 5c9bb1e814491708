// Microbenchmarks for BGA archive serialization and the record reader:
// write/read throughput, and the streaming reader's bounded peak memory
// (the `peak_buffer_bytes` / `image_bytes` counters — the streaming read
// should hold only a small fraction of the file at once).
//
// `perf_archive --rss-guard` skips the benchmarks and runs the streaming
// residency regression guard instead (registered as the
// perf_archive_rss_guard ctest): it streams archives with 2 and 8
// snapshot sections through bgp::ArchiveView and fails if the peak
// resident record count ever exceeds one snapshot section plus one update
// chunk, or grows with the number of snapshots in the archive.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "bgp/archive.h"
#include "bgp/archive_format.h"
#include "bgp/archive_reader.h"
#include "bgp/archive_view.h"
#include "routing/simulator.h"
#include "stream/reader.h"

using namespace bgpatoms;

namespace {

/// A multi-snapshot campaign: RIB at t0, an hour of updates, then two more
/// captures — so the image has several snapshot sections and update
/// chunks for the streaming benches to walk.
const bgp::Dataset& dataset() {
  static const bgp::Dataset ds = [] {
    routing::Simulator sim(
        topo::generate_topology(topo::era_params_v4(2020.0, 0.01), 42));
    sim.capture();
    sim.emit_updates(routing::kHour);
    sim.advance_to(2 * routing::kHour);
    sim.capture();
    sim.advance_to(4 * routing::kHour);
    sim.capture();
    return std::move(sim.dataset());
  }();
  return ds;
}

/// Temp file holding the dataset.
std::string archive_file() {
  const auto path =
      (std::filesystem::temp_directory_path() / "perf_archive.bga").string();
  bgp::write_archive_file(dataset(), path);
  return path;
}

void BM_ArchiveWrite(benchmark::State& state) {
  const auto& ds = dataset();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = bgp::write_archive(ds);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["archive_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ArchiveWrite)->Unit(benchmark::kMillisecond);

void BM_ArchiveRead(benchmark::State& state) {
  const auto image = bgp::write_archive(dataset());
  for (auto _ : state) {
    const auto ds = bgp::read_archive(image);
    benchmark::DoNotOptimize(ds.snapshots.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ArchiveRead)->Unit(benchmark::kMillisecond);

/// Streaming read off disk, section at a time. The peak_buffer_bytes
/// counter is the reader's transient high-water mark: it stays well below
/// image_bytes (one section).
void BM_ArchiveStreamRead(benchmark::State& state) {
  const auto path = archive_file();
  std::uint64_t peak = 0, file_bytes = 0;
  std::size_t snaps = 0, updates = 0;
  for (auto _ : state) {
    bgp::ArchiveReader reader(path);
    snaps = updates = 0;
    while (auto snap = reader.next_snapshot()) {
      benchmark::DoNotOptimize(snap->peers.size());
      ++snaps;
    }
    while (auto chunk = reader.next_updates()) updates += chunk->size();
    peak = reader.peak_buffer_bytes();
    file_bytes = reader.file_bytes();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file_bytes));
  state.counters["image_bytes"] = static_cast<double>(file_bytes);
  state.counters["peak_buffer_bytes"] = static_cast<double>(peak);
  state.counters["peak_buffer_share"] =
      file_bytes ? static_cast<double>(peak) / static_cast<double>(file_bytes)
                 : 0.0;
  state.counters["snapshots"] = static_cast<double>(snaps);
  state.counters["update_records"] = static_cast<double>(updates);
  std::filesystem::remove(path);
}
BENCHMARK(BM_ArchiveStreamRead)->Unit(benchmark::kMillisecond);

/// Drains `reader`; returns the number of records it yielded.
std::size_t drain(stream::RecordReader& reader) {
  std::size_t records = 0;
  while (auto rec = reader.next()) {
    benchmark::DoNotOptimize(rec->prefix);
    ++records;
  }
  return records;
}

/// Records from the in-memory dataset through a DatasetView.
void BM_StreamReader(benchmark::State& state) {
  const auto& ds = dataset();
  std::size_t records = 0;
  for (auto _ : state) {
    bgp::DatasetView view(ds);
    stream::RecordReader reader(view, view);
    records = drain(reader);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_StreamReader)->Unit(benchmark::kMillisecond);

/// End-to-end: records straight off the file through an ArchiveView.
void BM_StreamReaderArchive(benchmark::State& state) {
  const auto path = archive_file();
  std::size_t records = 0;
  double peak_share = 0;
  for (auto _ : state) {
    bgp::ArchiveView view(path);
    stream::RecordReader reader(view, view);
    records = drain(reader);
    peak_share = static_cast<double>(view.archive().peak_buffer_bytes()) /
                 static_cast<double>(view.archive().file_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.counters["records"] = static_cast<double>(records);
  state.counters["peak_buffer_share"] = peak_share;
  std::filesystem::remove(path);
}
BENCHMARK(BM_StreamReaderArchive)->Unit(benchmark::kMillisecond);

void BM_PathPoolIntern(benchmark::State& state) {
  std::vector<net::AsPath> paths;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    std::vector<net::Asn> hops;
    const int len = 2 + static_cast<int>(rng.next_below(5));
    for (int k = 0; k < len; ++k) {
      hops.push_back(1 + static_cast<net::Asn>(rng.next_below(5000)));
    }
    paths.push_back(net::AsPath::sequence(std::move(hops)));
  }
  for (auto _ : state) {
    net::PathPool pool;
    for (const auto& p : paths) benchmark::DoNotOptimize(pool.intern(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_PathPoolIntern)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --rss-guard: streaming residency regression guard (perf_archive_rss_guard).

/// A campaign with `snapshots` captures an hour apart, updates after the
/// first — the same era/seed as dataset() so the guard workload is
/// deterministic across runs.
bgp::Dataset guard_dataset(int snapshots) {
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2020.0, 0.01), 42));
  sim.capture();
  sim.emit_updates(routing::kHour);
  for (int i = 1; i < snapshots; ++i) {
    sim.advance_to((i + 1) * routing::kHour);
    sim.capture();
  }
  return std::move(sim.dataset());
}

struct StreamStats {
  std::size_t snapshots = 0;
  std::size_t largest_snapshot_records = 0;
  std::size_t update_records = 0;
  std::size_t peak_resident_records = 0;
  std::uint64_t peak_buffer_bytes = 0;
  std::uint64_t file_bytes = 0;
};

/// Drains `path` through the streamed analysis backend and reports its
/// residency counters.
StreamStats stream_archive(const std::string& path) {
  bgp::ArchiveView view(path);
  StreamStats s;
  while (const bgp::Snapshot* snap = view.next_snapshot()) {
    ++s.snapshots;
    s.largest_snapshot_records = std::max(s.largest_snapshot_records,
                                          bgp::Dataset::record_count(*snap));
  }
  for (auto chunk = view.next_chunk(); !chunk.empty();
       chunk = view.next_chunk()) {
    s.update_records += chunk.size();
  }
  s.peak_resident_records = view.peak_resident_records();
  s.peak_buffer_bytes = view.archive().peak_buffer_bytes();
  s.file_bytes = view.archive().file_bytes();
  return s;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int run_rss_guard() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };

  const auto tmp = std::filesystem::temp_directory_path();
  const auto small_path = (tmp / "perf_guard_2snap.bga").string();
  const auto large_path = (tmp / "perf_guard_8snap.bga").string();
  // Scoped so the materialized datasets are freed before streaming — the
  // guard measures the streamed path, not the generator.
  {
    bgp::write_archive_file(guard_dataset(2), small_path);
    bgp::write_archive_file(guard_dataset(8), large_path);
  }
  const long rss_after_build_kb = peak_rss_kb();

  const StreamStats s2 = stream_archive(small_path);
  const StreamStats s8 = stream_archive(large_path);
  std::filesystem::remove(small_path);
  std::filesystem::remove(large_path);

  const std::size_t chunk = bgp::archive_detail::kUpdatesPerChunk;
  for (const auto* s : {&s2, &s8}) {
    std::printf(
        "%zu snapshots: file %.2f MiB, %zu update records, largest snapshot "
        "%zu records, peak resident %zu records, peak buffer %.2f MiB\n",
        s->snapshots, s->file_bytes / 1048576.0, s->update_records,
        s->largest_snapshot_records, s->peak_resident_records,
        s->peak_buffer_bytes / 1048576.0);
  }
  std::printf("process peak RSS: %ld KiB (of which archive build: %ld KiB)\n",
              peak_rss_kb(), rss_after_build_kb);

  check(s2.snapshots == 2 && s8.snapshots == 8,
        "both archives stream every snapshot section");
  check(s2.peak_resident_records <= s2.largest_snapshot_records + chunk,
        "2-snapshot peak residency <= one snapshot section + one chunk");
  check(s8.peak_resident_records <= s8.largest_snapshot_records + chunk,
        "8-snapshot peak residency <= one snapshot section + one chunk");
  // The scaling guard proper: 4x the snapshot sections must not move the
  // peak beyond per-section variation (25% slack) — residency tracks the
  // largest section, never the section count.
  check(s8.peak_resident_records * 4 <= s2.peak_resident_records * 5,
        "peak residency does not scale with snapshot count");
  // Byte-level: the v2 streaming buffer holds one framed section, a small
  // share of the file once several sections exist.
  check(s8.peak_buffer_bytes * 2 < s8.file_bytes,
        "v2 stream buffer stays well below the file size");

  if (failures) {
    std::printf("rss-guard: %d check(s) FAILED\n", failures);
  } else {
    std::printf("rss-guard: all checks passed\n");
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--rss-guard") return run_rss_guard();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

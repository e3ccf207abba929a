// Append-only columnar store of per-run metrics (DESIGN.md §11).
//
// One benchmark result is a point sample; the run-store is the trajectory.
// The bench binaries (--runstore) and CI's perfbench job append per-run
// metrics into a small column store on disk (one file per metric column,
// in the spirit of leanstore's profiling tables), keyed by (run id, git
// sha, config hash). scripts/bench_trend.py and tools/runstore_query read
// it back to compare a fresh run against history.
//
// On-disk layout under the store directory:
//
//   manifest.tsv            one row per run, tab-separated:
//                             row-index \t run_id \t git_sha \t config_hash
//                           (fields sanitized: tabs/newlines become '_')
//   columns/<name>.col      binary column file:
//                             header (8 bytes): magic "CFRC", u16 version,
//                             u16 reserved
//                             then 16-byte little-endian records:
//                             u64 row-index, f64 value
//
// Appending the same column several times for one row forms an in-run
// series (e.g. per-cycle values) — records keep append order. Everything
// is plain append, so concurrent histories merge by concatenation and a
// partial write can lose at most the tail record.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cloudfog::obs {

struct RunKey {
  std::string run_id;
  std::string git_sha;
  std::string config_hash;
};

class RunStore {
 public:
  inline static constexpr std::uint16_t kColumnVersion = 1;

  /// Opens (creating if needed) the store rooted at `dir`.
  explicit RunStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Appends a manifest row for a new run and returns its row index.
  std::uint64_t begin_row(const RunKey& key);

  /// Appends one value to `column` for `row`. Column names are sanitized
  /// to [A-Za-z0-9._-] for the file name.
  void append(std::uint64_t row, std::string_view column, double value);

  // ---- query surface (used by tools/runstore_query and tests) ----

  struct Row {
    std::uint64_t row = 0;
    std::string run_id;
    std::string git_sha;
    std::string config_hash;
  };

  /// Manifest rows in append order.
  std::vector<Row> rows() const;

  /// Sorted names of every column present in the store.
  std::vector<std::string> columns() const;

  /// All (row, value) records of a column, in append order. Returns an
  /// empty vector for unknown columns.
  std::vector<std::pair<std::uint64_t, double>> column(std::string_view name) const;

  /// File-name-safe form of a column name.
  static std::string sanitize(std::string_view name);

 private:
  std::string column_path(std::string_view name) const;

  std::string dir_;
};

}  // namespace cloudfog::obs

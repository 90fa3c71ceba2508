// Crash-safe sweep checkpointing: append-only, crc-guarded JSONL.
//
// A streaming sweep (serve/sweep.hpp) appends one line per *finished*
// configuration so a killed run can resume without repeating work.  The
// file format is:
//
//   line 1:  {"autopower_sweep_checkpoint":1,"fingerprint":"<16 hex>",
//             "configs":<grid size>,"workloads":<count>}
//   line 2+: {"i":<grid index>,"crc":"<8 hex>","row":{<row body>}}
//
// The fingerprint hashes the sweep's IDENTITY — base config, grid axes
// (parameter names and value lists) and workload list — so a checkpoint
// can only be replayed into the sweep that wrote it.  Ranking knobs
// (metric, --top) and execution knobs (threads, memory budget) are
// deliberately excluded: they don't change what a row contains, so a
// resume may re-rank under a different metric or thread count and still
// reproduce the by-then-uninterrupted report byte for byte.
//
// The crc (IEEE CRC-32, reflected) covers the exact bytes of the `row`
// object, which are also the exact bytes append_row_json re-emits for a
// replayed row — numbers round-trip through serve::append_json_number — so
// "crc valid" means "replaying this line reproduces the original bytes".
//
// Torn-line policy (what a SIGKILL can leave behind):
//   * A final line with NO trailing newline is a torn tail: the write
//     was cut mid-line.  It is dropped, the file is truncated back to
//     the last intact line on resume, and the config is re-evaluated.
//     Losing at most one fsync batch of rows is the designed cost of a
//     kill; re-evaluation is deterministic, so the report is unaffected.
//   * A newline-TERMINATED line that fails crc or does not parse is NOT
//     torn — it is corruption (bit rot, truncation in the middle, a
//     concurrent writer) and resuming would silently drop completed
//     work or replay garbage.  load_checkpoint throws util::Error; the
//     CLI surfaces it and exits non-zero.  A checkpoint is never
//     silently skipped past.
//
// Durability: rows are buffered and flushed in batches (count- and
// byte-triggered) with fsync, bounding both the syscall rate at
// million-row scale and the worst-case loss window.  The writer is
// internally locked — sweep workers append concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/sweep.hpp"

namespace autopower::serve {

/// IEEE CRC-32 (reflected, init/xorout 0xffffffff) over `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// The sweep-identity fingerprint recorded in a checkpoint header:
/// 16 lowercase hex digits over base + axes + workloads + the model's
/// archive fingerprint.  Including the model identity means resuming a
/// sweep with a retrained archive refuses with a fingerprint mismatch
/// instead of silently splicing the old model's rows into the new
/// model's report.
[[nodiscard]] std::string sweep_fingerprint(
    const std::string& base, std::span<const SweepAxis> axes,
    std::span<const std::string> workloads,
    std::string_view model_fingerprint);

/// What load_checkpoint recovered.
struct CheckpointReplay {
  bool found = false;            ///< file existed (absent = fresh start)
  std::vector<SweepRow> rows;    ///< replayed rows, `index` set, unranked
  std::uint64_t valid_bytes = 0; ///< prefix ending at the last intact line
};

/// Replays `path`.  Returns found=false when the file does not exist.
/// Throws util::Error on a header/fingerprint mismatch, a corrupt
/// newline-terminated line (crc, parse, duplicate or out-of-range
/// index), or an I/O error; drops a torn (newline-less) tail per the
/// policy above.  `fingerprint`, `configs` and `workloads` are the
/// resuming sweep's own identity, cross-checked against the header.
[[nodiscard]] CheckpointReplay load_checkpoint(
    const std::string& path, std::string_view fingerprint,
    std::size_t configs, std::size_t workloads);

/// Append-only checkpoint writer.  Thread-safe: sweep workers call
/// append() concurrently.  Failures (open, write, fsync — or the
/// "serve.checkpoint.write" fault site) throw util::Error; the sweep
/// treats a checkpoint it cannot write as fatal rather than silently
/// continuing without crash safety.
class CheckpointWriter {
 public:
  /// Fresh start: truncates `path` and writes the header line.
  /// Resume: pass load_checkpoint's `valid_bytes` as `keep_bytes` — the
  /// file is truncated back to the intact prefix (dropping a torn tail)
  /// and appended to.
  CheckpointWriter(const std::string& path, std::string_view fingerprint,
                   std::size_t configs, std::size_t workloads,
                   std::uint64_t keep_bytes = 0);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Records config `index` as finished.  `row_json` is the exact
  /// append_row_json body; the line's crc covers `{row_json}`.
  void append(std::size_t index, std::string_view row_json);

  /// Writes buffered lines and fsyncs.
  void flush();

  /// flush() + close(2); further appends are invalid.  Called by the
  /// destructor, but callers that must observe failure call it directly
  /// (the destructor swallows errors).
  void close();

 private:
  void write_all_locked(const char* data, std::size_t size);
  void flush_locked();

  std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  std::size_t buffered_rows_ = 0;
};

}  // namespace autopower::serve

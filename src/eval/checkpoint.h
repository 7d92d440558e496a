// checkpoint.h - Append-only trial journal for crash-safe experiments,
// plus the deterministic experiment-result JSON used to verify resume.
//
// run_diagnosis_experiment derives every trial purely from (config.seed,
// trial index), so a killed run loses no information that cannot be
// recomputed - but recomputation is expensive.  The journal makes finished
// trials durable: one self-checksummed record per trial, appended as each
// trial completes and fsynced in small batches.  A resumed run loads the
// journal, replays the recorded trials into their slots, and re-runs only
// the rest; because the journal round-trips every double bit-exactly, the
// resumed result is byte-identical to an uninterrupted run at any thread
// count.
//
// File format: the record log's (obs/record_log.h), shared with the run
// ledger - one crc-framed JSON record per line.  Every writer session
// opens with a run line, then appends one trial line per finished trial:
//
//   {"crc":"<16 hex>","run_id":"<fingerprint>"}
//   {"crc":"<16 hex>","run_id":"<fingerprint>","trial":5,"status":...}
//
// run_id is the experiment fingerprint, which hashes the experiment
// identity (circuit, seed, trial count, sample counts, method list...);
// resuming against a journal holding a valid record of a different
// experiment is an error, not a silent wrong answer.  Doubles are stored as
// their bit patterns in 16 hex, so the round trip is exact.  The record log
// skips torn and corrupt lines - typically a record half written at the
// moment of a crash - so their trials simply re-run, and the writer closes
// a torn tail off with a newline before appending.
//
// Quarantined trials ARE journaled (re-running them would fail again
// deterministically); deadline-skipped trials are NOT (resume exists
// precisely to give them another chance).
//
// Fault seams (obs/faults.h): ckpt.open (k=0), ckpt.write (k=trial).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/experiment.h"
#include "obs/record_log.h"

namespace sddd::eval {

/// Stable hash of the experiment identity: two runs may share a journal
/// iff their fingerprints match.  Hashes circuit name, seed, n_chips,
/// sample counts, method list, defect model knobs - everything that
/// changes per-trial results.
std::uint64_t experiment_fingerprint(const std::string& circuit_name,
                                     const ExperimentConfig& config);

/// One journal trial line: the experiment it belongs to, the trial index
/// and its finished TrialRecord.
struct CheckpointRecord {
  std::uint64_t run_id = 0;
  std::size_t trial = 0;
  TrialRecord record;
};

/// Serializes one trial line (no trailing newline) and parses it back.
/// Exposed for tests.  decode_checkpoint_record accepts trial lines only.
std::string encode_checkpoint_record(std::uint64_t run_id, std::size_t trial,
                                     const TrialRecord& record);
bool decode_checkpoint_record(std::string_view line, CheckpointRecord* out);

/// Result of scanning a journal file.
struct CheckpointLoad {
  /// Valid trial records in file order (later duplicates of a trial win).
  std::vector<CheckpointRecord> records;
  /// Torn, corrupt or malformed lines that were skipped.
  std::size_t skipped_lines = 0;
};

/// Scans `path` through the record log.  A missing file loads as empty.
/// Throws sddd::IoError when a valid record belongs to another experiment
/// (its run_id is not `fingerprint`).
CheckpointLoad load_checkpoint(const std::string& path,
                               std::uint64_t fingerprint);

/// Append side of the journal.  Thread-safe: trials finishing on any
/// worker append through the record log's mutex; record order in the file
/// is the completion order (schedule-dependent), which is fine because
/// records carry their trial index.
class CheckpointWriter {
 public:
  /// Opens `path` - appending when `resume`, starting it over otherwise -
  /// and writes the run line.  Throws sddd::IoError on any filesystem
  /// failure (also the `ckpt.open` fault seam).
  CheckpointWriter(const std::string& path, std::uint64_t fingerprint,
                   bool resume);

  /// Appends one finished trial.  Throws sddd::IoError on write failure
  /// (also the `ckpt.write` fault seam, keyed by trial index).
  void append(std::size_t trial, const TrialRecord& record);

  /// Forces an fsync of everything appended so far.
  void flush() { log_.flush(); }

 private:
  std::uint64_t fingerprint_;
  std::string path_;
  obs::RecordLogWriter log_;
};

/// Writes the deterministic result JSON: config identity, aggregate
/// counts, success rates, and every per-trial record - but no wall-clock
/// or CPU timings - so an uninterrupted run and a kill+resume run of the
/// same experiment produce byte-identical files.  Doubles are printed with
/// 17 significant digits (round-trip exact).  The write is atomic
/// (obs::atomic_write_file_or_throw).
void write_experiment_json(const ExperimentResult& result,
                           const std::string& path);

}  // namespace sddd::eval

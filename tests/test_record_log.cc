// Tests for the shared checksummed log (obs/record_log.h) through its two
// users, the trial journal and the run ledger:
//
//   - a crash-point sweep: a complete journal cut at seeded byte offsets
//     (mid-line, on line boundaries, at 0) or with one byte flipped must
//     resume to a result JSON byte-identical to the uninterrupted run's,
//     re-running only the trials whose lines are missing or corrupt;
//   - a seeded mutation harness: byte flips, truncations and splices of
//     generated journals and ledgers must load to success or a typed
//     sddd::Error, and every record loaded must be one that was written.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "netlist/synth.h"
#include "obs/error.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "test_tmp.h"

namespace sddd {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Silences the scanner's per-line warnings for the scope: the tests below
/// feed it thousands of corrupt lines on purpose.
struct QuietLog {
  obs::LogLevel saved = obs::log_level();
  QuietLog() { obs::set_log_level(obs::LogLevel::kError); }
  ~QuietLog() { obs::set_log_level(saved); }
};

netlist::Netlist sweep_netlist() {
  netlist::SynthSpec spec;
  spec.name = "sweep";
  spec.n_inputs = 10;
  spec.n_outputs = 8;
  spec.n_gates = 60;
  spec.depth = 8;
  spec.seed = 11;
  return netlist::synthesize(spec);
}

eval::ExperimentConfig sweep_config() {
  eval::ExperimentConfig config;
  config.n_chips = 5;
  config.mc_samples = 40;
  config.seed = 5;
  config.calibration_sites = 6;
  config.max_injection_retries = 40;
  return config;
}

/// Trials whose journal line lies complete (up to, not necessarily
/// including, its newline) within the first `cut` bytes of `journal`.
std::set<std::size_t> trials_within(const std::string& journal,
                                    std::size_t cut) {
  std::set<std::size_t> trials;
  std::size_t pos = 0;
  while (pos < journal.size()) {
    const std::size_t eol = journal.find('\n', pos);
    if (eol == std::string::npos || eol > cut) break;
    eval::CheckpointRecord rec;
    if (eval::decode_checkpoint_record(journal.substr(pos, eol - pos), &rec)) {
      trials.insert(rec.trial);
    }
    pos = eol + 1;
  }
  return trials;
}

TEST(RecordLogCrashSweep, EveryCutResumesToTheSameBytes) {
  const QuietLog quiet;
  const auto nl = sweep_netlist();
  eval::ExperimentConfig config = sweep_config();
  const auto ref_json = test::temp_path("sweep_ref.json");
  eval::write_experiment_json(eval::run_diagnosis_experiment(nl, config),
                              ref_json.string());
  const std::string reference = slurp(ref_json);

  const auto path = test::temp_path("sweep.ckpt");
  std::filesystem::remove(path);
  config.checkpoint_path = path.string();
  (void)eval::run_diagnosis_experiment(nl, config);
  const std::string journal = slurp(path);
  ASSERT_EQ(trials_within(journal, journal.size()).size(), config.n_chips);

  // Cut points: 0, every line boundary, and two seeded offsets inside
  // every line.
  std::vector<std::size_t> cuts = {0};
  std::mt19937_64 rng(20261021);
  std::size_t line_start = 0;
  for (std::size_t eol = journal.find('\n'); eol != std::string::npos;
       eol = journal.find('\n', eol + 1)) {
    for (int k = 0; k < 2; ++k) {
      cuts.push_back(line_start + 1 + rng() % (eol - line_start));
    }
    cuts.push_back(eol + 1);
    line_start = eol + 1;
  }

  config.resume = true;
  const auto res_json = test::temp_path("sweep_res.json");
  const auto check_resume = [&](const std::string& bytes,
                                std::size_t intact_trials,
                                const std::string& label) {
    spit(path, bytes);
    const auto resumed = eval::run_diagnosis_experiment(nl, config);
    // The resume appended after the surviving bytes, closing a torn tail
    // off with a newline first.
    const std::string after = slurp(path);
    EXPECT_EQ(after.substr(0, bytes.size()), bytes) << label;
    if (!bytes.empty() && bytes.back() != '\n') {
      EXPECT_EQ(after[bytes.size()], '\n') << label;
    }
    // Exactly the intact trials replay; only the rest re-run.
    EXPECT_EQ(resumed.resumed_trials, intact_trials) << label;
    eval::write_experiment_json(resumed, res_json.string());
    EXPECT_EQ(slurp(res_json), reference) << label;
    // The resumed journal is complete again.
    EXPECT_EQ(eval::load_checkpoint(path.string(),
                                    eval::experiment_fingerprint(nl.name(),
                                                                 config))
                  .records.size(),
              config.n_chips)
        << label;
  };
  for (const std::size_t cut : cuts) {
    check_resume(journal.substr(0, cut), trials_within(journal, cut).size(),
                 "cut at byte " + std::to_string(cut));
  }

  // One byte flipped inside a middle trial line: that trial re-runs, every
  // other one replays.
  const std::size_t third_nl = [&] {
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i) pos = journal.find('\n', pos) + 1;
    return pos;
  }();
  std::string flipped = journal;
  flipped[third_nl + 30] ^= 0x01;
  check_resume(flipped, config.n_chips - 1, "byte flip in line 4");
  std::filesystem::remove(path);
}

// --- Seeded mutation harness ---

eval::TrialRecord fuzz_trial(std::size_t i) {
  eval::TrialRecord r;
  r.status = i % 3 == 0 ? eval::TrialStatus::kQuarantined
                        : eval::TrialStatus::kDiagnosed;
  r.failed_test = i % 3 != 0;
  r.error_code = ErrorCode::kNumeric;
  r.error_message = i % 3 == 0 ? "bad \"sample\"\n\t\x01 \\ end" : "";
  r.injection_attempts = i + 1;
  r.n_patterns = 3 * i;
  r.n_suspects = 100 + i;
  r.logic_baseline_rank = static_cast<int>(i) - 1;
  r.chip.sample_index = 7 * i;
  r.chip.defect_arc = static_cast<netlist::ArcId>(11 * i);
  r.chip.defect_size = 0.1 * static_cast<double>(i);
  r.chip.size_mean = -0.0;
  r.rank_of_true = {static_cast<int>(i), -1};
  r.extra_defects = {{static_cast<netlist::ArcId>(i), 1.0 / 3.0}};
  return r;
}

obs::LedgerRecord fuzz_run(std::size_t i) {
  obs::LedgerRecord rec;
  rec.run_id = obs::hex64(0xabc0 + i);
  rec.tool = "diagnose";
  rec.circuit = "s1196";
  rec.seed = i;
  rec.phases["trials_s"] = 0.5 * static_cast<double>(i);
  rec.result_fnv = obs::hex64(i);
  return rec;
}

/// One seeded mutation of `a`: byte flips, a truncation, or a splice of
/// `a` and `b` at random offsets.
std::string mutate(const std::string& a, const std::string& b,
                   std::mt19937_64& rng) {
  std::string out = a;
  switch (rng() % 3) {
    case 0:
      for (std::uint64_t n = 1 + rng() % 4; n > 0 && !out.empty(); --n) {
        out[rng() % out.size()] = static_cast<char>(rng() & 0xff);
      }
      break;
    case 1:
      out.resize(rng() % (out.size() + 1));
      break;
    default: {
      const std::size_t at = rng() % (out.size() + 1);
      const std::size_t from = rng() % (b.size() + 1);
      const std::size_t len = rng() % (b.size() - from + 1);
      const bool keep_tail = rng() % 2 == 0;
      out = out.substr(0, at) + b.substr(from, len) +
            (keep_tail ? out.substr(at) : std::string());
      break;
    }
  }
  return out;
}

TEST(RecordLogMutation, HostileBytesLoadToWrittenRecordsOrTypedErrors) {
  const QuietLog quiet;
  constexpr std::uint64_t kRunId = 0x5eed5eed5eed5eedULL;
  const auto journal_path = test::temp_path("fuzz.ckpt");
  const auto ledger_path = test::temp_path("fuzz.jsonl");
  std::filesystem::remove(journal_path);
  std::filesystem::remove(ledger_path);

  // The originals, written through the real appenders.
  std::set<std::string> journal_lines;
  {
    eval::CheckpointWriter writer(journal_path.string(), kRunId, false);
    for (std::size_t i = 0; i < 6; ++i) {
      writer.append(i, fuzz_trial(i));
      journal_lines.insert(
          eval::encode_checkpoint_record(kRunId, i, fuzz_trial(i)));
    }
  }
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(obs::append_ledger_record(ledger_path.string(), fuzz_run(i)));
  }
  const std::string journal = slurp(journal_path);
  const std::string ledger = slurp(ledger_path);
  std::set<std::string> ledger_lines;
  for (const obs::LedgerRecord& rec :
       obs::load_ledger(ledger_path.string()).records) {
    ledger_lines.insert(obs::encode_ledger_record(rec));
  }
  ASSERT_EQ(ledger_lines.size(), 6u);

  std::mt19937_64 rng(0x5dddf022);
  std::size_t inputs = 0;
  std::size_t loaded = 0;
  for (int round = 0; round < 5000; ++round) {
    spit(journal_path, mutate(journal, round % 2 == 0 ? journal : ledger, rng));
    ++inputs;
    try {
      for (const eval::CheckpointRecord& rec :
           eval::load_checkpoint(journal_path.string(), kRunId).records) {
        ++loaded;
        EXPECT_TRUE(journal_lines.count(eval::encode_checkpoint_record(
            rec.run_id, rec.trial, rec.record)))
            << "round " << round << ": trial " << rec.trial;
      }
    } catch (const Error&) {
      // A typed error is an acceptable end; anything else fails the test.
    }

    spit(ledger_path, mutate(ledger, round % 2 == 0 ? ledger : journal, rng));
    ++inputs;
    try {
      for (const obs::LedgerRecord& rec :
           obs::load_ledger(ledger_path.string()).records) {
        ++loaded;
        EXPECT_TRUE(ledger_lines.count(obs::encode_ledger_record(rec)))
            << "round " << round << ": run " << rec.run_id;
      }
    } catch (const Error&) {
      // A typed error is an acceptable end; anything else fails the test.
    }
  }
  EXPECT_GE(inputs, 10000u);
  EXPECT_GT(loaded, 0u);  // the harness reaches the record mapping
  std::filesystem::remove(journal_path);
  std::filesystem::remove(ledger_path);
}

}  // namespace
}  // namespace sddd

#include "eval/checkpoint.h"

#include <bit>
#include <sstream>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/faults.h"

namespace sddd::eval {

namespace {

std::string double_hex(double d) {
  return obs::hex64(std::bit_cast<std::uint64_t>(d));
}

bool parse_double_hex(std::string_view s, double* out) {
  std::uint64_t bits = 0;
  if (!obs::parse_hex64(s, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

enum class JournalLine { kBad, kRun, kTrial };

/// Maps one decoded journal record.  A run line carries only run_id; a
/// trial line carries the trial index and every TrialRecord field.
JournalLine journal_fields(const obs::JsonValue& obj, CheckpointRecord* out) {
  obs::RecordFields f(obj);
  CheckpointRecord rec;
  std::string run_id;
  f.str("run_id", &run_id);
  if (!obs::parse_hex64(run_id, &rec.run_id)) return JournalLine::kBad;
  if (obj.get("trial") == nullptr) {
    *out = std::move(rec);
    return JournalLine::kRun;
  }
  TrialRecord& r = rec.record;
  std::string status;
  std::string code;
  std::string size;
  std::string size_mean;
  f.u64("trial", &rec.trial);
  f.str("status", &status);
  f.str("error_code", &code);
  f.u64("attempts", &r.injection_attempts);
  f.boolean("failed_test", &r.failed_test);
  f.u64("patterns", &r.n_patterns);
  f.u64("failing_cells", &r.n_failing_cells);
  f.u64("suspects", &r.n_suspects);
  f.boolean("true_in_suspects", &r.true_arc_in_suspects);
  f.integer("logic_rank", &r.logic_baseline_rank);
  f.u64("sample", &r.chip.sample_index);
  f.u64("arc", &r.chip.defect_arc);
  f.str("size", &size);
  f.str("size_mean", &size_mean);
  using Kind = obs::JsonValue::Kind;
  if (const obs::JsonValue* ranks = f.get("ranks", Kind::kArray)) {
    r.rank_of_true.resize(ranks->array.size());
    for (std::size_t i = 0; i < ranks->array.size(); ++i) {
      if (!obs::RecordFields::to_int(ranks->array[i], &r.rank_of_true[i])) {
        f.fail();
      }
    }
  }
  if (const obs::JsonValue* extra = f.get("extra", Kind::kArray)) {
    for (const obs::JsonValue& e : extra->array) {
      int arc = -1;
      double defect_size = 0.0;
      if (!e.is_array() || e.array.size() != 2 ||
          !obs::RecordFields::to_int(e.array[0], &arc) || arc < 0 ||
          !e.array[1].is_string() ||
          !parse_double_hex(e.array[1].string, &defect_size)) {
        f.fail();
        break;
      }
      r.extra_defects.emplace_back(static_cast<netlist::ArcId>(arc),
                                   defect_size);
    }
  }
  f.str("message", &r.error_message);
  if (!f.ok() || !parse_trial_status(status, &r.status) ||
      !parse_error_code(code, &r.error_code) ||
      !parse_double_hex(size, &r.chip.defect_size) ||
      !parse_double_hex(size_mean, &r.chip.size_mean)) {
    return JournalLine::kBad;
  }
  r.from_checkpoint = true;
  *out = std::move(rec);
  return JournalLine::kTrial;
}

/// The ckpt.open fault seam, ahead of the real open.
const std::string& open_seam(const std::string& path) {
  if (obs::fault_at("ckpt.open", 0)) {
    throw IoError("checkpoint open failed for " + path +
                  ": injected fault (SDDD_FAULTS)");
  }
  return path;
}

}  // namespace

std::uint64_t experiment_fingerprint(const std::string& circuit_name,
                                     const ExperimentConfig& c) {
  // Serialize every knob that changes per-trial outcomes; hash the text.
  // Timings and checkpoint/resume/deadline knobs are deliberately
  // excluded: they change how a run executes, not what it computes.  So
  // are the ignored use_score_kernel / collapse_unobservable fields.
  std::ostringstream os;
  os << circuit_name << '|' << c.seed << '|' << c.n_chips << '|'
     << c.mc_samples << '|' << c.instance_samples << '|'
     << static_cast<int>(c.site_bias) << '|' << double_hex(c.detectable_lambda_lo)
     << '|' << double_hex(c.detectable_lambda_hi) << '|' << c.n_defects << '|'
     << double_hex(c.clk_site_quantile) << '|' << c.calibration_sites << '|'
     << double_hex(c.global_weight) << '|' << double_hex(c.defect_mean_lo)
     << '|' << double_hex(c.defect_mean_hi) << '|'
     << double_hex(c.defect_three_sigma) << '|' << c.max_suspects << '|'
     << c.match_on_signature << '|' << c.include_logic_baseline << '|'
     << c.max_injection_retries << '|';
  for (const auto m : c.methods) os << static_cast<int>(m) << ',';
  os << '|' << c.pattern_config.paths_per_site << ','
     << c.pattern_config.candidate_paths << ',' << c.pattern_config.try_robust
     << ',' << c.pattern_config.site_search_patterns << ','
     << c.pattern_config.site_search_tries << ','
     << c.pattern_config.random_patterns << ',' << c.pattern_config.max_patterns
     << '|' << double_hex(c.library.buf_delay) << ','
     << double_hex(c.library.not_delay) << ',' << double_hex(c.library.nand_delay)
     << ',' << double_hex(c.library.nor_delay) << ','
     << double_hex(c.library.and_delay) << ',' << double_hex(c.library.or_delay)
     << ',' << double_hex(c.library.xor_delay) << ','
     << double_hex(c.library.xnor_delay) << ','
     << double_hex(c.library.arity_factor) << ','
     << double_hex(c.library.load_slope) << ','
     << double_hex(c.library.three_sigma_pct);
  return obs::artifact_fnv(os.str());
}

std::string encode_checkpoint_record(std::uint64_t run_id, std::size_t trial,
                                     const TrialRecord& r) {
  std::string ranks = "[";
  for (const int rank : r.rank_of_true) {
    if (ranks.size() > 1) ranks.push_back(',');
    ranks.append(std::to_string(rank));
  }
  ranks.push_back(']');
  std::string extra = "[";
  for (const auto& [arc, size] : r.extra_defects) {
    if (extra.size() > 1) extra.push_back(',');
    extra.append("[").append(std::to_string(arc)).append(",\"");
    extra.append(double_hex(size)).append("\"]");
  }
  extra.push_back(']');
  return obs::RecordMembers()
      .str("run_id", obs::hex64(run_id))
      .u64("trial", trial)
      .str("status", trial_status_name(r.status))
      .str("error_code", error_code_name(r.error_code))
      .u64("attempts", r.injection_attempts)
      .raw("failed_test", r.failed_test ? "true" : "false")
      .u64("patterns", r.n_patterns)
      .u64("failing_cells", r.n_failing_cells)
      .u64("suspects", r.n_suspects)
      .raw("true_in_suspects", r.true_arc_in_suspects ? "true" : "false")
      .raw("logic_rank", std::to_string(r.logic_baseline_rank))
      .u64("sample", r.chip.sample_index)
      .u64("arc", r.chip.defect_arc)
      .str("size", double_hex(r.chip.defect_size))
      .str("size_mean", double_hex(r.chip.size_mean))
      .raw("ranks", ranks)
      .raw("extra", extra)
      .str("message", r.error_message)
      .frame();
}

bool decode_checkpoint_record(std::string_view line, CheckpointRecord* out) {
  obs::JsonValue obj;
  return obs::unframe_record(line, &obj) &&
         journal_fields(obj, out) == JournalLine::kTrial;
}

CheckpointLoad load_checkpoint(const std::string& path,
                               std::uint64_t fingerprint) {
  CheckpointLoad load;
  load.skipped_lines =
      obs::scan_record_log(path, "checkpoint", [&](const obs::JsonValue& obj) {
        CheckpointRecord rec;
        const JournalLine kind = journal_fields(obj, &rec);
        if (kind == JournalLine::kBad) return false;
        if (rec.run_id != fingerprint) {
          throw IoError(
              "checkpoint " + path +
              " was written by a different experiment configuration; "
              "refusing to resume (delete it or drop --resume to start "
              "over)");
        }
        if (kind == JournalLine::kTrial) load.records.push_back(std::move(rec));
        return true;
      });
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint64_t fingerprint, bool resume)
    : fingerprint_(fingerprint),
      path_(path),
      log_(open_seam(path), resume ? obs::RecordLogWriter::Mode::kAppend
                                   : obs::RecordLogWriter::Mode::kTruncate) {
  log_.append(
      obs::RecordMembers().str("run_id", obs::hex64(fingerprint)).frame());
}

void CheckpointWriter::append(std::size_t trial, const TrialRecord& record) {
  if (obs::fault_at("ckpt.write", trial)) {
    throw IoError("checkpoint append failed for " + path_ +
                  ": injected fault (SDDD_FAULTS)");
  }
  log_.append(encode_checkpoint_record(fingerprint_, trial, record));
}

void write_experiment_json(const ExperimentResult& result,
                           const std::string& path) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"circuit\": " << obs::json_quote(result.circuit_name) << ",\n";
  // The experiment fingerprint, doubling as the run id every introspection
  // artifact (manifest, explain report) carries: equal run ids = same
  // deterministic computation.  A pure function of (circuit, config), so
  // it byte-matches across thread counts and checkpoint/resume cycles.
  os << "  \"run_id\": \""
     << obs::hex64(experiment_fingerprint(result.circuit_name, result.config))
     << "\",\n";
  os << "  \"seed\": " << result.config.seed << ",\n";
  os << "  \"n_chips\": " << result.config.n_chips << ",\n";
  os << "  \"mc_samples\": " << result.config.mc_samples << ",\n";
  os << "  \"clk\": " << obs::json_number(result.clk) << ",\n";
  // Deliberately no resumed_trials / timings here: they describe how the
  // run executed, not what it computed, and this file must byte-match
  // between an uninterrupted run and a kill+resume run.
  os << "  \"degraded\": " << (result.degraded ? "true" : "false") << ",\n";
  os << "  \"completed_trials\": " << result.completed_trials() << ",\n";
  os << "  \"quarantined_trials\": " << result.quarantined_trials() << ",\n";
  os << "  \"skipped_trials\": " << result.skipped_trials() << ",\n";
  os << "  \"diagnosable_trials\": " << result.diagnosable_trials() << ",\n";
  os << "  \"avg_suspects\": " << obs::json_number(result.avg_suspects())
     << ",\n";
  os << "  \"success\": {";
  bool first_m = true;
  for (const auto m : result.config.methods) {
    for (const int k : {1, 5}) {
      os << (first_m ? "\n" : ",\n") << "    \"m" << static_cast<int>(m)
         << "_top" << k
         << "\": " << obs::json_number(result.success_rate(m, k));
      first_m = false;
    }
  }
  os << "\n  },\n";
  os << "  \"trials\": [\n";
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const TrialRecord& t = result.trials[i];
    os << "    {\"trial\": " << i << ", \"status\": \""
       << trial_status_name(t.status) << "\"";
    if (t.status == TrialStatus::kQuarantined) {
      os << ", \"error_code\": \"" << error_code_name(t.error_code)
         << "\", \"error\": " << obs::json_quote(t.error_message);
    }
    os << ", \"attempts\": " << t.injection_attempts
       << ", \"sample\": " << t.chip.sample_index
       << ", \"arc\": " << t.chip.defect_arc
       << ", \"size\": " << obs::json_number(t.chip.defect_size)
       << ", \"suspects\": " << t.n_suspects << ", \"ranks\": [";
    for (std::size_t m = 0; m < t.rank_of_true.size(); ++m) {
      os << (m == 0 ? "" : ", ") << t.rank_of_true[m];
    }
    os << "], \"logic_rank\": " << t.logic_baseline_rank << "}"
       << (i + 1 < result.trials.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  obs::atomic_write_file_or_throw(path, os.str());
}

}  // namespace sddd::eval

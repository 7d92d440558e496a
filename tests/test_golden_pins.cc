// Golden pins for every value the checkability story keys on: the FNV-1a-64
// hash itself, the experiment fingerprint (run_id), one ledger line, one
// checkpoint journal line, the SDDDICT1 header/section checksums of a
// small store and the bytes a store serves for a fixed chip batch.  The
// literals were produced by the encoders as they stood before the shared
// codec (obs/codec.h) replaced the per-module copies, and before the store
// engine collapsed unobservable suspects (the served-bytes pins); they must
// never change: old ledgers, journals and stores have to keep opening, and
// a served diagnosis is a byte-identity contract.  This file uses only
// long-standing public entry points, so it compiles and passes unchanged on
// both sides of those refactors.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "introspect/manifest.h"
#include "netlist/synth.h"
#include "obs/codec.h"
#include "obs/ledger.h"
#include "store/query.h"
#include "store/store.h"
#include "test_tmp.h"

namespace sddd {
namespace {

std::uint64_t fnv_of_file_holding(const std::string& bytes) {
  const auto path = test::temp_path("golden_fnv.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return introspect::fnv1a_file(path.string());
}

// Every persisted hash is FNV-1a-64 started from 1469598103934665603, the
// textbook basis 14695981039346656037 with its last digit missing.  The
// empty input therefore hashes to that basis itself.
TEST(GoldenPins, ArtifactFnvVectors) {
  EXPECT_EQ(fnv_of_file_holding(""), 1469598103934665603ULL);
  EXPECT_EQ(fnv_of_file_holding("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv_of_file_holding("foobar"), 0x88fad7c0a8ff07f2ULL);
}

TEST(GoldenPins, ExperimentFingerprint) {
  eval::ExperimentConfig config;
  config.seed = 1234;
  config.n_chips = 3;
  config.mc_samples = 64;
  config.max_suspects = 77;
  EXPECT_EQ(eval::experiment_fingerprint("golden", config),
            0xde77b03634a1f185ULL);
}

obs::LedgerRecord golden_ledger_record() {
  obs::LedgerRecord rec;
  rec.run_id = "0123456789abcdef";
  rec.tool = "diagnose";
  rec.circuit = "s\"1\\96\t\x01";
  rec.git_sha = "abc1234";
  rec.seed = std::numeric_limits<std::uint64_t>::max();
  rec.threads = 4;
  rec.mc_samples = 200;
  rec.n_chips = 20;
  rec.bench = "serve";
  rec.clients = 8;
  rec.batch = 6;
  rec.wall_seconds = 12.625;
  rec.phases["setup_s"] = 1.0 / 3.0;
  rec.phases["trials_s"] = 10.0;
  rec.counters["diag.runs"] = 20;
  rec.counters["big"] = (std::uint64_t{1} << 53) + 1;
  rec.peak_rss_kb = 65536;
  rec.manifest_fnv = "00deadbeef001122";
  rec.result_fnv = "1122334455667788";
  rec.result_path = "out/result.json";
  rec.unix_ms = 1754600000000ULL;
  return rec;
}

constexpr const char* kGoldenLedgerLine =
    "{\"crc\":\"6d4afab06c518547\",\"v\":1,\"run_id\":\"0123456789abcdef\","
    "\"tool\":\"diagnose\",\"circuit\":\"s\\\"1\\\\96\\t\\u0001\","
    "\"git_sha\":\"abc1234\",\"seed\":18446744073709551615,\"threads\":4,"
    "\"mc_samples\":200,\"n_chips\":20,\"bench\":\"serve\",\"clients\":8,"
    "\"batch\":6,\"wall_seconds\":12.625,"
    "\"phases\":{\"setup_s\":0.333333333,\"trials_s\":10},"
    "\"counters\":{\"big\":9007199254740993,\"diag.runs\":20},"
    "\"peak_rss_kb\":65536,\"manifest_fnv\":\"00deadbeef001122\","
    "\"result_fnv\":\"1122334455667788\",\"result_path\":\"out/result.json\","
    "\"unix_ms\":1754600000000}";

TEST(GoldenPins, LedgerLine) {
  EXPECT_EQ(obs::encode_ledger_record(golden_ledger_record()),
            kGoldenLedgerLine);
  const obs::LedgerRecord want = golden_ledger_record();
  obs::LedgerRecord got;
  ASSERT_TRUE(obs::decode_ledger_record(kGoldenLedgerLine, &got));
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.run_id, want.run_id);
  EXPECT_EQ(got.tool, want.tool);
  EXPECT_EQ(got.circuit, want.circuit);
  EXPECT_EQ(got.git_sha, want.git_sha);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.mc_samples, want.mc_samples);
  EXPECT_EQ(got.n_chips, want.n_chips);
  EXPECT_EQ(got.bench, want.bench);
  EXPECT_EQ(got.clients, want.clients);
  EXPECT_EQ(got.batch, want.batch);
  EXPECT_EQ(got.wall_seconds, want.wall_seconds);
  ASSERT_EQ(got.phases.size(), 2u);
  EXPECT_EQ(got.phases.at("setup_s"), 0.333333333);  // %.9g on disk
  EXPECT_EQ(got.phases.at("trials_s"), 10.0);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.peak_rss_kb, want.peak_rss_kb);
  EXPECT_EQ(got.manifest_fnv, want.manifest_fnv);
  EXPECT_EQ(got.result_fnv, want.result_fnv);
  EXPECT_EQ(got.result_path, want.result_path);
  EXPECT_EQ(got.unix_ms, want.unix_ms);
}

eval::TrialRecord golden_trial() {
  eval::TrialRecord r;
  r.chip.sample_index = 17;
  r.chip.defect_arc = 42;
  r.chip.defect_size = 0.375;
  r.chip.size_mean = 1.0 / 3.0;
  r.extra_defects = {{5, 0.25}, {9, 2.5}};
  r.injection_attempts = 3;
  r.failed_test = true;
  r.n_patterns = 12;
  r.n_failing_cells = 4;
  r.n_suspects = 31;
  r.true_arc_in_suspects = true;
  r.rank_of_true = {0, -1, 3};
  r.logic_baseline_rank = 7;
  r.status = eval::TrialStatus::kQuarantined;
  r.error_code = ErrorCode::kNumeric;
  r.error_message = "boom\nsecond \\ line";
  return r;
}

constexpr const char* kGoldenJournalLine =
    "T 0f7db8afb97488ab 5 quarantined numeric 3 1 12 4 31 1 7 17 42 "
    "3fd8000000000000 3fd5555555555555 3 0 -1 3 2 5:3fd0000000000000 "
    "9:4004000000000000 m=boom\\nsecond \\\\ line";

TEST(GoldenPins, CheckpointJournalLine) {
  EXPECT_EQ(eval::encode_checkpoint_record(5, golden_trial()),
            kGoldenJournalLine);
  const eval::TrialRecord want = golden_trial();
  eval::CheckpointRecord got;
  ASSERT_TRUE(eval::decode_checkpoint_record(kGoldenJournalLine, &got));
  EXPECT_EQ(got.trial, 5u);
  const eval::TrialRecord& r = got.record;
  EXPECT_EQ(r.chip.sample_index, want.chip.sample_index);
  EXPECT_EQ(r.chip.defect_arc, want.chip.defect_arc);
  EXPECT_EQ(r.chip.defect_size, want.chip.defect_size);
  EXPECT_EQ(r.chip.size_mean, want.chip.size_mean);
  EXPECT_EQ(r.extra_defects, want.extra_defects);
  EXPECT_EQ(r.injection_attempts, want.injection_attempts);
  EXPECT_EQ(r.failed_test, want.failed_test);
  EXPECT_EQ(r.n_patterns, want.n_patterns);
  EXPECT_EQ(r.n_failing_cells, want.n_failing_cells);
  EXPECT_EQ(r.n_suspects, want.n_suspects);
  EXPECT_EQ(r.true_arc_in_suspects, want.true_arc_in_suspects);
  EXPECT_EQ(r.rank_of_true, want.rank_of_true);
  EXPECT_EQ(r.logic_baseline_rank, want.logic_baseline_rank);
  EXPECT_EQ(r.status, want.status);
  EXPECT_EQ(r.error_code, want.error_code);
  EXPECT_EQ(r.error_message, want.error_message);
  EXPECT_TRUE(r.from_checkpoint);
}

std::uint64_t u64_at(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);  // little-endian host
  return v;
}

TEST(GoldenPins, StoreHeaderAndSectionChecksums) {
  netlist::SynthSpec spec;
  spec.name = "golden";
  spec.n_inputs = 8;
  spec.n_outputs = 4;
  spec.n_gates = 30;
  spec.depth = 6;
  spec.seed = 5;
  store::StoreBuildConfig config;
  config.mc_samples = 24;
  config.pattern_sites = 2;
  config.max_patterns = 6;
  config.seed = 77;
  const std::string bytes =
      store::serialize_dictionary_store(netlist::synthesize(spec), config);

  // format.h: fixed scalars (108 bytes), u32 circuit_len + name, u64
  // total_bytes, then six {name[8], offset, bytes, crc} entries, then the
  // header crc.
  const std::size_t table_at = 108 + 4 + spec.name.size() + 8;
  const std::size_t header_crc_at = table_at + 6 * 32;
  ASSERT_GT(bytes.size(), header_crc_at + 8);
  EXPECT_EQ(u64_at(bytes, 16), 0x0d22ebcb639b809bULL);  // fingerprint
  EXPECT_EQ(u64_at(bytes, header_crc_at), 0x6ff31e642f9b9b02ULL);
  const std::uint64_t section_crcs[6] = {
      0x957cc8e6994b10d6ULL, 0x82d1838d683443a3ULL, 0x4073bf65198e87afULL,
      0x3320d3bd312f4894ULL, 0x3de80c96d4a96e1dULL, 0x8cfa72dbc2d9bfafULL};
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(u64_at(bytes, table_at + s * 32 + 24), section_crcs[s])
        << "section " << s;
  }
}

// The served response is what clients byte-compare, so pin the exact bytes
// diagnose_batch_json renders (by their artifact FNV) for a fixed batch of
// sampled chips, in both match modes, truncated and full.  Same circuit and
// build config as the store tests' small_config store.
TEST(GoldenPins, ServedDiagnoseBytes) {
  netlist::SynthSpec spec;
  spec.name = "storetest";
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 50;
  spec.depth = 7;
  spec.seed = 23;
  const netlist::Netlist nl = netlist::synthesize(spec);
  store::StoreBuildConfig config;
  config.mc_samples = 40;
  config.pattern_sites = 3;
  config.max_patterns = 8;
  config.seed = 31;
  const auto path = test::temp_path("golden_served.dict");
  store::build_dictionary_store(nl, config, path.string());
  const store::DictionaryStore st(path.string());
  const store::StoreQueryEngine engine(st);

  std::vector<store::ChipQuery> chips;
  for (const store::SampledChip& c : store::sample_failing_chips(nl, st, 8)) {
    chips.push_back({"chip" + std::to_string(chips.size()), c.B});
  }
  ASSERT_EQ(chips.size(), 8u);

  struct Pin {
    bool match_e;
    std::size_t top_k;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {true, 0, 0xd2c801150ca00de6ULL},
      {true, 10, 0x6dce5002db19952bULL},
      {false, 0, 0x312466f86c36086fULL},
      {false, 10, 0x4bd1ab6ce96b4666ULL},
  };
  for (const Pin& pin : pins) {
    const std::string bytes =
        store::diagnose_batch_json(engine, chips, pin.match_e, pin.top_k);
    EXPECT_EQ(obs::artifact_fnv(bytes), pin.fnv)
        << "match " << (pin.match_e ? 'e' : 's') << " top_k " << pin.top_k
        << ": got 0x" << obs::hex64(obs::artifact_fnv(bytes));
  }
}

}  // namespace
}  // namespace sddd

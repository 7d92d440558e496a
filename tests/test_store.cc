// Tests for the persistent dictionary store: build determinism, the
// StoreQueryEngine's bit-identity to an in-process Diagnoser over the
// same dictionary world in both match modes, the exactness condition of
// the engine's unobservable-suspect collapse, and the loader's corruption
// taxonomy (truncated tails, single bit flips, version and fingerprint
// mismatches) with the offending section named every time.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/faults.h"
#include "obs/metrics.h"
#include "store/query.h"
#include "store/store.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"
#include "test_tmp.h"

namespace sddd {
namespace {

struct FaultSpecGuard {
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

void write_raw(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

netlist::Netlist store_netlist() {
  netlist::SynthSpec spec;
  spec.name = "storetest";
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 50;
  spec.depth = 7;
  spec.seed = 23;
  return netlist::synthesize(spec);
}

store::StoreBuildConfig small_config() {
  store::StoreBuildConfig config;
  config.mc_samples = 40;
  config.pattern_sites = 3;
  config.max_patterns = 8;
  config.seed = 31;
  return config;
}

std::uint64_t injected_faults() {
  const auto counters = obs::MetricsRegistry::instance().snapshot().counters;
  const auto it = counters.find("fault.injected");
  return it == counters.end() ? 0 : it->second;
}

TEST(Store, SerializationIsDeterministic) {
  const auto nl = store_netlist();
  store::StoreBuildInfo a_info, b_info;
  const std::string a =
      store::serialize_dictionary_store(nl, small_config(), &a_info);
  const std::string b =
      store::serialize_dictionary_store(nl, small_config(), &b_info);
  EXPECT_EQ(a, b) << "same netlist + config must serialize byte-identically";
  EXPECT_EQ(a_info.fingerprint, b_info.fingerprint);
  EXPECT_GT(a_info.n_patterns, 0u);
  EXPECT_EQ(a.size(), a_info.bytes);
}

TEST(Store, RoundTripMatchesInMemoryDiagnoser) {
  const auto nl = store_netlist();
  const auto path = test::temp_path("roundtrip.dict");
  const auto config = small_config();
  store::build_dictionary_store(nl, config, path.string());

  const store::DictionaryStore st(path.string());
  EXPECT_EQ(st.circuit(), nl.name());
  EXPECT_EQ(st.mc_samples(), config.mc_samples);
  EXPECT_TRUE(store::verify_store_file(path.string()).ok);

  // The in-memory twin: the exact dictionary world the store serialized
  // (same field seeds, size model and clk), scored by the Diagnoser.
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib(config.library);
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField dict_field(model, config.mc_samples,
                                      config.global_weight,
                                      config.seed ^ 0xd1c7ULL);
  const logicsim::BitSimulator logic_sim(nl, lev);
  const timing::DynamicTimingSimulator dict_sim(dict_field, lev);
  const defect::DefectSizeModel size_model(
      model.mean_cell_delay(), config.defect_mean_lo, config.defect_mean_hi,
      config.defect_three_sigma, config.seed ^ 0x5e1fULL);
  const auto chips = store::sample_failing_chips(nl, st, 8);
  ASSERT_EQ(chips.size(), 8u);
  const auto patterns = st.patterns();
  const std::vector<diagnosis::Method> methods = {
      diagnosis::Method::kSimI, diagnosis::Method::kSimII,
      diagnosis::Method::kSimIII, diagnosis::Method::kRev};
  const store::StoreQueryEngine engine(st);
  // Both match modes, each against the scalar reference Diagnoser (no
  // signature cache, no collapse) as the oracle.
  for (const bool match_e : {true, false}) {
    diagnosis::DiagnoserConfig dcfg;
    dcfg.max_suspects = config.max_suspects;
    dcfg.capture_phi = true;
    dcfg.match_on_total_probability = match_e;
    const diagnosis::Diagnoser diagnoser(dict_sim, logic_sim, lev, size_model,
                                         dcfg);
    for (const auto& chip : chips) {
      const auto from_store = engine.diagnose(chip.B, methods, match_e, true);
      const auto in_memory =
          diagnoser.diagnose(patterns, chip.B, methods, st.clk());
      ASSERT_EQ(from_store.suspects, in_memory.suspects);
      for (std::size_t m = 0; m < methods.size(); ++m) {
        for (std::size_t s = 0; s < from_store.suspects.size(); ++s) {
          // Bit-identical, not approximately equal: the store holds the
          // raw doubles the Diagnoser would have computed.
          EXPECT_EQ(from_store.scores[m][s], in_memory.scores[m][s])
              << "match " << (match_e ? 'e' : 's');
          EXPECT_EQ(from_store.keys[m][s], in_memory.keys[m][s])
              << "match " << (match_e ? 'e' : 's');
        }
      }
      ASSERT_EQ(from_store.phi.size(), in_memory.phi.size());
      for (std::size_t s = 0; s < from_store.phi.size(); ++s) {
        EXPECT_EQ(from_store.phi[s], in_memory.phi[s])
            << "match " << (match_e ? 'e' : 's');
      }
    }
  }
}

// The engine scores every suspect outside a pattern's activity mask (the
// OR of its cone rows) from one shared baseline lane.  That is exact only
// if every such stored column is bit-equal to the baseline: E to M, and S
// to +0.0.  Check every (pattern, arc) pair of the store, and that the
// mask does leave some pairs out (otherwise the check proves nothing).
TEST(Store, UnobservableColumnsEqualTheBaseline) {
  const auto nl = store_netlist();
  const auto path = test::temp_path("unobservable.dict");
  store::build_dictionary_store(nl, small_config(), path.string());
  const store::DictionaryStore st(path.string());
  const store::StoreQueryEngine engine(st);
  const std::size_t n_outputs = st.n_outputs();
  const std::vector<double> zeros(n_outputs, 0.0);
  std::size_t outside = 0;
  for (std::size_t j = 0; j < st.n_patterns(); ++j) {
    for (netlist::ArcId a = 0; a < st.n_arcs(); ++a) {
      bool in_cone = false;
      for (std::size_t i = 0; i < n_outputs; ++i) {
        in_cone = in_cone || ((st.cone_row(j, i)[a >> 6] >> (a & 63)) & 1U);
      }
      ASSERT_EQ(engine.observable(j, a), in_cone)
          << "pattern " << j << " arc " << a;
      if (in_cone) continue;
      ++outside;
      EXPECT_EQ(std::memcmp(st.e_column(j, a), st.m_column(j),
                            n_outputs * sizeof(double)),
                0)
          << "pattern " << j << " arc " << a;
      // memcmp against +0.0, so a -0.0 would fail too.
      EXPECT_EQ(std::memcmp(st.s_column(j, a), zeros.data(),
                            n_outputs * sizeof(double)),
                0)
          << "pattern " << j << " arc " << a;
    }
  }
  EXPECT_GT(outside, 0u);
  EXPECT_LT(outside, st.n_patterns() * st.n_arcs());
}

TEST(Store, TruncatedTailNamesTheSection) {
  const auto nl = store_netlist();
  const std::string bytes =
      store::serialize_dictionary_store(nl, small_config());
  const auto path = test::temp_path("truncated.dict");
  write_raw(path, bytes.substr(0, bytes.size() - 16));
  const auto report = store::verify_store_file(path.string());
  EXPECT_FALSE(report.ok);
  // "sizes" is the final section, so a cut tail lands there.
  EXPECT_EQ(report.bad_section, "sizes") << report.message;
}

TEST(Store, SingleBitFlipNamesTheSection) {
  const auto nl = store_netlist();
  const auto good_path = test::temp_path("bitflip_good.dict");
  store::build_dictionary_store(nl, small_config(), good_path.string());
  const store::DictionaryStore good(good_path.string());
  std::ifstream in(good_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (const auto& sec : good.sections()) {
    std::string corrupt = bytes;
    corrupt[sec.offset + sec.bytes / 2] ^= 0x10;
    const auto path = test::temp_path("bitflip_" + sec.name + ".dict");
    write_raw(path, corrupt);
    const auto report = store::verify_store_file(path.string());
    EXPECT_FALSE(report.ok) << sec.name;
    EXPECT_EQ(report.bad_section, sec.name) << report.message;
  }
}

TEST(Store, VersionMismatchRejected) {
  const auto nl = store_netlist();
  std::string bytes = store::serialize_dictionary_store(nl, small_config());
  // Locate the header checksum: the u64 at position p equal to the FNV of
  // every byte before p.  Scanning is format-agnostic, so this test keeps
  // working if header fields are added.
  std::size_t crc_pos = 0;
  for (std::size_t p = 16; p + 8 <= std::min<std::size_t>(bytes.size(), 4096);
       ++p) {
    std::uint64_t at = 0;
    std::memcpy(&at, bytes.data() + p, 8);
    if (at == obs::artifact_fnv(std::string_view(bytes.data(), p))) {
      crc_pos = p;
      break;
    }
  }
  ASSERT_GT(crc_pos, 0u) << "header checksum not found";
  // Bump the format version (u32 after the 8-byte magic) and re-seal the
  // header so the version check, not the checksum, does the rejecting.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const std::uint64_t crc =
      obs::artifact_fnv(std::string_view(bytes.data(), crc_pos));
  std::memcpy(bytes.data() + crc_pos, &crc, 8);
  const auto path = test::temp_path("version.dict");
  write_raw(path, bytes);
  const auto report = store::verify_store_file(path.string());
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.bad_section, "header");
  EXPECT_NE(report.message.find("version"), std::string::npos)
      << report.message;
}

TEST(Store, FingerprintMismatchRejected) {
  const auto nl = store_netlist();
  const auto path = test::temp_path("fingerprint.dict");
  const auto info =
      store::build_dictionary_store(nl, small_config(), path.string());
  // The store opens under its own fingerprint, and refuses a foreign one.
  const store::DictionaryStore st(path.string(), info.fingerprint);
  EXPECT_EQ(st.run_id(), info.run_id);
  try {
    const store::DictionaryStore wrong(path.string(), info.fingerprint ^ 1);
    FAIL() << "foreign fingerprint must be rejected";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(Store, FaultSeamsCoverOpenAndChecksum) {
  const auto nl = store_netlist();
  const auto path = test::temp_path("faults.dict");
  store::build_dictionary_store(nl, small_config(), path.string());

  FaultSpecGuard guard;
  const std::uint64_t before = injected_faults();
  obs::set_fault_spec("store.open@*");
  EXPECT_THROW(store::DictionaryStore(path.string()), StoreError);
  EXPECT_GT(injected_faults(), before);

  obs::set_fault_spec("store.crc@*");
  const auto report = store::verify_store_file(path.string());
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace sddd

// format.h - On-disk layout of the persistent dictionary store (v1).
//
// A store file freezes one probabilistic fault dictionary - the full
// M / E / S probability matrices for a fixed (circuit, clk, pattern set) -
// so the hot score-chip path never rebuilds what the slow build-dictionary
// path already computed (ROADMAP's build/query split; the paper's storage
// feasibility question made concrete).  The file is designed to be
// memory-mapped read-only and fed straight into the packed score kernel:
// every probability section is a 64-byte-aligned array of raw IEEE-754
// doubles in exactly the layout phi_block wants to walk.
//
//   offset 0
//   +--------------------------------------------------------------+
//   | magic "SDDDICT1" (8 bytes)                                   |
//   | u32 format_version (= 1)    u32 n_sections (= 6)             |
//   | u64 fingerprint   <- experiment fingerprint / run_id         |
//   | u64 build_seed    u64 mc_samples                             |
//   | u64 clk_bits      <- bit-cast double                         |
//   | u32 n_inputs  u32 n_outputs  u32 n_patterns  u32 n_arcs      |
//   | u32 max_suspects                                             |
//   | u64 global_weight_bits  u64 size_unit_bits                   |
//   | u64 mean_lo_bits  u64 mean_hi_bits  u64 three_sigma_bits     |
//   | u32 circuit_len   char circuit[circuit_len]                  |
//   | u64 total_bytes   <- whole-file size (truncation check)      |
//   +--------------------------------------------------------------+
//   | section table: n_sections x                                  |
//   |   { char name[8] (NUL-padded), u64 offset, u64 bytes,        |
//   |     u64 crc (FNV-1a-64 of the section's bytes) }             |
//   +--------------------------------------------------------------+
//   | u64 header_crc    <- FNV-1a-64 of every byte before it       |
//   +--------------------------------------------------------------+
//   | sections, each padded to a 64-byte-aligned offset, in order: |
//   |   "patterns"  per pattern j: v1 then v2, each                |
//   |               ceil(n_inputs/64) u64 words (bit i = input i)  |
//   |   "cones"     per (pattern j, output row i):                 |
//   |               ceil(n_arcs/64) u64 words - the backward cone  |
//   |               over active arcs (suspect universe of that     |
//   |               failing cell, Algorithm E.1 step 1)            |
//   |   "m"         f64[n_patterns][n_outputs]    M_crt columns    |
//   |   "e"         f64[n_patterns][n_arcs][n_outputs] E_crt       |
//   |   "s"         same layout, S = max(E - M, 0)                 |
//   |   "sizes"     f64[n_arcs][mc_samples] defect-size tables     |
//   +--------------------------------------------------------------+
//
// Integrity: the header (including the section table) is covered by
// header_crc; every section is covered by its table entry's crc; the
// loader additionally requires the real file size to equal total_bytes.
// Any mismatch - truncated tail, flipped bit, wrong magic/version - is
// classified as sddd::StoreError naming the offending section ("header",
// "patterns", ..., or "file" for size/open problems), so the serve layer
// can quarantine precisely and tests can assert blame.
//
// Endianness: header scalars are serialized explicitly little-endian;
// section payloads are raw native arrays (mmapped in place), so the file
// is portable across little-endian hosts only - the repo's only targets.
//
// Both E and S are stored so either match mode (total probability E_crt,
// the default, or the paper-literal signature S_crt) serves without
// recomputation; DESIGN.md section 15 carries the full format table.
#pragma once

#include <cstdint>

namespace sddd::store {

inline constexpr char kStoreMagic[9] = "SDDDICT1";  // 8 bytes on disk
inline constexpr std::uint32_t kStoreFormatVersion = 1;
inline constexpr std::uint32_t kStoreSectionCount = 6;
inline constexpr std::uint64_t kStoreSectionAlign = 64;
inline constexpr std::uint64_t kStoreSectionNameLen = 8;

/// Section names in file order.
inline constexpr const char* kStoreSectionNames[kStoreSectionCount] = {
    "patterns", "cones", "m", "e", "s", "sizes"};

}  // namespace sddd::store

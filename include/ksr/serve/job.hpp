#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/serve/json.hpp"

// A job = MachineConfig knobs + workload name/params + seed + optional
// checkpoint preset (docs/SERVING.md): the one description of a NAS kernel
// run, whether ksrsim flags or serve JSON spell it. Every simulation in this
// repo is bit-deterministic — the same spec produces the same events_dispatched
// fingerprint and the same result values at any --jobs / --sim-threads — so
// a content hash of (spec, code version) is a *perfect* cache key for the
// result store. Execution policy (how many host threads run the job) is
// therefore deliberately NOT part of the spec.
namespace ksr::serve {

/// Bump when a change moves any pinned fingerprint (simulated semantics,
/// kernel schedules, machine timing): every cached result keyed under the
/// old version becomes unreachable and re-runs on first request. The
/// pinned-fingerprint stage of scripts/bench_host.sh --check is the tripwire
/// that tells you a bump is due.
inline constexpr std::uint32_t kCodeVersion = 1;

struct JobSpec {
  // --- machine knobs ---
  std::string machine = "ksr1";  // ksr1|ksr2|symmetry|butterfly
  unsigned procs = 8;
  unsigned scale = 1;            // MachineConfig::scaled_by
  bool snarf = true;             // read_snarfing
  std::uint64_t fuzz_seed = 0;   // sched_fuzz_seed
  unsigned cells_per_leaf = 0;   // 0 = preset
  unsigned cells_per_domain = 0; // 0 = single domain

  // --- workload ---
  std::string workload = "cg";   // ep|cg|is|sp|bt
  std::uint64_t seed = 0;        // 0 = the kernel's published default seed
  // Size parameters; 0 (or false) means the kernel default run_job applies
  // for that workload. Unused parameters for a workload are ignored at
  // execution but still keyed — two spellings of the same job may occupy
  // two cache slots (conservative), a shared slot can never collide.
  unsigned log2_keys = 0;        // is
  unsigned log2_buckets = 0;     // is
  bool pad_buckets = false;      // is
  unsigned n = 0;                // cg/sp/bt
  unsigned nnz_per_row = 0;      // cg
  unsigned iters = 0;            // cg/sp/bt
  unsigned log2_pairs = 0;       // ep
  // Checkpoint preset (is only): restore the machine from this image and
  // run the timed split-phase ranking instead of the warm-up
  // (docs/CHECKPOINT.md). The *contents* of the file are folded into the
  // cache key, so the preset is itself content-addressed.
  std::string restore_from;
  // SP data layout and prefetch (sp). Off by default in a JSON spec, which
  // keeps every result cached before these fields existed; on by default on
  // the command line (--no-padding / --no-prefetch turn them off).
  bool padded_layout = false;
  bool use_prefetch = false;

  /// Empty string when the spec is well-formed, else a diagnostic. Validates
  /// the vocabulary and builds the MachineConfig once to run its validate().
  [[nodiscard]] std::string validate() const;

  /// Canonical fixed-field-order serialization — the byte string the cache
  /// key hashes. Includes every field (plus the FNV-1a of the checkpoint
  /// preset's bytes when one is named), so any change to any field, seed or
  /// preset changes the key.
  [[nodiscard]] std::string canonical() const;

  [[nodiscard]] Json to_json() const;
  /// Populate from a JSON object (unknown keys are errors — a typo'd knob
  /// must not silently run with defaults). Fields absent keep defaults.
  static bool from_json(const Json& j, JobSpec* out, std::string* err);

  /// A ksrsim flag of the spec (`--name`, `--no-snarf`, `--log2-keys`, ...
  /// and `--leaf-rings`). Boolean flags take no value.
  struct Flag {
    const char* name;
    bool takes_value;
  };
  [[nodiscard]] static std::vector<Flag> flags();

  /// A flag's value, "" for a bare boolean flag, nullptr when absent.
  using FlagLookup = std::function<const std::string*(std::string_view)>;
  /// Populate from command-line flags. A boolean flag flips its field from
  /// the command-line default: the JSON default, except that SP padding and
  /// prefetch are on. `--leaf-rings L` sets procs to L x cells per leaf.
  static bool from_flags(const FlagLookup& flag, JobSpec* out,
                         std::string* err);
};

struct CacheKey {
  std::uint64_t value = 0;
  [[nodiscard]] std::string hex() const;
};

/// FNV-1a over canonical() plus the version stamps (kCodeVersion and the
/// checkpoint format version). Throws std::runtime_error when the spec
/// names a checkpoint preset that cannot be read.
[[nodiscard]] CacheKey derive_key(const JobSpec& spec,
                                  std::uint32_t code_version = kCodeVersion);

struct JobOutcome {
  std::uint64_t events = 0;  // the determinism fingerprint
  double seconds = 0.0;      // simulated seconds (the result's "seconds")
  std::string result;        // deterministic result JSON (the cached bytes)
};

/// The machine the spec's knobs describe. `sim_threads` is host execution
/// policy — results are bit-identical for any value (docs/PARALLEL.md).
/// Throws std::invalid_argument for an unknown machine name, a zero procs
/// or scale, or a shape MachineConfig::validate() rejects.
[[nodiscard]] machine::MachineConfig machine_config(const JobSpec& spec,
                                                    unsigned sim_threads = 1);

/// Run the spec's workload on `m`, built from machine_config() (callers may
/// attach tracers or checkers in between). A non-empty `checkpoint_at` (is
/// only) writes the machine at the split-phase warm-up boundary.
[[nodiscard]] JobOutcome run_job(const JobSpec& spec, machine::Machine& m,
                                 const std::string& checkpoint_at = {});

/// run_job on a freshly built machine.
[[nodiscard]] JobOutcome execute(const JobSpec& spec, unsigned sim_threads = 1);

}  // namespace ksr::serve

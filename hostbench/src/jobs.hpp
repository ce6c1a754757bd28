#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ksr/machine/machine.hpp"

// Batch jobs of the benchmark: what one simulation is, how it is built from
// the workload seed, how it runs through the simulator's public API, and the
// counters read back from public getters afterwards.
namespace hostbench {

enum class JobKind { kNas, kIsFork, kLock, kBarrier, kScaleOut };

struct BenchJob {
  JobKind kind = JobKind::kNas;
  std::string id;       // catalogue id: the key into pins.json
  std::string kernel;   // nas kernel, lock kind or barrier kind
  std::string machine = "ksr1";
  unsigned procs = 8;
  unsigned scale = 64;
  unsigned size = 0;    // is log2 keys | cg n | ep log2 pairs | sp/bt edge
  unsigned size2 = 0;   // is log2 buckets | cg nnz per row
  unsigned iters = 0;   // cg/sp/bt iterations
  std::uint64_t data_seed = 0;  // is/cg/ep input seed (0 = kernel default)
  std::uint64_t fuzz_seed = 0;  // schedule fuzz seed
  unsigned ops = 0;             // lock ops per cell or barrier episodes
  unsigned read_pct = 0;        // rw lock
  bool prefetch = true;         // is forks
  unsigned cells_per_domain = 0;
};

[[nodiscard]] ksr::machine::MachineConfig machine_config(const BenchJob& j);

/// Exact simulated counters, summed over a batch. Identical on every run of
/// the same inputs, traced or not, at any host thread count.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t subcache_misses = 0;
  std::uint64_t localcache_misses = 0;
  std::uint64_t ring_requests = 0;
  std::uint64_t ring_nacks = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t snarfs = 0;
  std::uint64_t dir_requests = 0;
  std::uint64_t dir_nacks = 0;
  std::uint64_t inject_wait_ns = 0;
  std::uint64_t ring_busy_slot_ns = 0;
  std::uint64_t ring_slot_ns = 0;  // Σ slots × elapsed over every ring
  std::uint64_t traffic = 0;       // leaf-to-leaf packets
  std::uint64_t traffic_cross = 0; // of which between different leaves
  std::uint64_t quanta = 0;
  std::uint64_t boundary_packets = 0;
  std::uint64_t lock_ops = 0;
  std::uint64_t barrier_episodes = 0;
  std::uint64_t image_bytes = 0;
  double simulated_s = 0.0;

  void add(const Counters& o);
  /// name → value, the per-layer spelling (machine.ring_requests, ...).
  [[nodiscard]] std::map<std::string, double> exact_metrics() const;
};

/// Wall-clock self-profile of the ParallelEngine (varies run to run).
struct EngineProfile {
  std::uint64_t phase_wall_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t slot_ns = 0;  // threads × phase_wall_ns
  std::uint64_t quanta = 0;
  std::uint64_t critical_quanta = 0;  // quanta the critical domain was slowest
  void add(const EngineProfile& o);
};

struct JobResult {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;  // FNV-1a over the job's result values
  bool valid = true;         // kernel self-check (IS ranks form a sort)
  Counters counters;
  EngineProfile engine;
  double wall_s = 0.0;
};

/// A warm IS machine captured once in set-up; fork jobs restore it.
struct WarmStart {
  BenchJob donor;
  std::vector<std::byte> image;
};

/// Run the donor's IS warm-up and capture the checkpoint image.
[[nodiscard]] WarmStart capture_warm(const BenchJob& donor);

/// Build the job's machine (a machine.build span).
[[nodiscard]] std::unique_ptr<ksr::machine::Machine> build(
    const BenchJob& j, std::uint32_t job_index);

/// Run one job, on `m` when given, else on a freshly built machine. `warm`
/// is required for forks. `parent_span` links the job to its round.
[[nodiscard]] JobResult run_job(
    const BenchJob& j, const WarmStart* warm, std::uint32_t job_index,
    std::uint32_t parent_span = 0,
    std::unique_ptr<ksr::machine::Machine> m = nullptr);

/// Read every counter of a finished machine through its public getters.
void collect(ksr::machine::Machine& m, JobResult& r);

/// Digest helpers (FNV-1a over "%.17g;" renderings).
class Digest {
 public:
  Digest& add(double v);
  Digest& add(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const;

 private:
  std::string buf_;
};

[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] std::uint64_t bytes_digest(const std::string& bytes);

/// Failed operations of a run: a count plus the first few reasons.
struct Failures {
  std::uint64_t count = 0;
  std::vector<std::string> reasons;
  void add(const std::string& why) {
    ++count;
    if (reasons.size() < 20) reasons.push_back(why);
  }
};

/// Pinned (events, digest) per catalogue id, recorded on the seed code.
struct Pin {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};
using Pins = std::map<std::string, Pin>;
[[nodiscard]] Pins load_pins(const std::string& path);

// ---- Workload inputs. Each batch is drawn from the workload seed; every
// draw lies in the finite catalogue that pins.json covers. ----

/// nas-sweep batch (forks reference the warm donor below).
[[nodiscard]] std::vector<BenchJob> nas_batch(std::uint64_t seed);
[[nodiscard]] BenchJob nas_warm_donor(std::uint64_t seed);
[[nodiscard]] std::vector<BenchJob> sync_batch(std::uint64_t seed);
/// The sync-contention set-up's warm-up experiments (catalogue jobs, longest
/// first), run on the batch's pool.
[[nodiscard]] std::vector<BenchJob> sync_warmup_jobs();
[[nodiscard]] BenchJob scaleout_job(std::uint64_t seed);

/// Every job any seed can draw, for pinning.
[[nodiscard]] std::vector<BenchJob> nas_catalogue();
[[nodiscard]] std::vector<BenchJob> nas_donor_catalogue();
[[nodiscard]] std::vector<BenchJob> sync_catalogue();
[[nodiscard]] std::vector<BenchJob> scaleout_catalogue();

/// Longest first by pinned event count (ties keep catalogue order).
void order_longest_first(std::vector<BenchJob>& jobs, const Pins& pins);

/// Deterministic 64-bit generator for input draws (SplitMix64).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace hostbench

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "ksr/serve/job.hpp"

// serve-replay: an in-process SocketServer on an AF_UNIX socket with a fresh
// store, driven by two closed-loop Client connections replaying a seeded
// Zipf stream over a pool of small jobs plus the committed IS preset.
namespace hostbench {

struct ServeItem {
  std::string id;  // catalogue id (pins.json key)
  ksr::serve::JobSpec spec;
  bool preset = false;
};

/// The pool a seed draws (each small-job shape with four of its eight input
/// variants) plus the preset job.
[[nodiscard]] std::vector<ServeItem> serve_pool(std::uint64_t seed,
                                                const std::string& preset);
/// Every item any seed can draw, for pinning.
[[nodiscard]] std::vector<ServeItem> serve_catalogue(const std::string& preset);

struct ServeStream {
  std::vector<ServeItem> pool;
  std::vector<std::size_t> order;  // indices into pool, in send order
  std::vector<std::string> lines;  // request line per order entry
};

/// Every pool item at least once, then Zipf(1) draws over seed-permuted
/// ranks, a quarter of all requests being the preset job, shuffled.
[[nodiscard]] ServeStream make_stream(std::uint64_t seed,
                                      const std::string& preset);

struct ServeSample {
  double latency_us = 0.0;
  bool cached = false;
  bool preset = false;
};

struct ServeRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;  // Σ events_dispatched of executed replies
  std::vector<ServeSample> samples;
  std::map<std::string, std::uint64_t> stats;  // the daemon's stats op
  double ping_us = 0.0;  // median ping round trip (probe rounds only)
};

/// One round on a fresh server and store under `work_dir`. Replies are
/// checked against `pins` and against each other (same key, same bytes);
/// every mismatch is added to `failures`.
[[nodiscard]] ServeRound serve_round(std::uint64_t seed,
                                     const std::string& preset,
                                     const std::string& work_dir,
                                     const Pins& pins, unsigned round,
                                     bool probe_ping, Failures& failures);

/// Median host time of serve::derive_key on the preset job, µs.
[[nodiscard]] double probe_key_us(const std::string& preset);

}  // namespace hostbench

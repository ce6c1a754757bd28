#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ksr/machine/machine.hpp"

// The nine barrier implementations of Fig. 4 / Fig. 5 (paper §3.2.2):
//
//   counter        — naive central counter; every arrival serializes on one
//                    hot sub-page and every spinner re-fetches it.
//   tree           — dynamic binary combining tree (fetch&decrement per pair
//                    node), tree-based wake-up.
//   tree(M)        — same arrival, global wake-up flag set by the last
//                    arriver (with poststore); snarfing releases everybody.
//   dissemination  — log2(P) rounds of P messages (Hensgen/Finkel/Manber).
//   tournament     — statically paired binary tree; losers notify winners,
//                    wake-up walks the binary tree back down.
//   tournament(M)  — tournament arrival, global wake-up flag.
//   MCS            — 4-ary arrival tree with the children's flags PACKED
//                    into one 32-bit word (intentional false sharing, as in
//                    the original algorithm), binary wake-up tree.
//   MCS(M)         — MCS arrival, global wake-up flag.
//   system         — the vendor pthread-style barrier (modelled as the
//                    dynamic tree with global flag plus library overhead,
//                    which is how it measures on the real machine).
//
// All barriers are reusable (epoch counters, no re-initialisation between
// episodes) and work on any Machine.
namespace ksr::sync {

enum class BarrierKind {
  kCounter,
  kTree,
  kTreeM,
  kDissemination,
  kTournament,
  kTournamentM,
  kMcs,
  kMcsM,
  kSystem,
};

[[nodiscard]] constexpr std::string_view to_string(BarrierKind k) noexcept {
  switch (k) {
    case BarrierKind::kCounter: return "counter";
    case BarrierKind::kTree: return "tree";
    case BarrierKind::kTreeM: return "tree(M)";
    case BarrierKind::kDissemination: return "dissemination";
    case BarrierKind::kTournament: return "tournament";
    case BarrierKind::kTournamentM: return "tournament(M)";
    case BarrierKind::kMcs: return "MCS";
    case BarrierKind::kMcsM: return "MCS(M)";
    case BarrierKind::kSystem: return "system";
  }
  return "?";
}

/// Command-line names of the nine kinds (ksrsim --kind, the examples).
inline constexpr std::pair<std::string_view, BarrierKind> kBarrierCliNames[] =
    {{"counter", BarrierKind::kCounter},
     {"tree", BarrierKind::kTree},
     {"tree-m", BarrierKind::kTreeM},
     {"dissemination", BarrierKind::kDissemination},
     {"tournament", BarrierKind::kTournament},
     {"tournament-m", BarrierKind::kTournamentM},
     {"mcs", BarrierKind::kMcs},
     {"mcs-m", BarrierKind::kMcsM},
     {"system", BarrierKind::kSystem}};

/// The kind a command-line name selects; nullopt for an unknown name.
[[nodiscard]] constexpr std::optional<BarrierKind> barrier_kind_from_cli(
    std::string_view name) noexcept {
  for (const auto& [n, k] : kBarrierCliNames) {
    if (n == name) return k;
  }
  return std::nullopt;
}

/// All nine kinds, in the order the paper's figures list them.
[[nodiscard]] std::vector<BarrierKind> all_barrier_kinds();

class Barrier {
 public:
  virtual ~Barrier() = default;
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Block until every cell of the machine has arrived. When a tracer is
  /// attached to the cpu's machine, the episode is bracketed with
  /// sync/barrier-arrive + barrier-depart events (subject = this cpu's
  /// episode number, detail of the depart = episode duration in ns); with no
  /// tracer attached this is one null test around do_arrive().
  void arrive(machine::Cpu& cpu) {
    obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id());
    if (tr == nullptr) {
      do_arrive(cpu);
      return;
    }
    const std::uint32_t episode = ++episode_[cpu.id()];
    const sim::Time t0 = cpu.now();
    tr->log(t0, obs::kCatSync, obs::kEvBarrierArrive, episode, cpu.id());
    do_arrive(cpu);
    tr->log(cpu.now(), obs::kCatSync, obs::kEvBarrierDepart, episode, cpu.id(),
            static_cast<std::int64_t>(cpu.now() - t0));
  }

  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  explicit Barrier(unsigned nproc) : episode_(nproc, 0) {}

  /// The barrier algorithm itself (timestamps come from the cpu's local
  /// clock, so the logged episode bounds are exactly what the paper times).
  virtual void do_arrive(machine::Cpu& cpu) = 0;

 private:
  std::vector<std::uint32_t> episode_;  // per-cpu trace episode counters
};

/// Build a barrier of `kind` for all nproc cells of `m`. `use_poststore`
/// lets experiments ablate the poststore assist on wake-up flags.
[[nodiscard]] std::unique_ptr<Barrier> make_barrier(machine::Machine& m,
                                                    BarrierKind kind,
                                                    bool use_poststore = true);

}  // namespace ksr::sync

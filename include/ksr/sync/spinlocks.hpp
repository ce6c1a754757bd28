#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ksr/machine/machine.hpp"
#include "ksr/sync/padded.hpp"

// The classic spin-lock alternatives of Anderson [1] and
// Mellor-Crummey/Scott [13], ported to the simulated machines.
//
// The paper builds its read-write lock from Anderson's ticket lock and cites
// both studies; this header provides the full family so the trade-offs those
// papers measured can be replayed on the KSR's ring, the Symmetry's bus and
// the Butterfly:
//
//   test&set            — one hot sub-page, hardware Atomic state per try;
//   test&set w/ backoff — same, with bounded exponential backoff;
//   ticket              — FCFS; spins on a hot "now serving" counter
//                         (read-snarfing makes the refresh cheap on KSR);
//   Anderson array      — FCFS; each waiter spins on its OWN slot
//                         (one sub-page per slot: no hot spot);
//   MCS queue           — FCFS; waiters form a linked queue, each spinning
//                         on a flag in its own sub-page; O(1) traffic per
//                         hand-off even without coherent broadcast.
namespace ksr::sync {

enum class SpinLockKind {
  kTestAndSet,
  kTestAndSetBackoff,
  kTicket,
  kAnderson,
  kMcsQueue,
};

[[nodiscard]] constexpr std::string_view to_string(SpinLockKind k) noexcept {
  switch (k) {
    case SpinLockKind::kTestAndSet: return "test&set";
    case SpinLockKind::kTestAndSetBackoff: return "test&set+backoff";
    case SpinLockKind::kTicket: return "ticket";
    case SpinLockKind::kAnderson: return "anderson";
    case SpinLockKind::kMcsQueue: return "mcs-queue";
  }
  return "?";
}

/// Command-line names of the five kinds (ksrsim lock --kind).
inline constexpr std::pair<std::string_view, SpinLockKind> kSpinLockCliNames[] =
    {{"tas", SpinLockKind::kTestAndSet},
     {"tas-backoff", SpinLockKind::kTestAndSetBackoff},
     {"ticket", SpinLockKind::kTicket},
     {"anderson", SpinLockKind::kAnderson},
     {"mcs-queue", SpinLockKind::kMcsQueue}};

/// The kind a command-line name selects; nullopt for an unknown name.
[[nodiscard]] constexpr std::optional<SpinLockKind> spinlock_kind_from_cli(
    std::string_view name) noexcept {
  for (const auto& [n, k] : kSpinLockCliNames) {
    if (n == name) return k;
  }
  return std::nullopt;
}

[[nodiscard]] std::vector<SpinLockKind> all_spinlock_kinds();

class SpinLock {
 public:
  virtual ~SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  /// With a tracer attached, acquisition is bracketed with sync/lock-acquire
  /// (start of the attempt) and lock-acquired (lock held; detail = wait ns);
  /// release logs lock-release. Without one, a single null test each.
  void acquire(machine::Cpu& cpu) {
    obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id());
    if (tr == nullptr) {
      do_acquire(cpu);
      return;
    }
    const sim::Time t0 = cpu.now();
    tr->log(t0, obs::kCatSync, obs::kEvLockAcquire, 0, cpu.id());
    do_acquire(cpu);
    tr->log(cpu.now(), obs::kCatSync, obs::kEvLockAcquired, 0, cpu.id(),
            static_cast<std::int64_t>(cpu.now() - t0));
  }

  void release(machine::Cpu& cpu) {
    do_release(cpu);
    if (obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id())) {
      tr->log(cpu.now(), obs::kCatSync, obs::kEvLockRelease, 0, cpu.id());
    }
  }

  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  SpinLock() = default;

  virtual void do_acquire(machine::Cpu& cpu) = 0;
  virtual void do_release(machine::Cpu& cpu) = 0;
};

/// Build a spin lock of `kind` sized for all cells of `m`.
[[nodiscard]] std::unique_ptr<SpinLock> make_spinlock(machine::Machine& m,
                                                      SpinLockKind kind);

}  // namespace ksr::sync

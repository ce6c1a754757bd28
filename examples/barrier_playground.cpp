// Barrier playground: run any of the paper's nine barrier algorithms on any
// of the three simulated machines and watch what the memory system does.
//
//   $ ./barrier_playground [barrier] [machine] [procs] [episodes]
//   $ ./barrier_playground tournament-m ksr1 32 50
//   $ ./barrier_playground counter symmetry 16
//
// Machines: ksr1, ksr2, symmetry, butterfly.
// Barriers: counter, tree, tree-m, dissemination, tournament, tournament-m,
//           mcs, mcs-m, system.
#include <cstdio>
#include <string>

#include "ksr/machine/factory.hpp"
#include "ksr/sync/barrier.hpp"

int main(int argc, char** argv) try {
  using namespace ksr;  // NOLINT

  const std::string barrier_name = argc > 1 ? argv[1] : "tournament-m";
  const std::string machine_name = argc > 2 ? argv[2] : "ksr1";
  const unsigned procs = argc > 3 ? static_cast<unsigned>(std::stoul(argv[3]))
                                  : 16u;
  const int episodes = argc > 4 ? std::stoi(argv[4]) : 25;

  const auto kind = sync::barrier_kind_from_cli(barrier_name);
  if (!kind) {
    std::fprintf(stderr, "unknown barrier '%s'; options:", barrier_name.c_str());
    for (const auto& [k, v] : sync::kBarrierCliNames) {
      std::fprintf(stderr, " %s", std::string(k).c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  auto m = machine::make_machine(
      machine::MachineConfig::preset(machine_name, procs));
  auto barrier = sync::make_barrier(*m, *kind);

  std::printf("%s barrier, %u processors on %s\n",
              std::string(barrier->name()).c_str(), procs,
              machine::to_string(m->config().kind));

  double total = 0;
  auto res = m->run([&](machine::Cpu& cpu) {
    barrier->arrive(cpu);  // warm-up
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));  // arrival skew
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > total) total = cpu.seconds() - t0;
  });

  std::printf("  %.1f us per episode (%d episodes)\n",
              total / episodes * 1e6, episodes);
  std::printf("  machine-wide during the run:\n");
  std::printf("    network transactions : %llu\n",
              static_cast<unsigned long long>(res.pmon.ring_requests));
  std::printf("    atomic NACK retries  : %llu\n",
              static_cast<unsigned long long>(res.pmon.ring_nacks));
  std::printf("    invalidations        : %llu\n",
              static_cast<unsigned long long>(res.pmon.invalidations_received));
  std::printf("    snarfs               : %llu\n",
              static_cast<unsigned long long>(res.pmon.snarfs));
  std::printf("    poststores           : %llu\n",
              static_cast<unsigned long long>(res.pmon.poststores_issued));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "barrier_playground: %s\n", e.what());
  return 1;
}

#include "jobs.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/bt.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/ep.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/obs/topo.hpp"
#include "ksr/serve/json.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/spinlocks.hpp"
#include "trace.hpp"

namespace hostbench {

using ksr::machine::Cpu;
using ksr::machine::Machine;
using ksr::machine::MachineConfig;

// ---------------------------------------------------------------- helpers

Digest& Digest::add(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g;", v);
  buf_ += b;
  return *this;
}

Digest& Digest::add(std::uint64_t v) {
  buf_ += std::to_string(v);
  buf_ += ';';
  return *this;
}

std::uint64_t Digest::value() const {
  return ksr::ckpt::fnv1a(reinterpret_cast<const std::byte*>(buf_.data()),
                          buf_.size());
}

std::uint64_t bytes_digest(const std::string& bytes) {
  return ksr::ckpt::fnv1a(reinterpret_cast<const std::byte*>(bytes.data()),
                          bytes.size());
}

std::string hex64(std::uint64_t v) {
  char b[17];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
  return b;
}

void Counters::add(const Counters& o) {
  events += o.events;
  subcache_misses += o.subcache_misses;
  localcache_misses += o.localcache_misses;
  ring_requests += o.ring_requests;
  ring_nacks += o.ring_nacks;
  invalidations += o.invalidations;
  snarfs += o.snarfs;
  dir_requests += o.dir_requests;
  dir_nacks += o.dir_nacks;
  inject_wait_ns += o.inject_wait_ns;
  ring_busy_slot_ns += o.ring_busy_slot_ns;
  ring_slot_ns += o.ring_slot_ns;
  traffic += o.traffic;
  traffic_cross += o.traffic_cross;
  quanta += o.quanta;
  boundary_packets += o.boundary_packets;
  lock_ops += o.lock_ops;
  barrier_episodes += o.barrier_episodes;
  image_bytes += o.image_bytes;
  simulated_s += o.simulated_s;
}

namespace {
double ppm(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return 0.0;
  return static_cast<double>(static_cast<unsigned __int128>(num) * 1'000'000u /
                             den);
}
}  // namespace

std::map<std::string, double> Counters::exact_metrics() const {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(events)},
      {"sim.quanta", d(quanta)},
      {"sim.boundary_packets", d(boundary_packets)},
      {"machine.subcache_misses", d(subcache_misses)},
      {"machine.localcache_misses", d(localcache_misses)},
      {"machine.ring_requests", d(ring_requests)},
      {"machine.ring_nacks", d(ring_nacks)},
      {"machine.invalidations", d(invalidations)},
      {"machine.snarfs", d(snarfs)},
      {"machine.dir_requests", d(dir_requests)},
      {"machine.dir_nacks", d(dir_nacks)},
      {"net.ring_busy_ppm", ppm(ring_busy_slot_ns, ring_slot_ns)},
      {"net.inject_wait_ns", d(inject_wait_ns)},
      {"net.cross_leaf_ppm", ppm(traffic_cross, traffic)},
      {"sync.lock_ops", d(lock_ops)},
      {"sync.barrier_episodes", d(barrier_episodes)},
      {"nas.simulated_s", simulated_s},
      {"ckpt.image_bytes", d(image_bytes)},
  };
}

void EngineProfile::add(const EngineProfile& o) {
  phase_wall_ns += o.phase_wall_ns;
  barrier_wait_ns += o.barrier_wait_ns;
  slot_ns += o.slot_ns;
  quanta += o.quanta;
  critical_quanta += o.critical_quanta;
}

MachineConfig machine_config(const BenchJob& j) {
  MachineConfig c = j.machine == "ksr2" ? MachineConfig::ksr2(j.procs)
                                        : MachineConfig::ksr1(j.procs);
  if (j.scale > 1) c = c.scaled_by(j.scale);
  c.sched_fuzz_seed = j.fuzz_seed;
  // One engine thread everywhere: mode B's threaded quantum hand-offs
  // made round times swing by up to 2x on a 4-vCPU VM (README.md).
  c.sim_threads = 1;
  c.cells_per_domain = j.cells_per_domain;
  return c;
}

void collect(Machine& m, JobResult& r) {
  Counters& c = r.counters;
  ksr::sim::ParallelEngine& pe = m.parallel_engine();
  c.events = pe.events_dispatched();
  c.quanta = pe.quanta();
  c.boundary_packets = pe.boundary_packets();
  for (unsigned cell = 0; cell < m.nproc(); ++cell) {
    const ksr::cache::PerfMonitor& p = m.cell_pmon(cell);
    c.subcache_misses += p.subcache_misses;
    c.localcache_misses += p.localcache_misses;
    c.ring_requests += p.ring_requests;
    c.ring_nacks += p.ring_nacks;
    c.invalidations += p.invalidations_received;
    c.snarfs += p.snarfs;
    c.inject_wait_ns += p.inject_wait_ns;
  }
  ksr::obs::topo::Snapshot s;
  m.topo_snapshot(s);
  for (const auto& ring : s.rings) {
    c.ring_busy_slot_ns += ring.busy_slot_ns;
    c.ring_slot_ns += ring.slots * ring.elapsed_ns;
  }
  for (const auto& shard : s.shards) {
    c.dir_requests += shard.requests;
    c.dir_nacks += shard.nacks;
  }
  for (unsigned a = 0; a < s.leaves; ++a) {
    for (unsigned b = 0; b < s.leaves; ++b) {
      const std::uint64_t n = s.traffic.empty() ? 0 : s.traffic_at(a, b);
      c.traffic += n;
      if (a != b) c.traffic_cross += n;
    }
  }
  if (m.domains() > 1) {
    const auto hp = pe.host_profile();
    r.engine.phase_wall_ns = hp.phase_wall_ns;
    r.engine.barrier_wait_ns = hp.barrier_wait_ns;
    r.engine.slot_ns = static_cast<std::uint64_t>(hp.threads) * hp.phase_wall_ns;
    r.engine.quanta = hp.quanta;
    if (!hp.critical_quanta.empty()) {
      r.engine.critical_quanta = hp.critical_quanta[hp.critical_domain()];
    }
  }
  r.events = c.events;
}

// ---------------------------------------------------------------- running

std::unique_ptr<Machine> build(const BenchJob& j, std::uint32_t job_index) {
  Span s("machine.build", job_index);
  return ksr::machine::make_machine(machine_config(j));
}

namespace {

const char* nas_layer(const std::string& k) {
  if (k == "is") return "nas.is";
  if (k == "cg") return "nas.cg";
  if (k == "ep") return "nas.ep";
  if (k == "sp") return "nas.sp";
  return "nas.bt";
}

ksr::nas::IsConfig is_config(const BenchJob& j) {
  ksr::nas::IsConfig c;
  c.log2_keys = j.size;
  c.log2_buckets = j.size2;
  if (j.data_seed != 0) c.seed = j.data_seed;
  c.use_prefetch = j.prefetch;
  return c;
}

Digest is_digest(const ksr::nas::IsResult& res) {
  Digest d;
  d.add(res.seconds).add(res.serial_phase_seconds)
      .add(std::uint64_t{res.ranks_valid});
  return d;
}

ksr::nas::CgConfig cg_config(const BenchJob& j) {
  ksr::nas::CgConfig c;
  c.n = j.size;
  c.nnz_per_row = j.size2;
  c.iterations = j.iters;
  if (j.data_seed != 0) c.seed = j.data_seed;
  return c;
}

void run_nas(const BenchJob& j, Machine& m, JobResult& r,
             std::uint32_t job_index) {
  Digest d;
  double sim_s = 0.0;
  Span s(nas_layer(j.kernel), job_index);
  if (j.kernel == "is") {
    const ksr::nas::IsResult res = run_is(m, is_config(j));
    r.valid = res.ranks_valid;
    sim_s = res.seconds;
    d = is_digest(res);
  } else if (j.kernel == "cg") {
    const ksr::nas::CgResult res = run_cg(m, cg_config(j));
    sim_s = res.seconds;
    d.add(res.seconds).add(res.initial_residual).add(res.final_residual)
        .add(res.nnz);
  } else if (j.kernel == "ep") {
    ksr::nas::EpConfig c;
    c.log2_pairs = j.size;
    if (j.data_seed != 0) c.seed = j.data_seed;
    const ksr::nas::EpResult res = run_ep(m, c);
    sim_s = res.seconds;
    d.add(res.seconds).add(res.sum_x).add(res.sum_y).add(res.accepted);
    for (std::uint64_t n : res.annulus_counts) d.add(n);
  } else if (j.kernel == "sp") {
    ksr::nas::SpConfig c;
    c.n = j.size;
    c.iterations = j.iters;
    const ksr::nas::SpResult res = run_sp(m, c);
    sim_s = res.total_seconds;
    d.add(res.total_seconds).add(res.seconds_per_iteration).add(res.checksum);
  } else if (j.kernel == "bt") {
    ksr::nas::BtConfig c;
    c.n = j.size;
    c.iterations = j.iters;
    const ksr::nas::BtResult res = run_bt(m, c);
    sim_s = res.total_seconds;
    d.add(res.total_seconds).add(res.seconds_per_iteration).add(res.checksum);
  } else {
    throw std::invalid_argument("unknown kernel " + j.kernel);
  }
  r.counters.simulated_s = sim_s;
  r.digest = d.value();
}

constexpr std::uint64_t kHoldCycles = 6000;    // fig. 3: work while holding
constexpr std::uint64_t kDelayCycles = 20000;  // fig. 3: work between requests

double run_lock(const BenchJob& j, Machine& m, std::uint32_t job_index) {
  double t = 0.0;
  const unsigned ops = j.ops;
  auto finish = [&t](Cpu& cpu) {
    if (cpu.seconds() > t) t = cpu.seconds();
  };
  Span s("sync.lock", job_index);
  if (j.kernel == "rw") {
    ksr::sync::TicketRwLock lock(m);
    Span r("machine.run", job_index);
    m.run([&](Cpu& cpu) {
      for (unsigned i = 0; i < ops; ++i) {
        if (cpu.rng().below(100) < j.read_pct) {
          lock.acquire_read(cpu);
          cpu.work(kHoldCycles);
          lock.release_read(cpu);
        } else {
          lock.acquire_write(cpu);
          cpu.work(kHoldCycles);
          lock.release_write(cpu);
        }
        cpu.work(kDelayCycles);
      }
      finish(cpu);
    });
  } else if (j.kernel == "hw") {
    ksr::sync::HardwareLock lock(m);
    Span r("machine.run", job_index);
    m.run([&](Cpu& cpu) {
      for (unsigned i = 0; i < ops; ++i) {
        lock.acquire(cpu);
        cpu.work(kHoldCycles);
        lock.release(cpu);
        cpu.work(kDelayCycles);
      }
      finish(cpu);
    });
  } else {
    static const std::map<std::string, ksr::sync::SpinLockKind> kinds = {
        {"tas", ksr::sync::SpinLockKind::kTestAndSet},
        {"tas-backoff", ksr::sync::SpinLockKind::kTestAndSetBackoff},
        {"ticket", ksr::sync::SpinLockKind::kTicket},
        {"anderson", ksr::sync::SpinLockKind::kAnderson},
        {"mcs-queue", ksr::sync::SpinLockKind::kMcsQueue}};
    auto lock = ksr::sync::make_spinlock(m, kinds.at(j.kernel));
    Span r("machine.run", job_index);
    m.run([&](Cpu& cpu) {
      for (unsigned i = 0; i < ops; ++i) {
        lock->acquire(cpu);
        cpu.work(kHoldCycles);
        lock->release(cpu);
        cpu.work(kDelayCycles);
      }
      finish(cpu);
    });
  }
  return t;
}

ksr::sync::BarrierKind barrier_kind(const std::string& k) {
  static const std::map<std::string, ksr::sync::BarrierKind> kinds = {
      {"counter", ksr::sync::BarrierKind::kCounter},
      {"tree", ksr::sync::BarrierKind::kTree},
      {"tree-m", ksr::sync::BarrierKind::kTreeM},
      {"dissemination", ksr::sync::BarrierKind::kDissemination},
      {"tournament", ksr::sync::BarrierKind::kTournament},
      {"tournament-m", ksr::sync::BarrierKind::kTournamentM},
      {"mcs", ksr::sync::BarrierKind::kMcs},
      {"mcs-m", ksr::sync::BarrierKind::kMcsM},
      {"system", ksr::sync::BarrierKind::kSystem}};
  return kinds.at(k);
}

double run_barrier(const BenchJob& j, Machine& m,
                   std::uint32_t job_index) {
  // Figs. 4/5: one warm-up episode, then `ops` timed episodes with a
  // random arrival skew.
  Span s("sync.barrier", job_index);
  auto barrier = ksr::sync::make_barrier(m, barrier_kind(j.kernel));
  double total = 0.0;
  const unsigned episodes = j.ops;
  Span r("machine.run", job_index);
  m.run([&](Cpu& cpu) {
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();
    for (unsigned e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > total) total = cpu.seconds() - t0;
  });
  return total;
}

}  // namespace

WarmStart capture_warm(const BenchJob& donor) {
  WarmStart w;
  w.donor = donor;
  auto m = build(donor, 0);
  ksr::nas::IsSplit split(*m, is_config(donor));
  {
    Span s("nas.is");
    split.run_warmup();
  }
  Span s("ckpt.capture");
  w.image = m->checkpoint();
  return w;
}

JobResult run_job(const BenchJob& j, const WarmStart* warm,
                  std::uint32_t job_index, std::uint32_t parent_span,
                  std::unique_ptr<Machine> m) {
  const std::uint64_t t0 = now_ns();
  JobResult r;
  Span job_span("host.job", job_index, parent_span);
  if (!m) m = build(j, job_index);
  switch (j.kind) {
    case JobKind::kNas:
    case JobKind::kScaleOut:
      run_nas(j, *m, r, job_index);
      break;
    case JobKind::kIsFork: {
      if (warm == nullptr) throw std::logic_error("fork job without image");
      ksr::nas::IsSplit split(*m, is_config(j));
      {
        Span s("ckpt.restore", job_index);
        m->restore(warm->image);
      }
      Span s("nas.is", job_index);
      const ksr::nas::IsResult res = split.run_ranked();
      r.valid = res.ranks_valid;
      r.counters.simulated_s = res.seconds;
      r.counters.image_bytes = warm->image.size();
      r.digest = is_digest(res).value();
      break;
    }
    case JobKind::kLock: {
      const double t = run_lock(j, *m, job_index);
      r.counters.lock_ops = static_cast<std::uint64_t>(j.ops) * j.procs;
      r.counters.simulated_s = t;
      r.digest = Digest{}.add(t).value();
      break;
    }
    case JobKind::kBarrier: {
      const double t = run_barrier(j, *m, job_index);
      r.counters.barrier_episodes = j.ops + 1u;
      r.counters.simulated_s = t;
      r.digest = Digest{}.add(t).value();
      break;
    }
  }
  collect(*m, r);
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return r;
}

// ---------------------------------------------------------------- pins

Pins load_pins(const std::string& path) {
  Pins pins;
  std::ifstream is(path);
  if (!is) return pins;
  std::stringstream ss;
  ss << is.rdbuf();
  std::string err;
  const ksr::serve::Json j = ksr::serve::Json::parse(ss.str(), &err);
  if (!err.empty() || !j.is_object()) {
    throw std::runtime_error("bad pins file " + path + ": " + err);
  }
  const ksr::serve::Json* jobs = j.find("jobs");
  if (jobs == nullptr || !jobs->is_object()) return pins;
  for (const auto& [id, v] : jobs->members()) {
    const ksr::serve::Json* ev = v.find("events");
    const ksr::serve::Json* dg = v.find("digest");
    if (ev == nullptr || dg == nullptr || !dg->is_string()) {
      throw std::runtime_error("bad pin entry " + id);
    }
    Pin p;
    if (!ev->as_u64(&p.events)) throw std::runtime_error("bad pin " + id);
    p.digest = std::stoull(dg->as_string(), nullptr, 16);
    pins[id] = p;
  }
  return pins;
}

void order_longest_first(std::vector<BenchJob>& jobs, const Pins& pins) {
  auto cost = [&pins](const BenchJob& j) -> std::uint64_t {
    const auto it = pins.find(j.id);
    return it == pins.end() ? 0 : it->second.events;
  };
  std::stable_sort(jobs.begin(), jobs.end(),
                   [&cost](const BenchJob& a, const BenchJob& b) {
                     return cost(a) > cost(b);
                   });
}

// ---------------------------------------------------------------- inputs

namespace {

// Each job slot has four input variants; the workload seed picks one per
// slot. Variant 0 is the kernel's published default input.
constexpr unsigned kVariants = 4;

std::string shape(const BenchJob& j) {
  return j.machine + "-" + std::to_string(j.procs);
}

struct NasSlot {
  const char* kernel;
  const char* machine;
  unsigned procs, size, size2, iters;
};

// Sizes are a fixed ladder around the ksrsim kernel defaults (is 2^15 keys,
// cg n 1000, ep 2^13 pairs, sp 16^3, bt 10^3), on ksr1 at 8-32 cells and
// ksr2 at 16-64 cells; the larger machines get the smaller problems so no
// single job dominates the batch.
constexpr NasSlot kNasSlots[] = {
    {"is", "ksr1", 8, 16, 10, 0},  {"is", "ksr1", 32, 15, 10, 0},
    {"is", "ksr2", 16, 15, 10, 0}, {"is", "ksr2", 64, 12, 8, 0},
    {"cg", "ksr1", 8, 1200, 24, 2}, {"cg", "ksr1", 16, 1000, 24, 2},
    {"cg", "ksr2", 16, 800, 24, 2}, {"cg", "ksr2", 32, 400, 16, 2},
    {"ep", "ksr1", 16, 16, 0, 0},  {"ep", "ksr1", 32, 15, 0, 0},
    {"ep", "ksr2", 32, 14, 0, 0},  {"ep", "ksr2", 48, 13, 0, 0},
    {"sp", "ksr1", 8, 16, 0, 2},   {"sp", "ksr1", 16, 16, 0, 2},
    {"sp", "ksr2", 16, 12, 0, 2},  {"sp", "ksr2", 32, 12, 0, 1},
    {"bt", "ksr1", 8, 10, 0, 2},   {"bt", "ksr1", 16, 10, 0, 2},
    {"bt", "ksr2", 16, 8, 0, 2},   {"bt", "ksr2", 32, 8, 0, 1},
};

BenchJob nas_job(const NasSlot& s, unsigned variant) {
  BenchJob j;
  j.kind = JobKind::kNas;
  j.kernel = s.kernel;
  j.machine = s.machine;
  j.procs = s.procs;
  j.size = s.size;
  j.size2 = s.size2;
  j.iters = s.iters;
  const bool seeded = j.kernel == "is" || j.kernel == "cg" || j.kernel == "ep";
  if (variant != 0) {
    if (seeded) {
      j.data_seed = 1000 + variant;
    } else {
      j.fuzz_seed = variant;  // sp/bt take no input seed: vary the schedule
    }
  }
  j.id = "nas/" + j.kernel + "/" + shape(j) + "/" + std::to_string(j.size) +
         "x" + std::to_string(j.size2) + "x" + std::to_string(j.iters) +
         "/v" + std::to_string(variant);
  return j;
}

BenchJob donor_job(unsigned variant) {
  BenchJob j;
  j.kind = JobKind::kNas;
  j.kernel = "is";
  j.machine = "ksr1";
  j.procs = 32;
  j.size = 15;
  j.size2 = 10;
  if (variant != 0) j.data_seed = 1000 + variant;
  j.id = "warm/is/ksr1-32/v" + std::to_string(variant);
  return j;
}

BenchJob fork_job(const BenchJob& donor, unsigned variant, bool prefetch) {
  BenchJob j = donor;
  j.kind = JobKind::kIsFork;
  j.prefetch = prefetch;
  j.id = "fork/is/ksr1-32/v" + std::to_string(variant) +
         (prefetch ? "/prefetch" : "/no-prefetch");
  return j;
}

constexpr unsigned kForkPairs = 2;  // fig. 8 warm-start: both variants, twice

struct LockSlot {
  const char* kind;
  unsigned procs, ops;
};

// Ops per cell chosen so each experiment costs a similar host time: local
// spinning (anderson, mcs-queue) at 32 cells costs ~100x a backoff lock.
constexpr LockSlot kLockSlots[] = {
    {"hw", 8, 80},          {"hw", 32, 40},         {"tas", 8, 20},
    {"tas", 32, 4},         {"tas-backoff", 8, 200}, {"tas-backoff", 32, 60},
    {"ticket", 8, 80},      {"ticket", 32, 30},     {"anderson", 8, 12},
    {"anderson", 32, 2},    {"mcs-queue", 8, 12},   {"mcs-queue", 32, 2},
    {"rw", 8, 60},          {"rw", 32, 4},
};

constexpr const char* kBarrierKinds[] = {
    "counter", "tree", "tree-m", "dissemination", "tournament",
    "tournament-m", "mcs", "mcs-m", "system"};
constexpr unsigned kBarrierEpisodes = 15;

BenchJob lock_job(const LockSlot& s, unsigned variant) {
  BenchJob j;
  j.kind = JobKind::kLock;
  j.kernel = s.kind;
  j.machine = "ksr1";
  j.procs = s.procs;
  j.scale = 1;
  j.ops = s.ops;
  j.read_pct = j.kernel == "rw" ? 80 : 0;
  j.fuzz_seed = variant;
  j.id = "lock/" + j.kernel + "/" + shape(j) + "/" + std::to_string(j.ops) +
         "/v" + std::to_string(variant);
  return j;
}

BenchJob barrier_job(const char* kind, bool ksr2, unsigned variant) {
  BenchJob j;
  j.kind = JobKind::kBarrier;
  j.kernel = kind;
  j.machine = ksr2 ? "ksr2" : "ksr1";
  j.procs = ksr2 ? 64 : 32;
  j.scale = 1;
  j.ops = kBarrierEpisodes;
  j.fuzz_seed = variant;
  j.id = "barrier/" + j.kernel + "/" + shape(j) + "/" +
         std::to_string(j.ops) + "/v" + std::to_string(variant);
  return j;
}

}  // namespace

std::vector<BenchJob> nas_batch(std::uint64_t seed) {
  SeedRng rng(seed ^ 0x6e61735f7377ull);
  std::vector<BenchJob> out;
  for (const NasSlot& s : kNasSlots) {
    out.push_back(nas_job(s, static_cast<unsigned>(rng.below(kVariants))));
  }
  const BenchJob donor = nas_warm_donor(seed);
  const unsigned v = static_cast<unsigned>(donor.data_seed == 0
                                               ? 0
                                               : donor.data_seed - 1000);
  for (unsigned i = 0; i < kForkPairs; ++i) {
    out.push_back(fork_job(donor, v, true));
    out.push_back(fork_job(donor, v, false));
  }
  return out;
}

BenchJob nas_warm_donor(std::uint64_t seed) {
  SeedRng rng(seed ^ 0x7761726dull);
  return donor_job(static_cast<unsigned>(rng.below(kVariants)));
}

std::vector<BenchJob> sync_batch(std::uint64_t seed) {
  SeedRng rng(seed ^ 0x73796e63ull);
  std::vector<BenchJob> out;
  for (const LockSlot& s : kLockSlots) {
    out.push_back(lock_job(s, static_cast<unsigned>(rng.below(kVariants))));
  }
  for (const bool ksr2 : {false, true}) {
    for (const char* k : kBarrierKinds) {
      out.push_back(
          barrier_job(k, ksr2, static_cast<unsigned>(rng.below(kVariants))));
    }
  }
  return out;
}

std::vector<BenchJob> sync_warmup_jobs() {
  // Six kinds rather than one: the median time of a single repeated
  // experiment differed by up to a fifth between processes.
  return {barrier_job("system", false, 0), lock_job(kLockSlots[6], 0),
          barrier_job("mcs-m", false, 0), lock_job(kLockSlots[0], 0),
          barrier_job("dissemination", false, 0), lock_job(kLockSlots[4], 0)};
}

BenchJob scaleout_job(std::uint64_t seed) {
  SeedRng rng(seed ^ 0x7363616c65ull);
  const unsigned variant = static_cast<unsigned>(rng.below(kVariants));
  // Fig. 8 --scale-out CG point in mode B: 256 cells in 2 domains of 128
  // (4 leaf rings each). The four CG inputs cost within 1% of each other
  // (26.0M-26.3M events).
  BenchJob j;
  j.kind = JobKind::kScaleOut;
  j.kernel = "cg";
  j.machine = "ksr1";
  j.procs = 256;
  j.scale = 64;
  j.size = 600;
  j.size2 = 24;
  j.iters = 2;
  j.data_seed = variant == 0 ? 0 : 1000 + variant;
  j.cells_per_domain = 128;
  j.id = "scaleout/cg/ksr1-256/v" + std::to_string(variant);
  return j;
}

std::vector<BenchJob> nas_catalogue() {
  std::vector<BenchJob> out;
  for (const NasSlot& s : kNasSlots) {
    for (unsigned v = 0; v < kVariants; ++v) out.push_back(nas_job(s, v));
  }
  for (unsigned v = 0; v < kVariants; ++v) {
    out.push_back(fork_job(donor_job(v), v, true));
    out.push_back(fork_job(donor_job(v), v, false));
  }
  return out;
}

std::vector<BenchJob> nas_donor_catalogue() {
  std::vector<BenchJob> out;
  for (unsigned v = 0; v < kVariants; ++v) out.push_back(donor_job(v));
  return out;
}

std::vector<BenchJob> sync_catalogue() {
  std::vector<BenchJob> out;
  for (const LockSlot& s : kLockSlots) {
    for (unsigned v = 0; v < kVariants; ++v) out.push_back(lock_job(s, v));
  }
  for (const bool ksr2 : {false, true}) {
    for (const char* k : kBarrierKinds) {
      for (unsigned v = 0; v < kVariants; ++v) {
        out.push_back(barrier_job(k, ksr2, v));
      }
    }
  }
  return out;
}

std::vector<BenchJob> scaleout_catalogue() {
  std::vector<BenchJob> out;
  for (std::uint64_t s = 0; out.size() < kVariants; ++s) {
    BenchJob j = scaleout_job(s);
    const bool seen = std::any_of(out.begin(), out.end(),
                                  [&j](const BenchJob& o) { return o.id == j.id; });
    if (!seen) out.push_back(j);
  }
  return out;
}

}  // namespace hostbench

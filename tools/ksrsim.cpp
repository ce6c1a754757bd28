// ksrsim — command-line driver for the simulated KSR-1 and its experiment
// suite. Lets a user run any kernel, barrier or probe on any machine model
// without writing code:
//
//   ksrsim probe     --machine ksr1 --procs 32
//   ksrsim barrier   --kind tournament-m --procs 32 --episodes 50
//   ksrsim lock      --kind rw --read-pct 60 --procs 16 --ops 100
//   ksrsim kernel    --name cg --procs 16 --scale 64
//   ksrsim sweep     --name is --procs 1,2,4,8,16,32 --scale 64
//   ksrsim serve     --socket ksrsim.sock --store ksrsim_store
//   ksrsim submit    --socket ksrsim.sock --name is --procs 16 --scale 64
//   ksrsim campaign  presets/campaigns/fig8_quick.json --store ksrsim_store
//
// Run `ksrsim help` for the full reference.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/host/sweep_runner.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/obs/session.hpp"
#include "ksr/serve/campaign.hpp"
#include "ksr/serve/server.hpp"
#include "ksr/study/metrics.hpp"
#include "ksr/study/table.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/locks.hpp"
#include "ksr/sync/spinlocks.hpp"
#include "ksr/util/parse.hpp"

namespace {

using namespace ksr;  // NOLINT

// ----------------------------------------------------------- flag parsing

class Args {
 public:
  Args(int argc, char** argv) {
    // Every flag any command understands, and whether it takes a value: the
    // job-spec vocabulary plus the tool's own flags. A typo ("--job 4",
    // "--proc 8") warns instead of silently running with defaults.
    std::map<std::string, bool, std::less<>> takes_value = {
        {"csv", false}, {"check", false}, {"trace", false}, {"kind", true},
        {"episodes", true}, {"ops", true}, {"read-pct", true}, {"jobs", true},
        {"trace-out", true}, {"trace-cap", true}, {"report", true},
        {"metrics-csv", true}, {"topo-report", true}, {"sim-threads", true},
        {"checkpoint-at", true}, {"socket", true}, {"store", true},
        {"out", true}, {"manifest", true}, {"op", true}};
    for (const serve::JobSpec::Flag& f : serve::JobSpec::flags()) {
      takes_value[f.name] = f.takes_value;
    }
    const bool wants_positional = std::string(argv[1]) == "campaign";
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      const bool next_is_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      if (key.rfind("--", 0) != 0) {
        // The campaign manifest path is the one positional argument.
        if (wants_positional && positional_.empty()) {
          positional_ = key;
        } else {
          std::cerr << "warning: ignoring unknown argument '" << key << "'\n";
        }
        continue;
      }
      key.erase(0, 2);
      std::optional<std::string> val;
      if (const std::size_t eq = key.find('='); eq != std::string::npos) {
        val = key.substr(eq + 1);
        key.erase(eq);
      }
      const auto it = takes_value.find(key);
      if (it == takes_value.end()) {
        std::cerr << "warning: ignoring unknown argument '--" << key << "'\n";
        if (!val && next_is_value) ++i;  // swallow the typo'd flag's value too
        continue;
      }
      if (it->second && !val) {
        if (!next_is_value) {
          throw std::runtime_error("--" + key + " needs a value");
        }
        val = argv[++i];
      }
      kv_[key] = val.value_or("");
    }
  }

  /// The flag's value ("" for a boolean flag), nullptr when absent.
  [[nodiscard]] const std::string* find(std::string_view key) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::string get(std::string_view key,
                                const std::string& def = "") const {
    const std::string* v = find(key);
    return v == nullptr ? def : *v;
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] unsigned get_u(std::string_view key, unsigned def) const {
    const std::string* s = find(key);
    if (s == nullptr) return def;
    std::uint64_t v = 0;
    if (!util::parse_u64(*s, &v) || v > std::numeric_limits<unsigned>::max()) {
      std::cerr << "warning: ignoring invalid --" << key << " value '" << *s
                << "' (expected a non-negative integer)\n";
      return def;
    }
    return static_cast<unsigned>(v);
  }
  [[nodiscard]] std::vector<unsigned> get_list(const std::string& key,
                                               std::vector<unsigned> def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::vector<unsigned> out;
    std::stringstream ss(it->second);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      std::uint64_t v = 0;
      if (!util::parse_u64(tok, &v) ||
          v > std::numeric_limits<unsigned>::max()) {
        std::cerr << "warning: skipping invalid --" << key << " list entry '"
                  << tok << "' (expected a non-negative integer)\n";
        continue;
      }
      out.push_back(static_cast<unsigned>(v));
    }
    if (out.empty()) {
      std::cerr << "warning: --" << key
                << " has no valid entries; using the default list\n";
      return def;
    }
    return out;
  }
  /// First non-flag token after the command (e.g. the campaign manifest).
  [[nodiscard]] const std::string& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string, std::less<>> kv_;
  std::string positional_;
};

/// Observability session from the common flags (see docs/OBSERVABILITY.md):
/// `--trace[=cat,...]` captures a structured trace, `--trace-out FILE` names
/// the output (default ksrsim_<cmd>_trace.json), `--trace-cap N` sizes the
/// per-job record buffer, `--metrics-csv FILE` the sampled metrics time
/// series, `--report FILE` a ksrprof simulated-time profile,
/// `--topo-report FILE` the byte-stable topology report (+ FILE.matrix.csv).
obs::Session make_session(const Args& args, const std::string& cmd) {
  obs::SessionOptions s;
  s.trace = args.has("trace") || args.has("trace-out");
  s.categories = args.get("trace");  // bare --trace = all categories
  s.trace_out = args.get("trace-out");
  s.metrics_csv = args.get("metrics-csv");
  s.report = args.get("report");
  s.topo_report = args.get("topo-report");
  const unsigned cap = args.get_u("trace-cap", 0);
  if (cap != 0) s.trace_capacity = cap;
  return obs::Session(std::move(s), "ksrsim_" + cmd);
}

/// The job the spec-vocabulary flags describe (serve::JobSpec::from_flags),
/// with `procs` as the --procs value: a sweep point, or the command's
/// default when the flag is absent.
serve::JobSpec job_spec(const Args& args, const std::string& procs) {
  serve::JobSpec spec;
  std::string err;
  const auto flag = [&](std::string_view f) {
    return f == "procs" ? &procs : args.find(f);
  };
  if (!serve::JobSpec::from_flags(flag, &spec, &err)) {
    throw std::runtime_error(err);
  }
  return spec;
}

std::unique_ptr<machine::Machine> build_machine(const Args& args,
                                                const serve::JobSpec& spec) {
  return machine::make_machine(
      serve::machine_config(spec, args.get_u("sim-threads", 1)));
}

// With --check, attach the ALLCACHE invariant checker for the lifetime of
// the run and audit the whole machine at scope exit (docs/CHECKING.md). In
// a -DKSR_CHECK=ON build every coherence transition is audited as it
// commits; in a default build only the end-of-run audit runs. A violation
// prints the trace-backed diagnostic and fails the process via
// g_check_failed (checked in main after the command returns).
bool g_check_failed = false;

class CheckScope {
 public:
  CheckScope(const Args& args, machine::Machine& m) {
    if (!args.has("check")) return;
    cm_ = dynamic_cast<machine::CoherentMachine*>(&m);
    if (cm_ == nullptr) {
      std::cerr << "warning: --check: this machine model has no coherence "
                   "directory to audit\n";
      return;
    }
    checker_ = std::make_unique<check::InvariantChecker>(*cm_);
    cm_->attach_checker(checker_.get());
  }
  ~CheckScope() {
    if (checker_ == nullptr) return;
    try {
      checker_->audit_all();
      std::cerr << "[check] invariants ok: transitions="
                << checker_->stats().transitions
                << " audits=" << checker_->stats().audits << "\n";
    } catch (const check::ViolationError& e) {
      std::cerr << "[check] FAIL\n" << e.what() << "\n";
      g_check_failed = true;
    }
    cm_->attach_checker(nullptr);
  }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  machine::CoherentMachine* cm_ = nullptr;
  std::unique_ptr<check::InvariantChecker> checker_;
};

// ------------------------------------------------------------- commands

int cmd_probe(const Args& args) {
  serve::JobSpec spec = job_spec(args, args.get("procs", "2"));
  spec.procs = std::max(spec.procs, 2u);
  auto m = build_machine(args, spec);
  CheckScope check(args, *m);
  obs::Session session = make_session(args, "probe");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  auto arr = m->alloc<double>("probe", 4096);
  auto flag = m->alloc<int>("flag", 1);
  double sub = 0, local = 0, remote = 0;
  m->run([&](machine::Cpu& cpu) {
    if (cpu.id() == 0) {
      for (std::size_t i = 0; i < 4096; i += 16) cpu.write(arr, i, 1.0);
      // Sub-cache hit.
      (void)cpu.read(arr, 0);
      double t0 = cpu.seconds();
      for (int r = 0; r < 100; ++r) (void)cpu.read(arr, 0);
      sub = (cpu.seconds() - t0) / 100;
      // Local-cache-ish: stride sub-blocks.
      t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 8, ++k) (void)cpu.read(arr, i);
      local = (cpu.seconds() - t0) / static_cast<double>(k);
      cpu.write(flag, 0, 1);
    } else if (cpu.id() == 1) {
      while (cpu.read(flag, 0) == 0) cpu.work(10);
      const double t0 = cpu.seconds();
      std::size_t k = 0;
      for (std::size_t i = 0; i < 4096; i += 16, ++k) (void)cpu.read(arr, i);
      remote = (cpu.seconds() - t0) / static_cast<double>(k);
    }
  });
  jo.finish();
  if (session.active()) session.collect(std::move(jo), "probe");
  std::printf("machine: %s, %u cells\n",
              machine::to_string(m->config().kind), m->nproc());
  std::printf("  repeat-read (sub-cache)   : %7.3f us\n", sub * 1e6);
  std::printf("  stride-read (local level) : %7.3f us\n", local * 1e6);
  std::printf("  remote read               : %7.3f us\n", remote * 1e6);
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_barrier(const Args& args) {
  const std::string kind = args.get("kind", "tournament-m");
  const auto barrier_kind = sync::barrier_kind_from_cli(kind);
  if (!barrier_kind) {
    std::fprintf(stderr, "unknown barrier kind '%s'\n", kind.c_str());
    return 1;
  }
  const serve::JobSpec spec = job_spec(args, args.get("procs", "16"));
  const int episodes = static_cast<int>(args.get_u("episodes", 25));
  auto m = build_machine(args, spec);
  CheckScope check(args, *m);
  auto barrier = sync::make_barrier(*m, *barrier_kind);
  obs::Session session = make_session(args, "barrier");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  double total = 0;
  auto res = m->run([&](machine::Cpu& cpu) {
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();
    for (int e = 0; e < episodes; ++e) {
      cpu.work(cpu.rng().below(500));
      barrier->arrive(cpu);
    }
    if (cpu.seconds() - t0 > total) total = cpu.seconds() - t0;
  });
  jo.finish();
  if (session.active()) {
    session.collect(std::move(jo), std::string(barrier->name()));
  }
  std::printf("%s on %s, %u procs: %.1f us/episode "
              "(%llu network transactions total)\n",
              std::string(barrier->name()).c_str(),
              machine::to_string(m->config().kind), spec.procs,
              total / episodes * 1e6,
              static_cast<unsigned long long>(res.pmon.ring_requests));
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_lock(const Args& args) {
  const serve::JobSpec spec = job_spec(args, args.get("procs", "8"));
  const int ops = static_cast<int>(args.get_u("ops", 50));
  const std::string kind = args.get("kind", "hw");
  const unsigned read_pct = args.get_u("read-pct", 0);
  auto m = build_machine(args, spec);
  CheckScope check(args, *m);
  obs::Session session = make_session(args, "lock");
  obs::JobObs jo = session.job();
  jo.attach(*m);
  double t = 0;
  if (kind == "rw") {
    sync::TicketRwLock lock(*m);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        const bool rd = cpu.rng().below(100) < read_pct;
        if (rd) {
          lock.acquire_read(cpu);
          cpu.work(6000);
          lock.release_read(cpu);
        } else {
          lock.acquire_write(cpu);
          cpu.work(6000);
          lock.release_write(cpu);
        }
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  } else if (kind == "hw") {
    sync::HardwareLock lock(*m);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        lock.acquire(cpu);
        cpu.work(6000);
        lock.release(cpu);
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  } else {
    const auto lock_kind = sync::spinlock_kind_from_cli(kind);
    if (!lock_kind) {
      std::fprintf(stderr, "unknown lock kind '%s'\n", kind.c_str());
      return 1;
    }
    auto lock = sync::make_spinlock(*m, *lock_kind);
    m->run([&](machine::Cpu& cpu) {
      for (int i = 0; i < ops; ++i) {
        lock->acquire(cpu);
        cpu.work(6000);
        lock->release(cpu);
        cpu.work(20000);
      }
      if (cpu.seconds() > t) t = cpu.seconds();
    });
  }
  jo.finish();
  if (session.active()) session.collect(std::move(jo), kind);
  std::printf("%s lock, %u procs, %d ops/proc: %.4f s total, %.1f us/op\n",
              kind.c_str(), spec.procs, ops, t,
              t / ops * 1e6);
  session.close();
  return session.ok() ? 0 : 1;
}

struct KernelRun {
  serve::JobOutcome job;
  std::uint64_t quanta = 0;
  obs::JobObs obs;
};

/// serve::run_job on a machine with this command's obs session and --check
/// scope attached: the same job `ksrsim submit` sends to a daemon.
KernelRun run_kernel(const obs::Session& session, const Args& args,
                     const serve::JobSpec& spec) {
  auto m = build_machine(args, spec);
  CheckScope check(args, *m);
  KernelRun r;
  r.obs = session.job();
  r.obs.attach(*m);
  // docs/CHECKPOINT.md: restoring needs the capturing run's machine flags.
  const std::string save = args.get("checkpoint-at");
  r.job = serve::run_job(spec, *m, save);
  if (!save.empty()) std::cerr << "checkpoint written to " << save << "\n";
  r.obs.finish();
  r.quanta = m->parallel_engine().quanta();
  return r;
}

int cmd_kernel(const Args& args) {
  const serve::JobSpec spec = job_spec(args, args.get("procs", "8"));
  obs::Session session = make_session(args, "kernel");
  const auto wall0 = std::chrono::steady_clock::now();
  KernelRun r = run_kernel(session, args, spec);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  if (session.active()) {
    session.collect(std::move(r.obs),
                    spec.workload + " p=" + std::to_string(spec.procs));
  }
  // Same [host] line the bench binaries emit (bench/report.py HOST_RE):
  // events_dispatched is the determinism fingerprint.
  std::fprintf(stderr,
               "[host] bench=ksrsim_kernel events_dispatched=%llu "
               "wall_ms=%lld sim_threads=%u quanta=%llu\n",
               static_cast<unsigned long long>(r.job.events),
               static_cast<long long>(wall_ms), args.get_u("sim-threads", 1),
               static_cast<unsigned long long>(r.quanta));
  std::printf("%s on %u procs: %.5f simulated seconds\n",
              spec.workload.c_str(), spec.procs, r.job.seconds);
  session.close();
  return session.ok() ? 0 : 1;
}

int cmd_sweep(const Args& args) {
  const std::string name = args.get("name", "cg");
  if (args.has("checkpoint-at") || args.has("restore-from")) {
    // Every sweep point has a different machine config, and a checkpoint
    // only restores onto the exact capturing config; one shared path would
    // either be overwritten per point or refuse every restore.
    std::cerr << "ksrsim sweep: --checkpoint-at/--restore-from are "
                 "kernel-command flags (one machine per file); use "
                 "`ksrsim kernel --name is` or bench_fig8_speedup "
                 "--warm-start for checkpointed sweeps\n";
    return 1;
  }
  if (args.has("leaf-rings")) {
    // --leaf-rings sets procs, so every point would run the same machine.
    throw std::runtime_error(
        "sweep: --leaf-rings fixes the cell count; sweep --procs instead");
  }
  const std::vector<unsigned> procs =
      args.get_list("procs", {1, 2, 4, 8, 16});
  // Every processor count is an independent simulation: shard them over
  // host threads (--jobs N, default one per core). Results merge in
  // submission order, so the table is bit-identical for any --jobs value.
  host::SweepRunner runner(args.get_u("jobs", 0));
  obs::Session session = make_session(args, "sweep");
  std::vector<std::function<KernelRun()>> jobs;
  jobs.reserve(procs.size());
  for (unsigned p : procs) {
    jobs.emplace_back(
        [&args, &session, spec = job_spec(args, std::to_string(p))] {
          return run_kernel(session, args, spec);
        });
  }
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<KernelRun> seconds = runner.run(jobs);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  std::vector<std::pair<unsigned, double>> measured;
  std::uint64_t events = 0;
  std::uint64_t quanta = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (session.active()) {
      session.collect(std::move(seconds[i].obs),
                      name + " p=" + std::to_string(procs[i]));
    }
    measured.emplace_back(procs[i], seconds[i].job.seconds);
    events += seconds[i].job.events;
    quanta += seconds[i].quanta;
  }
  std::fprintf(stderr,
               "[host] bench=ksrsim_sweep events_dispatched=%llu "
               "wall_ms=%lld jobs=%u sim_threads=%u quanta=%llu\n",
               static_cast<unsigned long long>(events),
               static_cast<long long>(wall_ms), args.get_u("jobs", 0),
               args.get_u("sim-threads", 1),
               static_cast<unsigned long long>(quanta));
  study::TextTable t({"procs", "time (s)", "speedup", "efficiency",
                      "serial fraction"});
  for (const auto& row : study::scaling_rows(measured)) {
    t.add_row({std::to_string(row.p), study::TextTable::num(row.seconds, 5),
               study::TextTable::num(row.speedup, 3),
               row.p == 1 ? "-" : study::TextTable::num(row.efficiency, 3),
               row.p == 1 ? "-"
                          : study::TextTable::num(row.serial_fraction, 6)});
  }
  std::printf("%s scaling sweep:\n", name.c_str());
  if (args.has("csv")) {
    t.print_csv();
  } else {
    t.print();
  }
  session.close();
  return session.ok() ? 0 : 1;
}

// ----------------------------------------------------- serving commands

int cmd_serve(const Args& args) {
  serve::SocketServer::Options opt;
  opt.socket_path = args.get("socket", "ksrsim.sock");
  opt.core.store_dir = args.get("store");
  opt.core.jobs = args.get_u("jobs", 0);
  opt.core.sim_threads = args.get_u("sim-threads", 1);
  serve::SocketServer server(opt);
  std::fprintf(stderr, "[serve] listening on %s (store=%s)\n",
               server.socket_path().c_str(),
               opt.core.store_dir.empty() ? "<memory>"
                                          : opt.core.store_dir.c_str());
  server.run();
  const serve::ServeCore::Counters c = server.core().counters();
  std::fprintf(stderr,
               "[serve] shutdown: hits=%llu misses=%llu stores=%llu "
               "inflight_dedup=%llu executed=%llu failures=%llu\n",
               static_cast<unsigned long long>(c.cache.hits),
               static_cast<unsigned long long>(c.cache.misses),
               static_cast<unsigned long long>(c.cache.stores),
               static_cast<unsigned long long>(c.inflight_dedup),
               static_cast<unsigned long long>(c.executed),
               static_cast<unsigned long long>(c.failures));
  const std::string metrics_csv = args.get("metrics-csv");
  if (!metrics_csv.empty()) {
    // Same counter,value CSV shape as the obs metrics exporter.
    std::ostringstream os;
    server.core().write_stats_csv(os);
    ckpt::atomic_write_file(metrics_csv, os.str());
  }
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string path = args.get("socket", "ksrsim.sock");
  const std::string op = args.get("op", "submit");
  serve::Client client(path);
  std::string req;
  if (op == "submit") {
    serve::Json j = serve::Json::object();
    j.set("op", serve::Json::str("submit"));
    j.set("job", job_spec(args, args.get("procs", "8")).to_json());
    req = j.dump();
  } else if (op == "ping" || op == "stats" || op == "shutdown") {
    req = "{\"op\":\"" + op + "\"}";
  } else {
    std::fprintf(stderr,
                 "ksrsim submit: unknown --op '%s' "
                 "(submit|ping|stats|shutdown)\n",
                 op.c_str());
    return 1;
  }
  client.send_line(req);
  const std::string resp = client.read_line();
  std::printf("%s\n", resp.c_str());
  return resp.rfind("{\"ok\":true", 0) == 0 ? 0 : 1;
}

int cmd_campaign(const Args& args) {
  std::string manifest_path = args.get("manifest");
  if (manifest_path.empty()) manifest_path = args.positional();
  if (manifest_path.empty()) {
    std::fprintf(stderr,
                 "ksrsim campaign: no manifest "
                 "(usage: ksrsim campaign manifest.json --store DIR)\n");
    return 1;
  }
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ksrsim campaign: cannot read manifest '%s'\n",
                 manifest_path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string err;
  const serve::Json manifest = serve::Json::parse(text.str(), &err);
  if (!err.empty()) {
    std::fprintf(stderr, "ksrsim campaign: %s: %s\n", manifest_path.c_str(),
                 err.c_str());
    return 1;
  }
  serve::Campaign campaign;
  if (!serve::expand_manifest(manifest, &campaign, &err)) {
    std::fprintf(stderr, "ksrsim campaign: %s: %s\n", manifest_path.c_str(),
                 err.c_str());
    return 1;
  }
  serve::ServeCore::Options copt;
  copt.store_dir = args.get("store");
  copt.jobs = args.get_u("jobs", 0);
  copt.sim_threads = args.get_u("sim-threads", 1);
  serve::ServeCore core(copt);
  const std::string prefix = args.get("out", campaign.name);
  const serve::CampaignOutcome outcome =
      run_campaign(campaign, core, prefix);
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_help() {
  std::puts(
      "ksrsim — drive the simulated KSR-1 from the command line\n"
      "\n"
      "commands:\n"
      "  probe    latency probes            [--machine M --procs P]\n"
      "  barrier  time a barrier algorithm  [--kind K --procs P --episodes E]\n"
      "  lock     time a lock               [--kind hw|rw|tas|tas-backoff|\n"
      "                                       ticket|anderson|mcs-queue\n"
      "                                       --read-pct N --ops N]\n"
      "  kernel   run one NAS kernel        [--name ep|cg|is|sp|bt --procs P]\n"
      "  sweep    scaling table             [--name K --procs 1,2,4,...\n"
      "                                       --jobs N  shard the sweep over\n"
      "                                       N host threads (default: one\n"
      "                                       per core; output is identical\n"
      "                                       for any N)]\n"
      "  serve    simulation-as-a-service daemon on an AF_UNIX socket\n"
      "           [--socket PATH --store DIR --jobs N --sim-threads N\n"
      "            --metrics-csv FILE]  (docs/SERVING.md; newline-delimited\n"
      "           JSON protocol; results cached content-addressed in DIR)\n"
      "  submit   send one request to a running daemon and print the\n"
      "           response line [--socket PATH --op submit|ping|stats|\n"
      "           shutdown, plus the kernel flags for --op submit: the\n"
      "           daemon runs the same job `kernel` runs locally]\n"
      "  campaign expand a declarative sweep manifest, run it through the\n"
      "           result cache, and write <out>.jsonl/<out>.csv\n"
      "           [MANIFEST.json --store DIR --out PREFIX --jobs N]\n"
      "\n"
      "common flags:\n"
      "  --machine ksr1|ksr2|symmetry|butterfly   (default ksr1)\n"
      "  --scale N      shrink caches by N (pair with smaller problems)\n"
      "  --no-snarf     disable read-snarfing\n"
      "  --csv          CSV output where applicable\n"
      "  --fuzz-seed N  perturb event tie-breaking and ring slot phases\n"
      "                 (deterministic per seed; 0 = reference schedule;\n"
      "                 see docs/CHECKING.md and tools/ksrfuzz)\n"
      "  --sim-threads N  host threads advancing each single simulation\n"
      "                 through the conservative-quantum engine (0 = one\n"
      "                 per core; results are bit-identical for any N;\n"
      "                 see docs/PARALLEL.md)\n"
      "  --check        audit ALLCACHE protocol invariants at end of run\n"
      "                 (every transition in -DKSR_CHECK=ON builds; see\n"
      "                 docs/CHECKING.md)\n"
      "\n"
      "observability (docs/OBSERVABILITY.md; never perturbs simulated time):\n"
      "  --trace[=cat,...]    capture a structured event trace (categories:\n"
      "                       ring,coherence,sync,stall; default all)\n"
      "  --trace-out FILE     trace output (.json = Chrome/Perfetto trace\n"
      "                       events, .csv = CSV; default\n"
      "                       ksrsim_<cmd>_trace.json)\n"
      "  --trace-cap N        records per job buffer (default 2^18;\n"
      "                       overflow is counted in the drop footer)\n"
      "  --metrics-csv FILE   sampled machine-wide metrics time series\n"
      "  --report FILE        ksrprof simulated-time profile (sharing\n"
      "                       patterns, sync critical paths, stalls); see\n"
      "                       also tools/ksrprof for offline CSV analysis\n"
      "  --topo-report FILE   topology report: per-level ring utilization,\n"
      "                       directory-shard pressure, boundary channels,\n"
      "                       leaf-to-leaf traffic (+ FILE.matrix.csv\n"
      "                       heatmap; byte-stable across --jobs and\n"
      "                       --sim-threads; see also tools/ksrtop)\n"
      "\n"
      "kernel size flags: --log2-pairs (ep), --n/--nnz-per-row/--iters (cg),\n"
      "  --log2-keys/--log2-buckets (is, --pad-buckets pads per-cpu bucket\n"
      "  portions to sub-page boundaries), --n/--iters/--no-padding/\n"
      "  --no-prefetch (sp), --n/--iters (bt); --seed N sets the input seed\n"
      "  of ep/cg/is in kernel, sweep and submit (0 = the kernel default)\n"
      "\n"
      "checkpointing (kernel --name is only; docs/CHECKPOINT.md):\n"
      "  --checkpoint-at FILE  run the split-phase IS kernel and write a\n"
      "                        checkpoint of the quiesced machine at the\n"
      "                        warm-up boundary before the timed phases\n"
      "  --restore-from FILE   skip the warm-up: restore the machine from a\n"
      "                        checkpoint (same machine flags required) and\n"
      "                        run the timed phases bit-exactly");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cmd_help();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv);
    int rc = 0;
    if (cmd == "probe") rc = cmd_probe(args);
    else if (cmd == "barrier") rc = cmd_barrier(args);
    else if (cmd == "lock") rc = cmd_lock(args);
    else if (cmd == "kernel") rc = cmd_kernel(args);
    else if (cmd == "sweep") rc = cmd_sweep(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    else if (cmd == "submit") rc = cmd_submit(args);
    else if (cmd == "campaign") rc = cmd_campaign(args);
    else rc = cmd_help();
    return g_check_failed && rc == 0 ? 1 : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksrsim: %s\n", e.what());
    return 1;
  }
}

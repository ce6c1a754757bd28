// hostbench — host-time benchmark binary for the KSR-1 simulator.
//
//   hostbench run --workload W --seed N --seconds S --trace 0|1
//                 --pins FILE --preset FILE --work-dir DIR [--trace-out FILE]
//   hostbench pin --pins-out FILE --preset FILE --work-dir DIR
//
// `run` prints one JSON object of raw measurements (rounds, set-up samples,
// latency samples, exact counters, failures) on stdout; run.py turns it into
// the benchmark's metrics. See README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>

#include "jobs.hpp"
#include "ksr/host/sweep_runner.hpp"
#include "ksr/serve/json.hpp"
#include "serve_replay.hpp"
#include "trace.hpp"

namespace hb = hostbench;
using ksr::serve::Json;

namespace {

constexpr unsigned kWorkers = 2;      // busy host threads per workload
constexpr unsigned kBatchSetupReps = 2;      // batch set-up samples per round
constexpr unsigned kBuildSamples = 4;        // mode-B set-up samples per round
constexpr unsigned kBuildsPerSample = 8;     // machine builds timed as one
constexpr std::uint32_t kSetupRound = 0;

struct Options {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required for `run`
  bool trace = false;
  std::string pins;
  std::string pins_out;
  std::string preset = "presets/is64_warm.ckpt";
  std::string work_dir = ".bench_build/hostbench/work";
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  if (argc < 2) throw std::invalid_argument("missing command");
  o.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v != "0";
    else if (a == "--pins") o.pins = v;
    else if (a == "--pins-out") o.pins_out = v;
    else if (a == "--preset") o.preset = v;
    else if (a == "--work-dir") o.work_dir = v;
    else if (a == "--trace-out") o.trace_out = v;
    else throw std::invalid_argument("unknown option " + a);
  }
  if (o.cmd == "run" && !(o.seconds > 0.0)) {
    throw std::invalid_argument("run needs --seconds > 0");
  }
  return o;
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

double secs_since(std::uint64_t t0) {
  return static_cast<double>(hb::now_ns() - t0) * 1e-9;
}

Json num(double v) { return Json::real(v); }

Json metrics_json(const std::map<std::string, double>& m) {
  Json j = Json::object();
  for (const auto& [k, v] : m) j.set(k, num(v));
  return j;
}

/// Check one job's outcome against its pin (and the kernel's self-check).
void check_job(const hb::BenchJob& j, const hb::JobResult& r,
               const hb::Pins& pins, hb::Failures& f) {
  if (!r.valid) f.add(j.id + ": kernel self-check failed");
  const auto it = pins.find(j.id);
  if (it == pins.end()) {
    f.add(j.id + ": no pin");
  } else if (it->second.events != r.events || it->second.digest != r.digest) {
    f.add(j.id + ": events " + std::to_string(r.events) + " digest " +
          hb::hex64(r.digest) + " differ from pin " +
          std::to_string(it->second.events) + " " +
          hb::hex64(it->second.digest));
  }
}

/// One timed round's raw record.
struct Round {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  hb::Counters counters;
  hb::EngineProfile engine;
  std::map<std::string, double> exact;  // exact counters of this round
  std::map<std::string, double> host;   // non-exact per-round values
  std::map<std::string, double> self;   // traced: self time by span layer
  std::vector<hb::ServeSample> samples;
  std::uint64_t t_start = 0, t_end = 0;
};

/// Runs rounds until `seconds` of timed work have elapsed (at least
/// `min_rounds`); a round starts only if half a round still fits. `setup`
/// runs before every round, outside it and traced under kSetupRound: set-up
/// is sampled across the whole run, so its median sees the same host speed
/// as the rounds' median rather than the first half second's.
template <typename Setup, typename Fn>
std::vector<Round> run_rounds(const Options& o, unsigned min_rounds,
                              Setup&& setup, Fn&& fn) {
  std::vector<Round> rounds;
  double spent = 0.0;
  double last = 0.0;
  for (std::uint32_t r = 1;; ++r) {
    if (rounds.size() >= min_rounds && spent + 0.5 * last >= o.seconds) break;
    if (rounds.size() >= 1000) break;
    hb::Trace::set_round(kSetupRound);
    hb::Trace::set_enabled(o.trace);
    setup();
    hb::Trace::set_enabled(false);
    // The traced run alternates untraced and traced rounds, so the trace
    // overhead is measured within one process.
    const bool traced = o.trace && r % 2 == 0;
    hb::Trace::set_enabled(traced);
    hb::Trace::set_round(r);
    Round rd;
    rd.traced = traced;
    rd.t_start = hb::now_ns();
    fn(rd, r);
    rd.t_end = hb::now_ns();
    hb::Trace::set_enabled(false);
    last = static_cast<double>(rd.t_end - rd.t_start) * 1e-9;
    spent += last;
    rounds.push_back(std::move(rd));
  }
  return rounds;
}

/// Per-layer values of a traced round, from its spans and counters.
void derive_layers(const std::string& workload, Round& rd,
                   const hb::Trace::RoundLayers& L,
                   const std::vector<hb::SpanRecord>& spans, std::uint32_t r) {
  auto inc = [&L](const char* name) {
    const auto it = L.find(name);
    return it == L.end() ? 0.0 : it->second.inclusive_s;
  };
  const double nas_s = inc("nas.is") + inc("nas.cg") + inc("nas.ep") +
                       inc("nas.sp") + inc("nas.bt");
  double sim_s = nas_s + inc("machine.run");
  if (workload == "serve-replay") {
    for (const hb::ServeSample& s : rd.samples) {
      if (!s.cached) sim_s += s.latency_us * 1e-6;
    }
  }
  for (const auto& [name, lt] : L) rd.self[name] = lt.self_s;
  const hb::Counters& c = rd.counters;
  auto& h = rd.host;
  h["sim.ns_per_event"] = c.events ? sim_s / double(c.events) * 1e9 : 0.0;
  h["sim.barrier_wait_ppm"] =
      rd.engine.slot_ns ? double(rd.engine.barrier_wait_ns) * 1e6 /
                              double(rd.engine.slot_ns)
                        : 0.0;
  h["sim.critical_domain_ppm"] =
      rd.engine.quanta ? double(rd.engine.critical_quanta) * 1e6 /
                             double(rd.engine.quanta)
                       : 0.0;
  h["sim.phase_wall_s"] = double(rd.engine.phase_wall_ns) * 1e-9;
  h["machine.build_s"] = inc("machine.build");
  h["machine.run_s"] = sim_s;
  h["sync.lock_s"] = inc("sync.lock");
  h["sync.barrier_s"] = inc("sync.barrier");
  h["sync.us_per_lock_op"] =
      c.lock_ops ? inc("sync.lock") / double(c.lock_ops) * 1e6 : 0.0;
  h["sync.us_per_episode"] =
      c.barrier_episodes ? inc("sync.barrier") / double(c.barrier_episodes) * 1e6
                         : 0.0;
  h["nas.is_s"] = inc("nas.is");
  h["nas.cg_s"] = inc("nas.cg");
  h["nas.ep_s"] = inc("nas.ep");
  h["nas.sp_s"] = inc("nas.sp");
  h["nas.bt_s"] = inc("nas.bt");
  h["ckpt.restore_s"] = inc("ckpt.restore");

  // Host pool: busy share and tail (from the first worker to run out of
  // jobs to the end of the batch).
  const double jobs_s = inc("host.job");
  if (jobs_s > 0.0 && (workload == "nas-sweep" || workload == "sync-contention")) {
    std::map<std::uint32_t, std::uint64_t> last_end;
    for (const hb::SpanRecord& s : spans) {
      if (s.round != r || std::strcmp(s.layer, "host.job") != 0) continue;
      last_end[s.thread] = std::max(last_end[s.thread], s.end_ns);
    }
    std::uint64_t first_idle = rd.t_end;
    for (const auto& [t, e] : last_end) first_idle = std::min(first_idle, e);
    if (last_end.size() < kWorkers) first_idle = rd.t_start;
    h["host.busy_ppm"] = jobs_s / (kWorkers * rd.wall_s) * 1e6;
    h["host.tail_s"] = static_cast<double>(rd.t_end - first_idle) * 1e-9;
  } else {
    h["host.busy_ppm"] = 0.0;
    h["host.tail_s"] = 0.0;
  }
}

// ------------------------------------------------------------ workloads

struct RunOutput {
  std::vector<double> setup_s;
  unsigned setup_calls = 0;  // set-up repetitions traced under kSetupRound
  std::vector<Round> rounds;
  hb::Failures failures;
  std::uint64_t attempted = 0;
  Json order = Json::array();  // execution order evidence
  std::map<std::string, double> probes;
};

void batch_workload(const Options& o, const hb::Pins& pins, RunOutput& out) {
  const bool nas = o.workload == "nas-sweep";
  std::vector<hb::BenchJob> jobs;
  std::unique_ptr<ksr::host::SweepRunner> runner;
  std::unique_ptr<hb::WarmStart> warm;
  // Set-up is repeated before every round; the round uses the last one.
  auto setup = [&] {
    for (unsigned rep = 0; rep < kBatchSetupReps; ++rep) {
      const std::uint64_t t0 = hb::now_ns();
      {
        hb::Span s("setup");
        runner.reset();
        warm.reset();
        jobs = nas ? hb::nas_batch(o.seed) : hb::sync_batch(o.seed);
        hb::order_longest_first(jobs, pins);
        runner = std::make_unique<ksr::host::SweepRunner>(kWorkers);
        if (nas) {
          warm = std::make_unique<hb::WarmStart>(
              hb::capture_warm(hb::nas_warm_donor(o.seed)));
        } else {
          // Small lock and barrier experiments warm the pool, the code
          // paths and the allocator.
          const std::vector<hb::BenchJob> w = hb::sync_warmup_jobs();
          std::vector<hb::JobResult> res(w.size());
          runner->run_indexed(w.size(), [&](std::size_t i) {
            res[i] = hb::run_job(w[i], nullptr, 0);
          });
          for (std::size_t i = 0; i < w.size(); ++i) {
            check_job(w[i], res[i], pins, out.failures);
          }
        }
      }
      out.setup_s.push_back(secs_since(t0));
      ++out.setup_calls;
    }
  };

  // A traced run needs rounds untraced-traced-untraced for the overhead.
  out.rounds = run_rounds(o, o.trace ? 3 : 1, setup, [&](Round& rd, std::uint32_t) {
    std::vector<hb::JobResult> res(jobs.size());
    std::vector<std::string> errs(jobs.size());
    const double c0 = hb::process_cpu_s();
    const std::uint64_t t0 = hb::now_ns();
    {
      hb::Span round_span("round");
      const std::uint32_t parent = round_span.id();
      runner->run_indexed(jobs.size(), [&](std::size_t i) {
        try {
          res[i] = hb::run_job(jobs[i], warm.get(),
                               static_cast<std::uint32_t>(i), parent);
        } catch (const std::exception& e) {
          errs[i] = e.what();
        }
      });
    }
    rd.wall_s = secs_since(t0);
    rd.cpu_s = hb::process_cpu_s() - c0;
    rd.jobs = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ++out.attempted;
      if (!errs[i].empty()) {
        out.failures.add(jobs[i].id + ": " + errs[i]);
        continue;
      }
      check_job(jobs[i], res[i], pins, out.failures);
      rd.counters.add(res[i].counters);
      rd.engine.add(res[i].engine);
    }
    rd.events = rd.counters.events;
  });
  for (const auto& j : jobs) {
    const auto it = pins.find(j.id);
    Json e = Json::array();
    e.push(Json::str(j.id));
    e.push(Json::uint(it == pins.end() ? 0 : it->second.events));
    out.order.push(std::move(e));
  }
}

void scaleout_workload(const Options& o, const hb::Pins& pins, RunOutput& out) {
  const hb::BenchJob job = hb::scaleout_job(o.seed);
  // Set-up is building the machine, a step of about 0.15 ms: one sample
  // times kBuildsPerSample builds, so the clock and a single page-fault
  // burst do not dominate it.
  auto setup = [&] {
    for (unsigned rep = 0; rep < kBuildSamples; ++rep) {
      const std::uint64_t t0 = hb::now_ns();
      for (unsigned b = 0; b < kBuildsPerSample; ++b) {
        auto m = hb::build(job, 0);
      }
      out.setup_s.push_back(secs_since(t0) / kBuildsPerSample);
      ++out.setup_calls;
    }
  };
  out.rounds = run_rounds(o, o.trace ? 3 : 2, setup, [&](Round& rd, std::uint32_t) {
    auto m = hb::build(job, 0);
    const double c0 = hb::process_cpu_s();
    const std::uint64_t t0 = hb::now_ns();
    ++out.attempted;
    try {
      const hb::JobResult r = hb::run_job(job, nullptr, 0, 0, std::move(m));
      rd.wall_s = secs_since(t0);
      rd.cpu_s = hb::process_cpu_s() - c0;
      check_job(job, r, pins, out.failures);
      rd.counters = r.counters;
      rd.engine = r.engine;
    } catch (const std::exception& e) {
      rd.wall_s = secs_since(t0);
      rd.cpu_s = hb::process_cpu_s() - c0;
      out.failures.add(job.id + ": " + e.what());
    }
    rd.jobs = 1;
    rd.events = rd.counters.events;
  });
}

void serve_workload(const Options& o, const hb::Pins& pins, RunOutput& out) {
  std::filesystem::create_directories(o.work_dir);
  // Traced runs need two traced rounds for 10 misses beyond the p90.
  // Set-up (bind, empty store, connects, stream) is part of each round's
  // serve_round call, timed apart from the replay.
  out.rounds = run_rounds(o, o.trace ? 4 : 1, [] {}, [&](Round& rd, std::uint32_t r) {
    hb::ServeRound sr = hb::serve_round(o.seed, o.preset, o.work_dir, pins,
                                        r, rd.traced, out.failures);
    out.setup_s.push_back(sr.setup_s);
    rd.wall_s = sr.wall_s;
    rd.cpu_s = sr.cpu_s;
    rd.jobs = sr.requests;
    rd.events = sr.events;
    rd.counters.events = sr.events;
    out.attempted += sr.requests;
    rd.samples = std::move(sr.samples);
    auto stat = [&sr](const char* k) {
      const auto it = sr.stats.find(k);
      return it == sr.stats.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double req = static_cast<double>(sr.requests);
    rd.exact["serve.requests"] = req;
    rd.exact["serve.executed"] = stat("executed");
    rd.exact["serve.stores"] = stat("stores");
    rd.exact["serve.load_errors"] = stat("load_errors");
    rd.exact["serve.failures"] = stat("failures");
    rd.exact["serve.hit_ratio_ppm"] =
        req > 0 ? std::floor((req - stat("executed")) * 1e6 / req) : 0.0;
    rd.host["serve.cached"] = stat("hits");
    rd.host["serve.inflight_dedup"] = stat("inflight_dedup");
    if (rd.traced) rd.host["serve.ping_us"] = sr.ping_us;
  });
  if (o.trace) {
    hb::Trace::set_enabled(true);
    out.probes["serve.key_us"] = hb::probe_key_us(o.preset);
    hb::Trace::set_enabled(false);
  }
}

int cmd_run(const Options& o) {
  const hb::Pins pins = hb::load_pins(o.pins);
  RunOutput out;
  if (o.workload == "nas-sweep" || o.workload == "sync-contention") {
    batch_workload(o, pins, out);
  } else if (o.workload == "scaleout-modeB") {
    scaleout_workload(o, pins, out);
  } else if (o.workload == "serve-replay") {
    serve_workload(o, pins, out);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }

  // Exact counters must repeat in every round, traced or not.
  for (Round& rd : out.rounds) {
    for (const auto& [k, v] : rd.counters.exact_metrics()) {
      if (rd.exact.find(k) == rd.exact.end()) rd.exact[k] = v;
    }
  }
  for (std::size_t i = 1; i < out.rounds.size(); ++i) {
    if (out.rounds[i].exact != out.rounds[0].exact) {
      out.failures.add("exact counters of round " + std::to_string(i + 1) +
                       " differ from round 1");
    }
  }

  const std::vector<hb::SpanRecord> spans =
      o.trace ? hb::Trace::collect() : std::vector<hb::SpanRecord>{};
  const auto layers = hb::Trace::layer_times(spans);
  Json setup_layers = Json::object();
  if (o.trace) {
    for (std::uint32_t r = 1; r <= out.rounds.size(); ++r) {
      Round& rd = out.rounds[r - 1];
      if (!rd.traced) continue;
      const auto it = layers.find(r);
      derive_layers(o.workload, rd,
                    it == layers.end() ? hb::Trace::RoundLayers{} : it->second,
                    spans, r);
    }
    if (const auto it = layers.find(kSetupRound);
        it != layers.end() && out.setup_calls > 0) {
      for (const auto& [name, lt] : it->second) {
        setup_layers.set(name, num(lt.inclusive_s / out.setup_calls));
      }
    }
    if (!o.trace_out.empty()) hb::Trace::write_csv(o.trace_out, spans);
  }

  Json j = Json::object();
  j.set("workload", Json::str(o.workload));
  j.set("seed", Json::uint(o.seed));
  j.set("trace", Json::boolean(o.trace));
  j.set("pid", Json::uint(static_cast<std::uint64_t>(::getpid())));
  j.set("workers", Json::uint(kWorkers));
  Json setup = Json::array();
  for (double s : out.setup_s) setup.push(num(s));
  j.set("setup_s", std::move(setup));
  Json rounds = Json::array();
  for (const Round& rd : out.rounds) {
    Json r = Json::object();
    r.set("traced", Json::boolean(rd.traced));
    r.set("wall_s", num(rd.wall_s));
    r.set("cpu_s", num(rd.cpu_s));
    r.set("jobs", Json::uint(rd.jobs));
    r.set("events", Json::uint(rd.events));
    r.set("host", metrics_json(rd.host));
    r.set("self_s", metrics_json(rd.self));
    Json hits = Json::array();
    Json misses = Json::array();
    for (const hb::ServeSample& s : rd.samples) {
      if (s.cached) {
        Json h = Json::array();
        h.push(num(s.latency_us));
        h.push(Json::boolean(s.preset));
        hits.push(std::move(h));
      } else {
        misses.push(num(s.latency_us));
      }
    }
    r.set("hits_us", std::move(hits));
    r.set("misses_us", std::move(misses));
    rounds.push(std::move(r));
  }
  j.set("rounds", std::move(rounds));
  j.set("exact", metrics_json(out.rounds.empty() ? std::map<std::string, double>{}
                                                   : out.rounds[0].exact));
  j.set("setup_layers", std::move(setup_layers));
  j.set("probes", metrics_json(out.probes));
  j.set("order", std::move(out.order));
  j.set("attempted", Json::uint(out.attempted));
  j.set("failed", Json::uint(out.failures.count));
  Json errs = Json::array();
  for (const auto& e : out.failures.reasons) errs.push(Json::str(e));
  j.set("errors", std::move(errs));
  j.set("peak_rss_mb", num(peak_rss_mb()));
  std::cout << j.dump() << std::endl;
  return 0;
}

// ------------------------------------------------------------ pinning

void pin_jobs(const std::vector<hb::BenchJob>& jobs,
              const std::map<std::string, hb::WarmStart>& warm, Json& out,
              unsigned workers) {
  ksr::host::SweepRunner runner(workers);
  std::vector<hb::JobResult> res(jobs.size());
  runner.run_indexed(jobs.size(), [&](std::size_t i) {
    const auto it = warm.find(jobs[i].id.substr(0, jobs[i].id.rfind('/')));
    res[i] = hb::run_job(jobs[i], it == warm.end() ? nullptr : &it->second,
                         static_cast<std::uint32_t>(i));
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!res[i].valid) throw std::runtime_error(jobs[i].id + ": invalid result");
    Json e = Json::object();
    e.set("events", Json::uint(res[i].events));
    e.set("digest", Json::str(hb::hex64(res[i].digest)));
    out.set(jobs[i].id, std::move(e));
    std::cerr << "pinned " << jobs[i].id << " events=" << res[i].events
              << " wall=" << res[i].wall_s << "s\n";
  }
}

int cmd_pin(const Options& o) {
  Json jobs = Json::object();
  // Fork jobs restore the image of the donor with the same variant; the
  // lookup key is the fork id without its prefetch suffix.
  std::map<std::string, hb::WarmStart> warm;
  for (const hb::BenchJob& d : hb::nas_donor_catalogue()) {
    const std::string v = d.id.substr(d.id.rfind('/'));
    warm.emplace("fork/is/ksr1-32" + v, hb::capture_warm(d));
  }
  pin_jobs(hb::nas_catalogue(), warm, jobs, kWorkers);
  pin_jobs(hb::sync_catalogue(), {}, jobs, kWorkers);
  pin_jobs(hb::scaleout_catalogue(), {}, jobs, 1);
  const std::vector<hb::ServeItem> items = hb::serve_catalogue(o.preset);
  std::vector<ksr::serve::JobOutcome> outs(items.size());
  ksr::host::SweepRunner runner(kWorkers);
  runner.run_indexed(items.size(), [&](std::size_t i) {
    outs[i] = ksr::serve::execute(items[i].spec, 1);
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    Json e = Json::object();
    e.set("events", Json::uint(outs[i].events));
    e.set("digest", Json::str(hb::hex64(hb::bytes_digest(outs[i].result))));
    jobs.set(items[i].id, std::move(e));
  }
  Json root = Json::object();
  root.set("about", Json::str(
      "events_dispatched and result digest of every job the benchmark can "
      "draw, recorded with `python3 hostbench/run.py --pin`"));
  root.set("jobs", std::move(jobs));
  std::ofstream os(o.pins_out);
  if (!os) throw std::runtime_error("cannot write " + o.pins_out);
  os << root.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.cmd == "run") return cmd_run(o);
    if (o.cmd == "pin") return cmd_pin(o);
    throw std::invalid_argument("unknown command '" + o.cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 2;
  }
}

#include "serve_replay.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ksr/serve/json.hpp"
#include "ksr/serve/server.hpp"
#include "trace.hpp"

namespace hostbench {

namespace fs = std::filesystem;
using ksr::serve::Json;
using ksr::serve::JobSpec;

namespace {

constexpr unsigned kServeVariants = 8;  // per shape in the catalogue
constexpr unsigned kPoolVariants = 4;   // per shape in one seed's pool
constexpr std::size_t kRequests = 520;  // per round
constexpr std::size_t kPresetShare = 4; // one request in four is the preset

struct ServeShape {
  const char* workload;
  const char* machine;
  unsigned procs, size, size2, iters;
};

// Small jobs (IS/CG/EP/SP/BT at 8-16 cells): each executes in tens of ms.
constexpr ServeShape kShapes[] = {
    {"is", "ksr1", 8, 13, 9, 0},   {"is", "ksr1", 16, 13, 9, 0},
    {"is", "ksr2", 16, 12, 8, 0},  {"cg", "ksr1", 8, 500, 16, 2},
    {"cg", "ksr1", 16, 400, 16, 2}, {"cg", "ksr2", 16, 400, 16, 2},
    {"ep", "ksr1", 8, 12, 0, 0},   {"ep", "ksr1", 16, 12, 0, 0},
    {"ep", "ksr2", 16, 12, 0, 0},  {"sp", "ksr1", 8, 10, 0, 1},
    {"sp", "ksr2", 16, 8, 0, 1},   {"bt", "ksr1", 8, 8, 0, 1},
    {"bt", "ksr2", 16, 6, 0, 1},
};

ServeItem shape_item(const ServeShape& s, unsigned variant) {
  ServeItem it;
  JobSpec& j = it.spec;
  j.machine = s.machine;
  j.procs = s.procs;
  j.scale = 64;
  j.workload = s.workload;
  if (j.workload == "is") {
    j.log2_keys = s.size;
    j.log2_buckets = s.size2;
  } else if (j.workload == "cg") {
    j.n = s.size;
    j.nnz_per_row = s.size2;
    j.iters = s.iters;
  } else if (j.workload == "ep") {
    j.log2_pairs = s.size;
  } else {
    j.n = s.size;
    j.iters = s.iters;
  }
  if (variant != 0) {
    if (j.workload == "sp" || j.workload == "bt") {
      j.fuzz_seed = variant;  // no input seed: vary the schedule instead
    } else {
      j.seed = 2000 + variant;
    }
  }
  it.id = "serve/" + j.workload + "/" + j.machine + "-" +
          std::to_string(j.procs) + "/" + std::to_string(s.size) + "x" +
          std::to_string(s.size2) + "x" + std::to_string(s.iters) + "/v" +
          std::to_string(variant);
  return it;
}

ServeItem preset_item(const std::string& preset) {
  // The committed presets/is64_warm.ckpt capture (presets/README.md).
  ServeItem it;
  it.id = "serve/preset/is64_warm";
  it.preset = true;
  JobSpec& j = it.spec;
  j.machine = "ksr1";
  j.procs = 64;
  j.scale = 64;
  j.workload = "is";
  j.log2_keys = 11;
  j.log2_buckets = 7;
  j.restore_from = preset;
  return it;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The "result" member of a reply line, byte for byte: the server writes it
/// last, so it runs from after "result": to the closing brace of the line.
std::string result_bytes(const std::string& line) {
  static const std::string tag = "\"result\":";
  const std::size_t p = line.find(tag);
  if (p == std::string::npos || line.size() < p + tag.size() + 1) return {};
  return line.substr(p + tag.size(), line.size() - (p + tag.size()) - 1);
}

}  // namespace

std::vector<ServeItem> serve_pool(std::uint64_t seed, const std::string& preset) {
  SeedRng rng(seed ^ 0x7365727665ull);
  std::vector<ServeItem> pool;
  for (const ServeShape& s : kShapes) {
    std::vector<unsigned> v(kServeVariants);
    for (unsigned i = 0; i < kServeVariants; ++i) v[i] = i;
    for (unsigned i = 0; i < kPoolVariants; ++i) {
      std::swap(v[i], v[i + rng.below(kServeVariants - i)]);
      pool.push_back(shape_item(s, v[i]));
    }
  }
  pool.push_back(preset_item(preset));
  return pool;
}

std::vector<ServeItem> serve_catalogue(const std::string& preset) {
  std::vector<ServeItem> out;
  for (const ServeShape& s : kShapes) {
    for (unsigned v = 0; v < kServeVariants; ++v) out.push_back(shape_item(s, v));
  }
  out.push_back(preset_item(preset));
  return out;
}

ServeStream make_stream(std::uint64_t seed, const std::string& preset) {
  ServeStream st;
  st.pool = serve_pool(seed, preset);
  const std::size_t plain = st.pool.size() - 1;  // the preset is last
  const std::size_t preset_idx = plain;
  SeedRng rng(seed ^ 0x73747265616dull);

  const std::size_t n_preset = kRequests / kPresetShare;
  for (std::size_t i = 0; i < plain; ++i) st.order.push_back(i);
  for (std::size_t i = 0; i < n_preset; ++i) st.order.push_back(preset_idx);

  // Zipf(1) over a seed-drawn popularity ranking of the plain items.
  std::vector<std::size_t> rank(plain);
  for (std::size_t i = 0; i < plain; ++i) rank[i] = i;
  for (std::size_t i = plain; i > 1; --i) std::swap(rank[i - 1], rank[rng.below(i)]);
  std::vector<double> cdf(plain);
  double acc = 0.0;
  for (std::size_t r = 0; r < plain; ++r) cdf[r] = (acc += 1.0 / double(r + 1));
  while (st.order.size() < kRequests) {
    const double u = rng.unit() * acc;
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    st.order.push_back(rank[std::min(r, plain - 1)]);
  }
  for (std::size_t i = st.order.size(); i > 1; --i) {
    std::swap(st.order[i - 1], st.order[rng.below(i)]);
  }
  for (std::size_t idx : st.order) {
    Json req = Json::object();
    req.set("op", Json::str("submit"));
    req.set("job", st.pool[idx].spec.to_json());
    st.lines.push_back(req.dump());
  }
  return st;
}

ServeRound serve_round(std::uint64_t seed, const std::string& preset,
                       const std::string& work_dir, const Pins& pins,
                       unsigned round, bool probe_ping, Failures& failures) {
  ServeRound out;
  const std::string tag = std::to_string(round);
  const std::string store = work_dir + "/store-" + tag;
  const std::string sock = work_dir + "/s" + tag + ".sock";
  fs::remove_all(store);

  // Stops and joins the daemon on every path out of this function.
  struct Daemon {
    std::unique_ptr<ksr::serve::SocketServer> server;
    std::thread thread;
    Daemon() = default;
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
    ~Daemon() {
      if (!thread.joinable()) return;
      server->shutdown();
      thread.join();
    }
  } daemon;

  // ---- set-up: stream generation, empty store, bind, client connects.
  const std::uint64_t s0 = now_ns();
  std::vector<std::unique_ptr<ksr::serve::Client>> clients;
  ServeStream st;
  {
    Span s("serve.setup");
    st = make_stream(seed, preset);
    fs::create_directories(store);
    ksr::serve::SocketServer::Options opt;
    opt.socket_path = sock;
    opt.core.store_dir = store;
    opt.core.jobs = 1;  // single submissions run on the connection threads
    opt.core.sim_threads = 1;
    daemon.server = std::make_unique<ksr::serve::SocketServer>(opt);
    daemon.thread = std::thread([&daemon] { daemon.server->run(); });
    for (int c = 0; c < 2; ++c) {
      clients.push_back(std::make_unique<ksr::serve::Client>(sock));
    }
  }
  out.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;

  // ---- timed part: two closed-loop clients replay the stream.
  struct Reply {
    std::string line;
    double latency_us = 0.0;
  };
  std::vector<Reply> replies(st.lines.size());
  std::vector<std::string> client_errors(2);
  const double c0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  {
    Span round_span("serve.replay");
    const std::uint32_t parent = round_span.id();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = c; i < st.lines.size(); i += 2) {
            Span s("serve.request", static_cast<std::uint32_t>(i), parent);
            const std::uint64_t a = now_ns();
            clients[c]->send_line(st.lines[i]);
            replies[i].line = clients[c]->read_line();
            replies[i].latency_us = static_cast<double>(now_ns() - a) * 1e-3;
          }
        } catch (const std::exception& e) {
          client_errors[c] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.cpu_s = process_cpu_s() - c0;

  // ---- untimed: probes, daemon counters, shutdown.
  if (probe_ping) {
    std::vector<double> pings;
    for (int i = 0; i < 200; ++i) {
      Span s("serve.ping");
      const std::uint64_t a = now_ns();
      clients[0]->send_line("{\"op\":\"ping\"}");
      (void)clients[0]->read_line();
      pings.push_back(static_cast<double>(now_ns() - a) * 1e-3);
    }
    out.ping_us = median(pings);
  }
  clients[0]->send_line("{\"op\":\"stats\"}");
  {
    std::string err;
    const Json j = Json::parse(clients[0]->read_line(), &err);
    const Json* s = j.find("stats");
    if (s != nullptr && s->is_object()) {
      for (const auto& [k, v] : s->members()) {
        std::uint64_t n = 0;
        if (v.as_u64(&n)) out.stats[k] = n;
      }
    }
  }
  clients[0]->send_line("{\"op\":\"shutdown\"}");
  (void)clients[0]->read_line();
  clients.clear();
  daemon.thread.join();
  fs::remove_all(store);
  fs::remove(sock);

  // ---- correctness: every reply ok, executed replies match their pins,
  // every reply for one key carries the same bytes.
  auto fail = [&failures](const std::string& why) { failures.add(why); };
  for (const std::string& e : client_errors) {
    if (!e.empty()) fail("client: " + e);
  }
  std::map<std::string, std::string> bytes_by_key;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const ServeItem& item = st.pool[st.order[i]];
    ++out.requests;
    if (replies[i].line.empty()) {
      fail(item.id + ": no reply");
      continue;
    }
    std::string err;
    const Json j = Json::parse(replies[i].line, &err);
    const Json* ok = j.find("ok");
    const Json* key = j.find("key");
    const Json* cached = j.find("cached");
    if (!err.empty() || ok == nullptr || !ok->as_bool() || key == nullptr ||
        cached == nullptr) {
      fail(item.id + ": " + replies[i].line.substr(0, 200));
      continue;
    }
    const std::string bytes = result_bytes(replies[i].line);
    const auto [it, fresh] = bytes_by_key.emplace(key->as_string(), bytes);
    if (!fresh && it->second != bytes) {
      fail(item.id + ": reply bytes differ for key " + key->as_string());
      continue;
    }
    const bool was_cached = cached->as_bool();
    if (!was_cached) {
      std::uint64_t events = 0;
      const Json res = Json::parse(bytes, &err);
      const Json* ev = res.find("events_dispatched");
      if (ev == nullptr || !ev->as_u64(&events)) {
        fail(item.id + ": result without events_dispatched");
        continue;
      }
      out.events += events;
      const auto pin = pins.find(item.id);
      const std::uint64_t digest = bytes_digest(bytes);
      if (pin == pins.end()) {
        fail(item.id + ": no pin");
        continue;
      }
      if (pin->second.events != events || pin->second.digest != digest) {
        fail(item.id + ": result differs from its pin");
        continue;
      }
    }
    out.samples.push_back({replies[i].latency_us, was_cached, item.preset});
  }
  return out;
}

double probe_key_us(const std::string& preset) {
  const ServeItem it = preset_item(preset);
  std::vector<double> v;
  for (int i = 0; i < 15; ++i) {
    Span s("serve.key");
    const std::uint64_t a = now_ns();
    (void)ksr::serve::derive_key(it.spec);
    v.push_back(static_cast<double>(now_ns() - a) * 1e-3);
  }
  return median(v);
}

}  // namespace hostbench

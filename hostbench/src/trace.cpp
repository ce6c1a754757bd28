#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace hostbench {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  // indices into spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_round{0};
std::atomic<std::uint32_t> g_next_id{0};
std::mutex g_mu;
std::deque<std::unique_ptr<Buffer>> g_buffers;  // outlive their threads

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buf = g_buffers.back().get();
    buf->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return *buf;
}

}  // namespace

void Trace::set_enabled(bool on) { g_enabled.store(on); }
bool Trace::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Trace::set_round(std::uint32_t r) { g_round.store(r); }

std::uint32_t Trace::begin(const char* layer, std::uint32_t job,
                           std::uint32_t parent) {
  if (!enabled()) return 0;
  Buffer& b = local_buffer();
  SpanRecord s;
  s.layer = layer;
  s.id = ++g_next_id;
  s.parent = parent != 0 ? parent
                         : (b.open.empty() ? 0 : b.spans[b.open.back()].id);
  s.job = job;
  s.round = g_round.load(std::memory_order_relaxed);
  s.thread = b.thread;
  s.start_ns = now_ns();
  b.open.push_back(b.spans.size());
  b.spans.push_back(s);
  return s.id;
}

void Trace::end(std::uint32_t id) {
  const std::uint64_t t = now_ns();
  Buffer& b = local_buffer();
  if (b.open.empty() || b.spans[b.open.back()].id != id) {
    throw std::logic_error("hostbench trace: spans closed out of order");
  }
  b.spans[b.open.back()].end_ns = t;
  b.open.pop_back();
}

std::vector<SpanRecord> Trace::collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers) {
    for (const SpanRecord& s : b->spans) {
      if (s.end_ns != 0) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::map<std::uint32_t, Trace::RoundLayers> Trace::layer_times(
    const std::vector<SpanRecord>& spans) {
  // Children may run on other threads (jobs under a round span), so self
  // time subtracts the union of the child intervals, not their sum.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint32_t, RoundLayers> out;
  for (const SpanRecord& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = 0, hi = 0;
      bool have = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (have && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (have) covered += hi - lo;
        lo = a;
        hi = b;
        have = true;
      }
      if (have) covered += hi - lo;
    }
    LayerTime& lt = out[s.round][s.layer];
    lt.inclusive_s += static_cast<double>(dur) * 1e-9;
    lt.self_s += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  return out;
}

void Trace::write_csv(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "id,parent,layer,round,job,thread,start_ns,end_ns\n";
  for (const SpanRecord& s : spans) {
    os << s.id << ',' << s.parent << ',' << s.layer << ',' << s.round << ','
       << s.job << ',' << s.thread << ',' << s.start_ns << ',' << s.end_ns
       << '\n';
  }
}

}  // namespace hostbench

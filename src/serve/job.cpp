#include "ksr/serve/job.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/bt.hpp"
#include "ksr/nas/cg.hpp"
#include "ksr/nas/ep.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/util/parse.hpp"

namespace ksr::serve {

namespace {

using Member = std::variant<std::string JobSpec::*, unsigned JobSpec::*,
                            std::uint64_t JobSpec::*, bool JobSpec::*>;

// The one field table: JSON (and canonical) name, ksrsim flag, member. The
// order is the canonical order, so rows are only ever appended. A boolean
// flag takes no value and flips its member from `cli_on`, the member's
// command-line default.
struct Field {
  const char* json;
  const char* flag;
  Member member;
  bool cli_on = false;
};

const Field kFields[] = {
    {"machine", "machine", &JobSpec::machine},
    {"procs", "procs", &JobSpec::procs},
    {"scale", "scale", &JobSpec::scale},
    {"snarf", "no-snarf", &JobSpec::snarf, true},
    {"fuzz_seed", "fuzz-seed", &JobSpec::fuzz_seed},
    {"cells_per_leaf", "cells-per-leaf", &JobSpec::cells_per_leaf},
    {"cells_per_domain", "cells-per-domain", &JobSpec::cells_per_domain},
    {"workload", "name", &JobSpec::workload},
    {"seed", "seed", &JobSpec::seed},
    {"log2_keys", "log2-keys", &JobSpec::log2_keys},
    {"log2_buckets", "log2-buckets", &JobSpec::log2_buckets},
    {"pad_buckets", "pad-buckets", &JobSpec::pad_buckets},
    {"n", "n", &JobSpec::n},
    {"nnz_per_row", "nnz-per-row", &JobSpec::nnz_per_row},
    {"iters", "iters", &JobSpec::iters},
    {"log2_pairs", "log2-pairs", &JobSpec::log2_pairs},
    {"restore_from", "restore-from", &JobSpec::restore_from},
    {"padded_layout", "no-padding", &JobSpec::padded_layout, true},
    {"use_prefetch", "no-prefetch", &JobSpec::use_prefetch, true},
};

std::string text(const std::string& v) { return v; }
std::string text(bool v) { return v ? "1" : "0"; }
template <typename T>
std::string text(T v) { return std::to_string(v); }

Json json_of(const std::string& v) { return Json::str(v); }
Json json_of(bool v) { return Json::boolean(v); }
template <typename T>
Json json_of(T v) { return Json::uint(v); }

// JSON value -> field; on a type mismatch, the expected type for the error.
// Flag values take the same path, so the command line and JSON agree on
// what a field accepts.
const char* from(const Json& v, std::string* out) {
  if (!v.is_string()) return "a string";
  *out = v.as_string();
  return nullptr;
}
const char* from(const Json& v, bool* out) {
  if (v.kind() != Json::Kind::kBool) return "a boolean";
  *out = v.as_bool();
  return nullptr;
}
template <typename T>
const char* from(const Json& v, T* out) {
  std::uint64_t u = 0;
  if (!v.as_u64(&u) || u > std::numeric_limits<T>::max()) {
    return sizeof(T) < sizeof(u) ? "a 32-bit non-negative integer"
                                  : "a non-negative integer";
  }
  *out = static_cast<T>(u);
  return nullptr;
}

const char* assign(const Field& f, const Json& v, JobSpec* s) {
  return std::visit([&](auto m) { return from(v, &(s->*m)); }, f.member);
}

}  // namespace

std::string JobSpec::validate() const {
  try {
    (void)machine_config(*this);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (workload != "ep" && workload != "cg" && workload != "is" &&
      workload != "sp" && workload != "bt") {
    return "unknown workload '" + workload + "' (expected ep|cg|is|sp|bt)";
  }
  if (!restore_from.empty() && workload != "is") {
    return "restore_from applies only to the split-phase 'is' workload";
  }
  return {};
}

std::string JobSpec::canonical() const {
  // Fixed field order, every field always present. This string — not the
  // JSON spelling the client sent — is what the cache key hashes and what
  // each store file records for verification, so field-order or whitespace
  // differences between clients can never split or alias a cache slot.
  std::string c;
  c.reserve(224);
  auto add = [&c](const char* k, const std::string& v) {
    c += k;
    c += '=';
    c += v;
    c += ';';
  };
  for (const Field& f : kFields) {
    if (f.member != Member(&JobSpec::restore_from)) {
      add(f.json, std::visit([this](auto m) { return text(this->*m); },
                             f.member));
    } else if (restore_from.empty()) {
      add("ckpt", "-");
    } else {
      // Content-addressed: the preset's bytes, not its path, feed the key —
      // moving the file changes nothing, regenerating it differently misses.
      const std::vector<std::byte> image = ckpt::read_file(restore_from);
      add("ckpt", CacheKey{ckpt::fnv1a(image.data(), image.size())}.hex());
    }
  }
  return c;
}

Json JobSpec::to_json() const {
  Json j = Json::object();
  for (const Field& f : kFields) {
    j.set(f.json,
          std::visit([this](auto m) { return json_of(this->*m); }, f.member));
  }
  return j;
}

bool JobSpec::from_json(const Json& j, JobSpec* out, std::string* err) {
  if (!j.is_object()) {
    *err = "job spec must be a JSON object";
    return false;
  }
  JobSpec s;
  for (const auto& [key, v] : j.members()) {
    const Field* f = std::find_if(
        std::begin(kFields), std::end(kFields),
        [&key = key](const Field& row) { return key == row.json; });
    if (f == std::end(kFields)) {
      *err = "unknown job field '" + key + "'";
      return false;
    }
    if (const char* want = assign(*f, v, &s)) {
      *err = "field '" + key + "' must be " + want;
      return false;
    }
  }
  *out = s;
  return true;
}

std::vector<JobSpec::Flag> JobSpec::flags() {
  std::vector<Flag> out;
  for (const Field& f : kFields) {
    out.push_back({f.flag, !std::holds_alternative<bool JobSpec::*>(f.member)});
  }
  out.push_back({"leaf-rings", true});
  return out;
}

bool JobSpec::from_flags(const FlagLookup& flag, JobSpec* out,
                         std::string* err) {
  JobSpec s;
  for (const Field& f : kFields) {
    const std::string* v = flag(f.flag);
    Json j;  // null: not an integer
    std::uint64_t u = 0;
    if (std::holds_alternative<bool JobSpec::*>(f.member)) {
      j = Json::boolean((v != nullptr) != f.cli_on);
    } else if (v == nullptr) {
      continue;
    } else if (std::holds_alternative<std::string JobSpec::*>(f.member)) {
      j = Json::str(*v);
    } else if (util::parse_u64(*v, &u)) {
      j = Json::uint(u);
    }
    if (const char* want = assign(f, j, &s)) {
      *err = "--" + std::string(f.flag) + " must be " + want + ", not '" +
             *v + "'";
      return false;
    }
  }
  // --leaf-rings is sugar: it fixes procs = rings x cells per leaf (every
  // preset's leaf size unless --cells-per-leaf overrides it).
  if (const std::string* v = flag("leaf-rings")) {
    std::uint64_t rings = 0;
    constexpr unsigned kMax = machine::MachineConfig::kRing1Positions;
    if (!util::parse_u64(*v, &rings) || rings > kMax) {
      *err = "--leaf-rings must be at most " + std::to_string(kMax) +
             " rings, not '" + *v + "'";
      return false;
    }
    const unsigned leaf = s.cells_per_leaf != 0
                              ? s.cells_per_leaf
                              : machine::MachineConfig{}.cells_per_leaf;
    if (rings != 0) s.procs = static_cast<unsigned>(rings) * leaf;
  }
  *out = s;
  return true;
}

std::string CacheKey::hex() const {
  char buf[2 * 8 + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

CacheKey derive_key(const JobSpec& spec, std::uint32_t code_version) {
  std::string bytes = spec.canonical();
  bytes += "|code_version=" + std::to_string(code_version);
  bytes += "|ckpt_format=" + std::to_string(ckpt::kVersion);
  return CacheKey{ckpt::fnv1a(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size())};
}

machine::MachineConfig machine_config(const JobSpec& s, unsigned sim_threads) {
  machine::MachineConfig cfg = machine::MachineConfig::preset(s.machine,
                                                              s.procs);
  if (s.procs == 0) throw std::invalid_argument("procs must be >= 1");
  if (s.scale == 0) throw std::invalid_argument("scale must be >= 1");
  if (s.scale > 1) cfg = cfg.scaled_by(s.scale);
  if (!s.snarf) cfg.read_snarfing = false;
  cfg.sched_fuzz_seed = s.fuzz_seed;
  cfg.sim_threads = sim_threads;
  if (s.cells_per_leaf != 0) cfg.cells_per_leaf = s.cells_per_leaf;
  cfg.cells_per_domain = s.cells_per_domain;
  cfg.validate();
  return cfg;
}

JobOutcome run_job(const JobSpec& spec, machine::Machine& m,
                   const std::string& checkpoint_at) {
  const std::string bad = spec.validate();
  if (!bad.empty()) throw std::invalid_argument("job: " + bad);
  if (spec.workload != "is" && !checkpoint_at.empty()) {
    throw std::invalid_argument(
        "checkpoints apply only to the split-phase 'is' workload");
  }
  auto or_default = [](unsigned v, unsigned def) { return v != 0 ? v : def; };
  JobOutcome out;
  Json r = Json::object();
  r.set("workload", Json::str(spec.workload));
  r.set("machine", Json::str(spec.machine));
  r.set("procs", Json::uint(spec.procs));
  if (spec.workload == "ep") {
    nas::EpConfig c;
    c.log2_pairs = or_default(spec.log2_pairs, 13);
    if (spec.seed != 0) c.seed = spec.seed;
    const nas::EpResult res = run_ep(m, c);
    r.set("seconds", Json::real(res.seconds));
    r.set("accepted", Json::uint(res.accepted));
    r.set("sum_x", Json::real(res.sum_x));
    r.set("sum_y", Json::real(res.sum_y));
  } else if (spec.workload == "cg") {
    nas::CgConfig c;
    c.n = or_default(spec.n, 1000);
    c.nnz_per_row = or_default(spec.nnz_per_row, 24);
    c.iterations = or_default(spec.iters, 4);
    if (spec.seed != 0) c.seed = spec.seed;
    const nas::CgResult res = run_cg(m, c);
    r.set("seconds", Json::real(res.seconds));
    r.set("initial_residual", Json::real(res.initial_residual));
    r.set("final_residual", Json::real(res.final_residual));
    r.set("nnz", Json::uint(res.nnz));
  } else if (spec.workload == "is") {
    nas::IsConfig c;
    c.log2_keys = or_default(spec.log2_keys, 15);
    c.log2_buckets = or_default(spec.log2_buckets, 10);
    c.pad_buckets = spec.pad_buckets;
    if (spec.seed != 0) c.seed = spec.seed;
    const nas::IsResult res =
        spec.restore_from.empty() && checkpoint_at.empty()
            ? run_is(m, c)
            : nas::run_is_split(m, c, spec.restore_from, checkpoint_at);
    r.set("seconds", Json::real(res.seconds));
    r.set("ranks_valid", Json::boolean(res.ranks_valid));
    r.set("serial_phase_seconds", Json::real(res.serial_phase_seconds));
  } else if (spec.workload == "sp") {
    nas::SpConfig c;
    c.n = or_default(spec.n, 16);
    c.iterations = or_default(spec.iters, 2);
    c.padded_layout = spec.padded_layout;
    c.use_prefetch = spec.use_prefetch;
    const nas::SpResult res = run_sp(m, c);
    r.set("seconds", Json::real(res.total_seconds));
    r.set("seconds_per_iteration", Json::real(res.seconds_per_iteration));
    r.set("checksum", Json::real(res.checksum));
  } else {  // bt
    nas::BtConfig c;
    c.n = or_default(spec.n, 10);
    c.iterations = or_default(spec.iters, 2);
    const nas::BtResult res = run_bt(m, c);
    r.set("seconds", Json::real(res.total_seconds));
    r.set("seconds_per_iteration", Json::real(res.seconds_per_iteration));
    r.set("checksum", Json::real(res.checksum));
  }
  out.seconds = r.find("seconds")->as_double();
  out.events = m.engine().events_dispatched();
  r.set("events_dispatched", Json::uint(out.events));
  out.result = r.dump();
  return out;
}

JobOutcome execute(const JobSpec& spec, unsigned sim_threads) {
  auto m = machine::make_machine(machine_config(spec, sim_threads));
  return run_job(spec, *m);
}

}  // namespace ksr::serve

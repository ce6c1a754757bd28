// ksr::serve (docs/SERVING.md) — the simulation-as-a-service layer.
//
// The contracts under test:
//   * the content-addressed result cache returns byte-identical results for
//     repeated submissions, in-process and across a "restart" (a fresh
//     ServeCore over the same store directory);
//   * the cache key is sensitive to every job-spec field, the seed, the
//     checkpoint preset's *contents*, and the build's code-version stamp;
//   * concurrent submissions of the same spec dedup to exactly ONE
//     execution, all callers receiving the same bytes;
//   * corrupt or mismatched store files degrade to a miss (and re-execute),
//     never to a wrong result served as a hit, and failures are never
//     cached;
//   * the AF_UNIX daemon round-trips jobs from parallel clients with the
//     same bytes a serial in-process run produces;
//   * a campaign killed halfway resumes from the cache, and its result
//     database is byte-identical between a cold and a resumed run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/factory.hpp"
#include "ksr/nas/sp.hpp"
#include "ksr/serve/campaign.hpp"
#include "ksr/serve/core.hpp"
#include "ksr/serve/server.hpp"

namespace ksr::serve {
namespace {

// Small-but-real jobs: scaled machines, tiny problem sizes, ~ms each.
JobSpec small_is(unsigned procs = 2) {
  JobSpec s;
  s.workload = "is";
  s.procs = procs;
  s.scale = 64;
  s.log2_keys = 10;
  s.log2_buckets = 6;
  return s;
}

JobSpec small_cg(unsigned procs = 2) {
  JobSpec s;
  s.workload = "cg";
  s.procs = procs;
  s.scale = 64;
  s.n = 120;
  s.nnz_per_row = 6;
  s.iters = 1;
  return s;
}

// Unique per run: a stale store directory from a previous test invocation
// would turn the cold-miss assertions below into hits.
std::string temp_dir(const std::string& leaf) {
  return ::testing::TempDir() + "ksr_serve_" + std::to_string(::getpid()) +
         "_" + leaf;
}

// ------------------------------------------------------------- JSON layer

TEST(ServeJson, ParsesAndDumpsStably) {
  std::string err;
  const Json j = Json::parse(
      R"({"name":"x","n":18446744073709551615,"neg":-3,"f":0.5,)"
      R"("arr":[1,true,null,"s"],"obj":{"k":"v"}})",
      &err);
  ASSERT_TRUE(err.empty()) << err;
  const std::string once = j.dump();
  const Json back = Json::parse(once, &err);
  ASSERT_TRUE(err.empty()) << err;
  // Insertion-ordered objects: dump is a fixed point after one round trip.
  EXPECT_EQ(back.dump(), once);
  // 64-bit integers survive exactly (no double rounding).
  std::uint64_t big = 0;
  ASSERT_NE(back.find("n"), nullptr);
  ASSERT_TRUE(back.find("n")->as_u64(&big));
  EXPECT_EQ(big, 18446744073709551615ull);
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"k\":}", "tru", "\"unterminated", "{\"a\":1,}",
        "01", "1e", "{\"k\" 1}", "[1 2]"}) {
    std::string err;
    (void)Json::parse(bad, &err);
    EXPECT_FALSE(err.empty()) << "accepted: '" << bad << "'";
  }
}

// ------------------------------------------------------------ cache keys

TEST(ServeKey, SensitiveToEveryFieldAndVersionStamp) {
  const JobSpec base = small_is();
  const std::uint64_t k0 = derive_key(base).value;

  using Mut = void (*)(JobSpec*);
  const std::vector<std::pair<const char*, Mut>> mutations = {
      {"machine", [](JobSpec* s) { s->machine = "ksr2"; }},
      {"procs", [](JobSpec* s) { s->procs = 4; }},
      {"scale", [](JobSpec* s) { s->scale = 32; }},
      {"snarf", [](JobSpec* s) { s->snarf = false; }},
      {"fuzz_seed", [](JobSpec* s) { s->fuzz_seed = 7; }},
      {"cells_per_leaf", [](JobSpec* s) { s->cells_per_leaf = 2; }},
      {"cells_per_domain", [](JobSpec* s) { s->cells_per_domain = 2; }},
      {"workload", [](JobSpec* s) { s->workload = "cg"; }},
      {"seed", [](JobSpec* s) { s->seed = 99; }},
      {"log2_keys", [](JobSpec* s) { s->log2_keys = 11; }},
      {"log2_buckets", [](JobSpec* s) { s->log2_buckets = 7; }},
      {"pad_buckets", [](JobSpec* s) { s->pad_buckets = true; }},
      {"n", [](JobSpec* s) { s->n = 64; }},
      {"nnz_per_row", [](JobSpec* s) { s->nnz_per_row = 5; }},
      {"iters", [](JobSpec* s) { s->iters = 3; }},
      {"log2_pairs", [](JobSpec* s) { s->log2_pairs = 9; }},
      {"padded_layout", [](JobSpec* s) { s->padded_layout = true; }},
      {"use_prefetch", [](JobSpec* s) { s->use_prefetch = true; }},
  };
  std::set<std::uint64_t> keys{k0};
  for (const auto& [name, mutate] : mutations) {
    JobSpec s = base;
    mutate(&s);
    const std::uint64_t k = derive_key(s).value;
    EXPECT_NE(k, k0) << "field '" << name << "' not keyed";
    keys.insert(k);
  }
  // All mutations landed on distinct keys (no accidental aliasing).
  EXPECT_EQ(keys.size(), mutations.size() + 1);

  // A code-version bump (simulated-semantics change) invalidates every key.
  EXPECT_NE(derive_key(base, kCodeVersion + 1).value, k0);
}

TEST(ServeKey, CheckpointPresetIsContentAddressed) {
  const std::string a = temp_dir("preset_a.ckpt");
  const std::string b = temp_dir("preset_b.ckpt");
  ckpt::atomic_write_file(a, "preset bytes one");
  ckpt::atomic_write_file(b, "preset bytes two");

  JobSpec s = small_is();
  s.restore_from = a;
  const std::uint64_t ka = derive_key(s).value;
  s.restore_from = b;
  const std::uint64_t kb = derive_key(s).value;
  EXPECT_NE(ka, kb);

  // Same contents at a different path: same key (the bytes are the
  // identity, not the filename).
  const std::string a2 = temp_dir("preset_a_copy.ckpt");
  ckpt::atomic_write_file(a2, "preset bytes one");
  s.restore_from = a2;
  EXPECT_EQ(derive_key(s).value, ka);

  // Unreadable preset: keying throws (and ServeCore turns it into a
  // failure, below), it must not silently key on an empty image.
  s.restore_from = temp_dir("no_such_preset.ckpt");
  EXPECT_THROW((void)derive_key(s), std::exception);

  std::remove(a.c_str());
  std::remove(a2.c_str());
  std::remove(b.c_str());
}

// Literal canonical strings and keys: a store written by one build must be
// found by the next. Each string is the one the spec serialized to before
// padded_layout/use_prefetch existed, with those two fields appended, so a
// change to the field table that reorders, renames or drops a field fails
// here instead of silently orphaning every stored result.
TEST(ServeKey, CanonicalStringsAndKeysArePinned) {
  const std::string preset = temp_dir("pinned_preset.ckpt");
  ckpt::atomic_write_file(preset, "preset bytes one");
  struct Pin {
    JobSpec spec;
    const char* canonical;
    const char* key;
  };
  std::vector<Pin> pins(7);
  JobSpec* s = &pins[0].spec;
  s->workload = "ep";
  s->procs = 4;
  s->log2_pairs = 10;
  s->seed = 77;
  pins[0].canonical =
      "machine=ksr1;procs=4;scale=1;snarf=1;fuzz_seed=0;cells_per_leaf=0;"
      "cells_per_domain=0;workload=ep;seed=77;log2_keys=0;log2_buckets=0;"
      "pad_buckets=0;n=0;nnz_per_row=0;iters=0;log2_pairs=10;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[0].key = "db8280fe8ae9dddc";
  s = &pins[1].spec;
  s->workload = "cg";
  s->procs = 4;
  s->scale = 64;
  s->n = 300;
  s->nnz_per_row = 7;
  s->iters = 2;
  pins[1].canonical =
      "machine=ksr1;procs=4;scale=64;snarf=1;fuzz_seed=0;cells_per_leaf=0;"
      "cells_per_domain=0;workload=cg;seed=0;log2_keys=0;log2_buckets=0;"
      "pad_buckets=0;n=300;nnz_per_row=7;iters=2;log2_pairs=0;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[1].key = "c8d028b4d3c19e31";
  s = &pins[2].spec;
  s->workload = "is";
  s->procs = 4;
  s->scale = 64;
  s->log2_keys = 11;
  s->log2_buckets = 7;
  s->pad_buckets = true;
  pins[2].canonical =
      "machine=ksr1;procs=4;scale=64;snarf=1;fuzz_seed=0;cells_per_leaf=0;"
      "cells_per_domain=0;workload=is;seed=0;log2_keys=11;log2_buckets=7;"
      "pad_buckets=1;n=0;nnz_per_row=0;iters=0;log2_pairs=0;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[2].key = "488d9213fcee88b9";
  s = &pins[3].spec;
  s->workload = "sp";
  s->procs = 4;
  s->scale = 64;
  s->n = 8;
  s->iters = 1;
  pins[3].canonical =
      "machine=ksr1;procs=4;scale=64;snarf=1;fuzz_seed=0;cells_per_leaf=0;"
      "cells_per_domain=0;workload=sp;seed=0;log2_keys=0;log2_buckets=0;"
      "pad_buckets=0;n=8;nnz_per_row=0;iters=1;log2_pairs=0;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[3].key = "3683f93fc114c5f5";
  s = &pins[4].spec;
  s->workload = "bt";
  s->machine = "ksr2";
  s->procs = 16;
  s->scale = 64;
  s->n = 6;
  s->iters = 1;
  s->fuzz_seed = 3;
  pins[4].canonical =
      "machine=ksr2;procs=16;scale=64;snarf=1;fuzz_seed=3;cells_per_leaf=0;"
      "cells_per_domain=0;workload=bt;seed=0;log2_keys=0;log2_buckets=0;"
      "pad_buckets=0;n=6;nnz_per_row=0;iters=1;log2_pairs=0;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[4].key = "f0221115ed84ca61";
  s = &pins[5].spec;  // topology knobs
  s->workload = "is";
  s->procs = 64;
  s->scale = 64;
  s->cells_per_leaf = 16;
  s->cells_per_domain = 32;
  s->snarf = false;
  pins[5].canonical =
      "machine=ksr1;procs=64;scale=64;snarf=0;fuzz_seed=0;cells_per_leaf=16;"
      "cells_per_domain=32;workload=is;seed=0;log2_keys=0;log2_buckets=0;"
      "pad_buckets=0;n=0;nnz_per_row=0;iters=0;log2_pairs=0;ckpt=-;"
      "padded_layout=0;use_prefetch=0;";
  pins[5].key = "3aaaf9b5655007fa";
  s = &pins[6].spec;  // checkpoint preset, keyed by its bytes
  s->workload = "is";
  s->procs = 64;
  s->scale = 64;
  s->log2_keys = 11;
  s->log2_buckets = 7;
  s->restore_from = preset;
  pins[6].canonical =
      "machine=ksr1;procs=64;scale=64;snarf=1;fuzz_seed=0;cells_per_leaf=0;"
      "cells_per_domain=0;workload=is;seed=0;log2_keys=11;log2_buckets=7;"
      "pad_buckets=0;n=0;nnz_per_row=0;iters=0;log2_pairs=0;"
      "ckpt=a76ae32ff079e369;padded_layout=0;use_prefetch=0;";
  pins[6].key = "c20cc51eed5cc987";
  for (const Pin& p : pins) {
    EXPECT_EQ(p.spec.canonical(), p.canonical);
    EXPECT_EQ(derive_key(p.spec).hex(), p.key) << p.canonical;
  }
  std::remove(preset.c_str());
}

// ------------------------------------------------------ command-line specs

JobSpec spec_from(const std::map<std::string, std::string, std::less<>>& kv,
                  std::string* err = nullptr) {
  JobSpec s;
  std::string e;
  const bool ok = JobSpec::from_flags(
      [&kv](std::string_view f) -> const std::string* {
        const auto it = kv.find(f);
        return it == kv.end() ? nullptr : &it->second;
      },
      &s, &e);
  if (err != nullptr) *err = e;
  EXPECT_EQ(ok, e.empty()) << e;
  return s;
}

TEST(ServeSpec, FlagsMapOntoTheFieldTable) {
  // No flags: the JSON defaults, except SP padding and prefetch are on.
  JobSpec want;
  want.padded_layout = true;
  want.use_prefetch = true;
  EXPECT_EQ(spec_from({}).canonical(), want.canonical());

  const JobSpec s = spec_from({{"name", "sp"},
                               {"machine", "ksr2"},
                               {"procs", "16"},
                               {"scale", "64"},
                               {"fuzz-seed", "9"},
                               {"seed", "77"},
                               {"n", "8"},
                               {"iters", "1"},
                               {"no-snarf", ""},
                               {"no-padding", ""},
                               {"no-prefetch", ""},
                               {"pad-buckets", ""}});
  EXPECT_EQ(s.workload, "sp");
  EXPECT_EQ(s.machine, "ksr2");
  EXPECT_EQ(s.procs, 16u);
  EXPECT_EQ(s.scale, 64u);
  EXPECT_EQ(s.fuzz_seed, 9u);
  EXPECT_EQ(s.seed, 77u);
  EXPECT_EQ(s.n, 8u);
  EXPECT_EQ(s.iters, 1u);
  EXPECT_FALSE(s.snarf);
  EXPECT_FALSE(s.padded_layout);
  EXPECT_FALSE(s.use_prefetch);
  EXPECT_TRUE(s.pad_buckets);

  // A flag-built spec survives the JSON trip a `ksrsim submit` takes.
  JobSpec back;
  std::string err;
  ASSERT_TRUE(JobSpec::from_json(s.to_json(), &back, &err)) << err;
  EXPECT_EQ(back.canonical(), s.canonical());

  // Every field has a flag; only the booleans go without a value.
  const std::vector<JobSpec::Flag> flags = JobSpec::flags();
  EXPECT_EQ(flags.size(), s.to_json().members().size() + 1);  // +leaf-rings
  for (const JobSpec::Flag& f : flags) {
    const std::string name = f.name;
    const bool boolean = name == "no-snarf" || name == "pad-buckets" ||
                         name == "no-padding" || name == "no-prefetch";
    EXPECT_EQ(f.takes_value, !boolean) << name;
  }
}

TEST(ServeSpec, LeafRingsSugarAndBadValues) {
  EXPECT_EQ(spec_from({{"leaf-rings", "2"}, {"cells-per-leaf", "16"},
                       {"procs", "64"}})
                .procs,
            32u);
  // Without --cells-per-leaf the preset's 32-cell leaf ring applies.
  EXPECT_EQ(spec_from({{"leaf-rings", "3"}}).procs, 96u);

  for (const char* flag : {"procs", "n", "seed", "leaf-rings"}) {
    std::string err;
    (void)spec_from({{flag, "-1"}}, &err);
    EXPECT_NE(err.find(std::string("--") + flag), std::string::npos) << err;
  }
  std::string err;
  (void)spec_from({{"procs", "4294967296"}}, &err);
  EXPECT_FALSE(err.empty());
}

TEST(ServeSpec, UnknownMachineIsRejected) {
  JobSpec s = small_is();
  s.machine = "ksr3";
  EXPECT_NE(s.validate().find("unknown machine 'ksr3'"), std::string::npos);
  EXPECT_THROW((void)machine_config(s), std::invalid_argument);
  EXPECT_THROW((void)execute(s), std::exception);
}

// The SP fields reach the kernel: a served job with them on matches a direct
// run_sp with the padded, prefetching layout.
TEST(ServeSpec, SpLayoutFieldsReachTheKernel) {
  JobSpec s;
  s.workload = "sp";
  s.procs = 4;
  s.scale = 64;
  s.n = 8;
  s.iters = 1;
  s.padded_layout = true;
  s.use_prefetch = true;
  auto m = machine::make_machine(machine_config(s));
  nas::SpConfig c;
  c.n = 8;
  c.iterations = 1;
  c.padded_layout = true;
  c.use_prefetch = true;
  const nas::SpResult direct = run_sp(*m, c);
  const JobOutcome served = execute(s);
  EXPECT_EQ(served.events, m->engine().events_dispatched());
  EXPECT_EQ(served.seconds, direct.total_seconds);
  s.padded_layout = s.use_prefetch = false;
  EXPECT_NE(execute(s).events, served.events);
}

// ---------------------------------------------------------------- caching

TEST(ServeCache, RepeatSubmissionIsAByteIdenticalHit) {
  ServeCore::Options opt;
  opt.store_dir = temp_dir("hit_store");
  opt.jobs = 1;
  ServeCore core(opt);

  const JobSpec spec = small_is();
  const ServeCore::Response cold = core.submit(spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cached);
  EXPECT_FALSE(cold.result.empty());

  const ServeCore::Response hit = core.submit(spec);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.result, cold.result);
  EXPECT_EQ(hit.key, cold.key);

  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.cache.hits, 1u);
  EXPECT_EQ(c.cache.misses, 1u);
  EXPECT_EQ(c.cache.stores, 1u);

  // "Restart": a fresh core over the same store directory hits from disk.
  ServeCore core2(opt);
  const ServeCore::Response warm = core2.submit(spec);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.result, cold.result);
  EXPECT_EQ(core2.counters().executed, 0u);
}

TEST(ServeCache, CorruptStoreFileDegradesToMissAndHeals) {
  ServeCore::Options opt;
  opt.store_dir = temp_dir("corrupt_store");
  opt.jobs = 1;
  const JobSpec spec = small_cg();
  std::string reference;
  {
    ServeCore core(opt);
    const ServeCore::Response cold = core.submit(spec);
    ASSERT_TRUE(cold.ok) << cold.error;
    reference = cold.result;
  }
  // Corrupt the entry on disk; a fresh core must not serve it as a hit.
  ResultCache probe(opt.store_dir);
  const std::string path = probe.path_of(derive_key(spec));
  ckpt::atomic_write_file(path, "ksr-serve-cache v1 key=feedfacefeedface\n"
                                "machine=bogus;\n{\"not\":\"the result\"}\n");
  ServeCore core(opt);
  const ServeCore::Response r = core.submit(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.cached);
  EXPECT_EQ(r.result, reference);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_GE(c.cache.load_errors, 1u);
  // The re-execution healed the entry: next submission hits again.
  const ServeCore::Response healed = core.submit(spec);
  EXPECT_TRUE(healed.cached);
  EXPECT_EQ(healed.result, reference);
}

TEST(ServeCache, FailuresAreNeverCached) {
  ServeCore::Options opt;  // memory-only store
  opt.jobs = 1;
  ServeCore core(opt);
  JobSpec bad = small_is();
  bad.restore_from = temp_dir("missing_preset.ckpt");
  const ServeCore::Response r1 = core.submit(bad);
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.cached);
  EXPECT_FALSE(r1.error.empty());
  const ServeCore::Response r2 = core.submit(bad);
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.cached);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.failures, 2u);
  EXPECT_EQ(c.cache.stores, 0u);
  EXPECT_EQ(c.executed, 0u);
}

TEST(ServeCache, ConcurrentDuplicatesDedupToOneExecution) {
  ServeCore::Options opt;  // memory-only
  opt.jobs = 1;
  ServeCore core(opt);
  const JobSpec spec = small_is();

  constexpr std::size_t kClients = 4;
  std::vector<ServeCore::Response> rs(kClients);
  {
    std::vector<std::thread> ts;
    ts.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      ts.emplace_back([&core, &rs, &spec, i] { rs[i] = core.submit(spec); });
    }
    for (auto& t : ts) t.join();
  }
  int uncached = 0;
  for (const ServeCore::Response& r : rs) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.result, rs[0].result);
    if (!r.cached) ++uncached;
  }
  // Exactly one caller simulated; everyone else was served its bytes
  // (in-flight wait or cache hit, depending on arrival time).
  EXPECT_EQ(uncached, 1);
  const ServeCore::Counters c = core.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.cache.stores, 1u);
  EXPECT_EQ(c.inflight_dedup + c.cache.hits,
            static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeCache, BatchMatchesSerialSubmission) {
  const std::vector<JobSpec> specs = {small_is(2), small_cg(2), small_is(4)};

  ServeCore::Options opt;
  opt.jobs = 1;
  ServeCore serial(opt);
  std::vector<std::string> want;
  for (const JobSpec& s : specs) {
    const ServeCore::Response r = serial.submit(s);
    ASSERT_TRUE(r.ok) << r.error;
    want.push_back(r.result);
  }

  opt.jobs = 3;
  ServeCore pooled(opt);
  const std::vector<ServeCore::Response> rs = pooled.submit_batch(specs);
  ASSERT_EQ(rs.size(), specs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ASSERT_TRUE(rs[i].ok) << rs[i].error;
    EXPECT_EQ(rs[i].result, want[i]) << "batch result " << i;
  }
}

// ---------------------------------------------------------------- daemon

TEST(ServeDaemon, ParallelClientsMatchSerialBytes) {
  const JobSpec spec = small_is();

  ServeCore::Options ref_opt;
  ref_opt.jobs = 1;
  ServeCore ref(ref_opt);
  const ServeCore::Response want = ref.submit(spec);
  ASSERT_TRUE(want.ok) << want.error;

  SocketServer::Options opt;
  opt.socket_path = temp_dir("daemon.sock");
  opt.core.jobs = 1;
  SocketServer server(opt);
  std::thread accept_thread([&server] { server.run(); });

  Json req = Json::object();
  req.set("op", Json::str("submit"));
  req.set("job", spec.to_json());
  const std::string line = req.dump();

  constexpr std::size_t kClients = 3;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> ts;
    ts.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      ts.emplace_back([&opt, &line, &responses, i] {
        Client c(opt.socket_path);
        c.send_line(line);
        responses[i] = c.read_line();
      });
    }
    for (auto& t : ts) t.join();
  }
  for (const std::string& r : responses) {
    std::string err;
    const Json j = Json::parse(r, &err);
    ASSERT_TRUE(err.empty()) << err << " in " << r;
    ASSERT_NE(j.find("ok"), nullptr);
    EXPECT_TRUE(j.find("ok")->as_bool()) << r;
    ASSERT_NE(j.find("result"), nullptr);
    // The served result is the exact bytes the in-process run produced.
    EXPECT_EQ(j.find("result")->dump(), want.result);
  }

  // Protocol ops: ping, a batch submit (ordered responses), stats, then a
  // clean shutdown that unblocks the accept loop.
  {
    Client c(opt.socket_path);
    c.send_line(R"({"op":"ping"})");
    EXPECT_NE(c.read_line().find("\"op\":\"ping\""), std::string::npos);

    Json batch = Json::object();
    batch.set("op", Json::str("submit"));
    Json jobs = Json::array();
    jobs.push(small_cg().to_json());
    jobs.push(spec.to_json());
    batch.set("jobs", jobs);
    c.send_line(batch.dump());
    const std::string r0 = c.read_line();
    const std::string r1 = c.read_line();
    EXPECT_NE(r0.find("\"index\":0"), std::string::npos) << r0;
    EXPECT_NE(r1.find("\"index\":1"), std::string::npos) << r1;
    EXPECT_NE(r1.find(want.result), std::string::npos) << r1;

    c.send_line(R"({"op":"stats"})");
    EXPECT_NE(c.read_line().find("\"executed\":"), std::string::npos);

    c.send_line(R"({"op":"shutdown"})");
    EXPECT_NE(c.read_line().find("\"ok\":true"), std::string::npos);
  }
  accept_thread.join();
  EXPECT_EQ(server.core().counters().executed, 2u);  // is + cg, once each
}

TEST(ServeDaemon, MalformedRequestsGetErrorLines) {
  SocketServer::Options opt;
  opt.socket_path = temp_dir("daemon_err.sock");
  SocketServer server(opt);
  std::thread accept_thread([&server] { server.run(); });
  {
    Client c(opt.socket_path);
    c.send_line("this is not json");
    EXPECT_NE(c.read_line().find("\"ok\":false"), std::string::npos);
  }
  {
    Client c(opt.socket_path);
    c.send_line(R"({"op":"submit","job":{"workload":"bogus"}})");
    const std::string r = c.read_line();
    EXPECT_NE(r.find("\"ok\":false"), std::string::npos) << r;
    EXPECT_NE(r.find("bogus"), std::string::npos) << r;
    c.send_line(R"({"op":"submit","job":{"procz":1}})");
    EXPECT_NE(c.read_line().find("unknown job field"), std::string::npos);
  }
  server.shutdown();
  accept_thread.join();
  EXPECT_EQ(server.core().counters().executed, 0u);
}

// --------------------------------------------------------------- campaign

Campaign tiny_campaign() {
  std::string err;
  const Json manifest = Json::parse(
      R"({"name":"tiny",)"
      R"("base":{"machine":"ksr1","scale":64},)"
      R"("sweeps":[)"
      R"({"base":{"workload":"is","log2_keys":10,"log2_buckets":6},)"
      R"("axes":{"procs":[1,2]}},)"
      R"({"base":{"workload":"cg","n":120,"nnz_per_row":6,"iters":1},)"
      R"("axes":{"procs":[2]}})"
      R"(]})",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  Campaign c;
  EXPECT_TRUE(expand_manifest(manifest, &c, &err)) << err;
  return c;
}

TEST(ServeCampaign, ManifestExpandsInDeterministicOrder) {
  const Campaign c = tiny_campaign();
  ASSERT_EQ(c.jobs.size(), 3u);
  EXPECT_EQ(c.name, "tiny");
  EXPECT_EQ(c.jobs[0].workload, "is");
  EXPECT_EQ(c.jobs[0].procs, 1u);
  EXPECT_EQ(c.jobs[1].workload, "is");
  EXPECT_EQ(c.jobs[1].procs, 2u);
  EXPECT_EQ(c.jobs[2].workload, "cg");
  EXPECT_EQ(c.jobs[2].procs, 2u);
  // Every job inherits the manifest base.
  for (const JobSpec& j : c.jobs) EXPECT_EQ(j.scale, 64u);
}

TEST(ServeCampaign, ManifestSchemaViolationsAreRejected) {
  const char* bad[] = {
      R"({"sweeps":[{"axes":{"procs":[1]}}],"typo":1})",
      R"({"sweeps":[{"axes":{"procs":[]}}]})",
      R"({"sweeps":[{"axes":{"procz":[1]}}]})",
      R"({"sweeps":[]})",
      R"({"sweeps":[{"base":{"workload":"nope"}}]})",
      R"({"base":7,"sweeps":[{}]})",
  };
  for (const char* text : bad) {
    std::string err;
    const Json manifest = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << text;
    Campaign c;
    err.clear();
    EXPECT_FALSE(expand_manifest(manifest, &c, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(ServeCampaign, ResumesFromCacheWithByteIdenticalDatabase) {
  const Campaign campaign = tiny_campaign();
  ServeCore::Options opt;
  opt.store_dir = temp_dir("campaign_store");
  opt.jobs = 1;

  // "Kill halfway": seed the store with only the first two jobs done, the
  // way an interrupted campaign run leaves it.
  {
    ServeCore head(opt);
    ASSERT_TRUE(head.submit(campaign.jobs[0]).ok);
    ASSERT_TRUE(head.submit(campaign.jobs[1]).ok);
  }

  const std::string out1 = temp_dir("campaign_resumed");
  ServeCore resumed_core(opt);
  const CampaignOutcome resumed =
      run_campaign(campaign, resumed_core, out1);
  EXPECT_EQ(resumed.jobs, 3u);
  EXPECT_EQ(resumed.hits, 2u);       // the pre-killed prefix came from disk
  EXPECT_EQ(resumed.executed, 1u);   // only the tail simulated
  EXPECT_EQ(resumed.failures, 0u);

  // A second full pass is 100% hits and reproduces the database bytes.
  const std::string out2 = temp_dir("campaign_replayed");
  ServeCore replay_core(opt);
  const CampaignOutcome replayed =
      run_campaign(campaign, replay_core, out2);
  EXPECT_EQ(replayed.hits, 3u);
  EXPECT_EQ(replayed.hit_rate_pct(), 100u);

  const auto slurp = [](const std::string& p) {
    const std::vector<std::byte> b = ckpt::read_file(p);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  };
  EXPECT_EQ(slurp(out1 + ".jsonl"), slurp(out2 + ".jsonl"));
  EXPECT_EQ(slurp(out1 + ".csv"), slurp(out2 + ".csv"));
  EXPECT_FALSE(slurp(out1 + ".jsonl").empty());
}

}  // namespace
}  // namespace ksr::serve

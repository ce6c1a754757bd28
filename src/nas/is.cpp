#include "ksr/nas/is.hpp"

#include <algorithm>

#include "ksr/sim/rng.hpp"
#include "ksr/sync/barrier.hpp"
#include "ksr/sync/padded.hpp"

namespace ksr::nas {

std::vector<std::uint32_t> make_keys(const IsConfig& cfg) {
  const std::size_t n = 1ull << cfg.log2_keys;
  const std::uint32_t buckets = 1u << cfg.log2_buckets;
  sim::Rng rng(cfg.seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) {
    // NAS IS uses an average of four uniforms (roughly Gaussian-ish
    // concentration in the middle buckets); keep that shape.
    std::uint64_t acc = 0;
    for (int j = 0; j < 4; ++j) acc += rng.below(buckets);
    k = static_cast<std::uint32_t>(acc / 4);
  }
  return keys;
}

IsResult run_is(machine::Machine& m, const IsConfig& cfg) {
  const std::size_t n = 1ull << cfg.log2_keys;
  const std::size_t nbuckets = 1ull << cfg.log2_buckets;
  const unsigned nproc = m.nproc();
  const std::vector<std::uint32_t> host_keys = make_keys(cfg);

  // Per-processor replicated counts: one page-aligned chunk per processor
  // (replication is cheap in a 32 MB local cache — paper §3.3.2).
  const std::size_t chunk_ints =
      std::max<std::size_t>(nbuckets, mem::kPageBytes / sizeof(std::uint32_t));

  // Bucket -> keyden slot mapping. Identity by default: neighbouring
  // processors' portions share the sub-page at their boundary (the false
  // sharing the profiler must catch). With cfg.pad_buckets every portion
  // starts on a fresh sub-page, so no two portions share a coherence unit.
  constexpr std::size_t kIntsPerSubPage =
      mem::kSubPageBytes / sizeof(std::uint32_t);
  std::vector<std::size_t> slot(nbuckets);
  std::size_t keyden_ints = nbuckets;
  if (cfg.pad_buckets) {
    std::size_t next = 0;
    for (unsigned p = 0; p < nproc; ++p) {
      const std::size_t lo = nbuckets * p / nproc;
      const std::size_t hi = nbuckets * (p + 1) / nproc;
      for (std::size_t b = lo; b < hi; ++b) slot[b] = next + (b - lo);
      next += (hi - lo + kIntsPerSubPage - 1) / kIntsPerSubPage *
              kIntsPerSubPage;
    }
    keyden_ints = std::max<std::size_t>(next, 1);
  } else {
    for (std::size_t b = 0; b < nbuckets; ++b) slot[b] = b;
  }

  auto keys = m.alloc<std::uint32_t>("is.keys", n);
  auto rank = m.alloc<std::uint32_t>("is.rank", n);
  auto keyden = m.alloc<std::uint32_t>("is.keyden", keyden_ints);
  auto keyden_t = m.alloc<std::uint32_t>(
      "is.keyden_t", static_cast<std::size_t>(nproc) * chunk_ints,
      machine::Placement::blocked(chunk_ints * sizeof(std::uint32_t)));
  sync::Padded<std::uint32_t> tmp_sum(m, "is.tmp", nproc);
  auto barrier = sync::make_barrier(m, sync::BarrierKind::kSystem);

  IsResult out;
  double t_max = 0;
  double t_serial = 0;

  m.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t k_lo = n * me / nproc;
    const std::size_t k_hi = n * (me + 1) / nproc;
    const std::size_t b_lo = nbuckets * me / nproc;
    const std::size_t b_hi = nbuckets * (me + 1) / nproc;
    const std::size_t my_base = static_cast<std::size_t>(me) * chunk_ints;

    // ---- Warm-up (untimed): distribute keys (each processor writes its
    // chunk, establishing ownership) and zero the local counts.
    for (std::size_t i = k_lo; i < k_hi; ++i) {
      cpu.write(keys, i, host_keys[i]);
    }
    for (std::size_t b = 0; b < nbuckets; ++b) {
      cpu.write(keyden_t, my_base + b, 0);
    }
    for (std::size_t b = b_lo; b < b_hi; ++b) cpu.write(keyden, slot[b], 0);
    barrier->arrive(cpu);
    const double t0 = cpu.seconds();

    // ---- Phase 1: local bucket counts (no synchronization).
    for (std::size_t i = k_lo; i < k_hi; ++i) {
      const std::uint32_t k = cpu.read(keys, i);
      cpu.write(keyden_t, my_base + k, cpu.read(keyden_t, my_base + k) + 1);
      cpu.work(cfg.work_per_key);
    }
    barrier->arrive(cpu);

    // ---- Phase 2: accumulate my portion of the global counts from every
    // processor's local counts (all-to-all read traffic on the ring).
    if (cfg.use_prefetch) {
      // Software-pipelined prefetch of the remote count slices (staggered
      // start per cell so the ring sees spread, not bursts).
      const unsigned depth = m.config().prefetch_depth;
      unsigned issued = 0;
      for (unsigned off = 1; off < nproc; ++off) {
        const unsigned src = (me + off) % nproc;
        const mem::Sva a0 =
            keyden_t.addr(static_cast<std::size_t>(src) * chunk_ints + b_lo);
        const mem::Sva a1 =
            keyden_t.addr(static_cast<std::size_t>(src) * chunk_ints + b_hi);
        for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
          cpu.prefetch(a);
          if (++issued % depth == 0) cpu.work(190);
        }
      }
    }
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      std::uint32_t sum = 0;
      for (unsigned p = 0; p < nproc; ++p) {
        sum += cpu.read(keyden_t, static_cast<std::size_t>(p) * chunk_ints + b);
        cpu.work(2);
      }
      cpu.write(keyden, slot[b], sum);
    }
    barrier->arrive(cpu);

    // ---- Phase 3: partial prefix sums over my portion.
    std::uint32_t running = 0;
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      running += cpu.read(keyden, slot[b]);
      cpu.write(keyden, slot[b], running);
      cpu.work(2);
    }
    tmp_sum.write(cpu, me, running);
    barrier->arrive(cpu);

    // ---- Phase 4: SERIAL — cell 0 turns the per-processor maxima into
    // inclusive prefix sums. Time grows with P, and the operands live in
    // remote caches (they were just written by every processor).
    if (me == 0) {
      const double s0 = cpu.seconds();
      std::uint32_t acc = 0;
      for (unsigned p = 0; p < nproc; ++p) {
        acc += tmp_sum.read(cpu, p);
        tmp_sum.write(cpu, p, acc);
        cpu.work(2);
      }
      t_serial += cpu.seconds() - s0;
    }
    barrier->arrive(cpu);

    // ---- Phase 5: offset my portion by the previous processors' total.
    if (me > 0) {
      const std::uint32_t offset = tmp_sum.read(cpu, me - 1);
      for (std::size_t b = b_lo; b < b_hi; ++b) {
        cpu.write(keyden, slot[b], cpu.read(keyden, slot[b]) + offset);
        cpu.work(2);
      }
    }
    barrier->arrive(cpu);

    // ---- Phase 6: atomically snapshot keyden into my local copy and
    // decrement it by my counts — one sub-page locked at a time, so the
    // processors pipeline through the array (paper §3.3.2). Chunks are runs
    // of buckets whose slots are contiguous within one sub-page: with the
    // identity mapping that is exactly the fixed 32-bucket stride, and with
    // padding it additionally splits at (sub-page-aligned) portion starts.
    for (std::size_t b0 = 0; b0 < nbuckets;) {
      const std::size_t page = slot[b0] / kIntsPerSubPage;
      std::size_t b1 = b0 + 1;
      while (b1 < nbuckets && slot[b1] == slot[b1 - 1] + 1 &&
             slot[b1] / kIntsPerSubPage == page) {
        ++b1;
      }
      cpu.get_subpage(keyden.addr(slot[b0]));
      for (std::size_t b = b0; b < b1; ++b) {
        const std::uint32_t snapshot = cpu.read(keyden, slot[b]);
        const std::uint32_t mine = cpu.read(keyden_t, my_base + b);
        cpu.write(keyden, slot[b], snapshot - mine);
        cpu.write(keyden_t, my_base + b, snapshot);
        cpu.work(4);
      }
      cpu.release_subpage(keyden.addr(slot[b0]));
      b0 = b1;
    }
    barrier->arrive(cpu);

    // ---- Phase 7: rank my keys from my private snapshot.
    for (std::size_t i = k_lo; i < k_hi; ++i) {
      const std::uint32_t k = cpu.read(keys, i);
      const std::uint32_t pos = cpu.read(keyden_t, my_base + k);
      cpu.write(keyden_t, my_base + k, pos - 1);
      cpu.write(rank, i, pos - 1);
      cpu.work(cfg.work_per_key);
    }
    barrier->arrive(cpu);

    const double dt = cpu.seconds() - t0;
    if (dt > t_max) t_max = dt;
  });

  out.seconds = t_max;
  out.serial_phase_seconds = t_serial;

  // ---- Host-side validation: ranks are a permutation that sorts the keys.
  std::vector<std::uint32_t> by_rank(n, 0);
  std::vector<bool> used(n, false);
  bool ok = true;
  for (std::size_t i = 0; i < n && ok; ++i) {
    const std::uint32_t r = rank.value(i);
    if (r >= n || used[r]) {
      ok = false;
    } else {
      used[r] = true;
      by_rank[r] = keys.value(i);
    }
  }
  for (std::size_t i = 1; i < n && ok; ++i) {
    if (by_rank[i - 1] > by_rank[i]) ok = false;
  }
  out.ranks_valid = ok;
  return out;
}

IsSplit::IsSplit(machine::Machine& m, const IsConfig& cfg)
    : m_(m),
      cfg_(cfg),
      n_(1ull << cfg.log2_keys),
      nbuckets_(1ull << cfg.log2_buckets),
      chunk_ints_(std::max<std::size_t>(
          nbuckets_, mem::kPageBytes / sizeof(std::uint32_t))),
      host_keys_(make_keys(cfg)),
      slot_(nbuckets_) {
  // Identical allocation sequence to run_is (same names, sizes, placement,
  // order) so a checkpoint captured on one IsSplit machine restores onto
  // another: the heap prefix rule (docs/CHECKPOINT.md) requires the
  // restoring machine to have re-issued the donor's allocations.
  const unsigned nproc = m_.nproc();
  constexpr std::size_t kIntsPerSubPage =
      mem::kSubPageBytes / sizeof(std::uint32_t);
  std::size_t keyden_ints = nbuckets_;
  if (cfg_.pad_buckets) {
    std::size_t next = 0;
    for (unsigned p = 0; p < nproc; ++p) {
      const std::size_t lo = nbuckets_ * p / nproc;
      const std::size_t hi = nbuckets_ * (p + 1) / nproc;
      for (std::size_t b = lo; b < hi; ++b) slot_[b] = next + (b - lo);
      next += (hi - lo + kIntsPerSubPage - 1) / kIntsPerSubPage *
              kIntsPerSubPage;
    }
    keyden_ints = std::max<std::size_t>(next, 1);
  } else {
    for (std::size_t b = 0; b < nbuckets_; ++b) slot_[b] = b;
  }
  keys_ = m_.alloc<std::uint32_t>("is.keys", n_);
  rank_ = m_.alloc<std::uint32_t>("is.rank", n_);
  keyden_ = m_.alloc<std::uint32_t>("is.keyden", keyden_ints);
  keyden_t_ = m_.alloc<std::uint32_t>(
      "is.keyden_t", static_cast<std::size_t>(nproc) * chunk_ints_,
      machine::Placement::blocked(chunk_ints_ * sizeof(std::uint32_t)));
  tmp_sum_ = sync::Padded<std::uint32_t>(m_, "is.tmp", nproc);
  warm_barrier_ = sync::make_barrier(m_, sync::BarrierKind::kSystem);
}

void IsSplit::run_warmup() {
  const unsigned nproc = m_.nproc();
  m_.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t k_lo = n_ * me / nproc;
    const std::size_t k_hi = n_ * (me + 1) / nproc;
    const std::size_t b_lo = nbuckets_ * me / nproc;
    const std::size_t b_hi = nbuckets_ * (me + 1) / nproc;
    const std::size_t my_base = static_cast<std::size_t>(me) * chunk_ints_;
    for (std::size_t i = k_lo; i < k_hi; ++i) {
      cpu.write(keys_, i, host_keys_[i]);
    }
    for (std::size_t b = 0; b < nbuckets_; ++b) {
      cpu.write(keyden_t_, my_base + b, 0);
    }
    for (std::size_t b = b_lo; b < b_hi; ++b) cpu.write(keyden_, slot_[b], 0);
    warm_barrier_->arrive(cpu);
  });
}

IsResult IsSplit::run_ranked() {
  const unsigned nproc = m_.nproc();
  // Fresh barrier for the ranking run, allocated after the checkpoint
  // boundary: the cold flow allocates it after run_warmup(), the fork flow
  // after restore(), so both see the same heap layout and both start the
  // phases with pristine barrier state.
  auto barrier = sync::make_barrier(m_, sync::BarrierKind::kSystem);

  IsResult out;
  double t_max = 0;
  double t_serial = 0;

  m_.run([&](machine::Cpu& cpu) {
    const unsigned me = cpu.id();
    const std::size_t k_lo = n_ * me / nproc;
    const std::size_t k_hi = n_ * (me + 1) / nproc;
    const std::size_t b_lo = nbuckets_ * me / nproc;
    const std::size_t b_hi = nbuckets_ * (me + 1) / nproc;
    const std::size_t my_base = static_cast<std::size_t>(me) * chunk_ints_;
    constexpr std::size_t kIntsPerSubPage =
        mem::kSubPageBytes / sizeof(std::uint32_t);
    const double t0 = cpu.seconds();

    // The seven ranking phases, byte-for-byte the run_is schedule (see
    // run_is for the phase commentary).
    for (std::size_t i = k_lo; i < k_hi; ++i) {
      const std::uint32_t k = cpu.read(keys_, i);
      cpu.write(keyden_t_, my_base + k,
                cpu.read(keyden_t_, my_base + k) + 1);
      cpu.work(cfg_.work_per_key);
    }
    barrier->arrive(cpu);

    if (cfg_.use_prefetch) {
      const unsigned depth = m_.config().prefetch_depth;
      unsigned issued = 0;
      for (unsigned off = 1; off < nproc; ++off) {
        const unsigned src = (me + off) % nproc;
        const mem::Sva a0 =
            keyden_t_.addr(static_cast<std::size_t>(src) * chunk_ints_ + b_lo);
        const mem::Sva a1 =
            keyden_t_.addr(static_cast<std::size_t>(src) * chunk_ints_ + b_hi);
        for (mem::Sva a = a0; a < a1; a += mem::kSubPageBytes) {
          cpu.prefetch(a);
          if (++issued % depth == 0) cpu.work(190);
        }
      }
    }
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      std::uint32_t sum = 0;
      for (unsigned p = 0; p < nproc; ++p) {
        sum +=
            cpu.read(keyden_t_, static_cast<std::size_t>(p) * chunk_ints_ + b);
        cpu.work(2);
      }
      cpu.write(keyden_, slot_[b], sum);
    }
    barrier->arrive(cpu);

    std::uint32_t running = 0;
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      running += cpu.read(keyden_, slot_[b]);
      cpu.write(keyden_, slot_[b], running);
      cpu.work(2);
    }
    tmp_sum_.write(cpu, me, running);
    barrier->arrive(cpu);

    if (me == 0) {
      const double s0 = cpu.seconds();
      std::uint32_t acc = 0;
      for (unsigned p = 0; p < nproc; ++p) {
        acc += tmp_sum_.read(cpu, p);
        tmp_sum_.write(cpu, p, acc);
        cpu.work(2);
      }
      t_serial += cpu.seconds() - s0;
    }
    barrier->arrive(cpu);

    if (me > 0) {
      const std::uint32_t offset = tmp_sum_.read(cpu, me - 1);
      for (std::size_t b = b_lo; b < b_hi; ++b) {
        cpu.write(keyden_, slot_[b], cpu.read(keyden_, slot_[b]) + offset);
        cpu.work(2);
      }
    }
    barrier->arrive(cpu);

    for (std::size_t b0 = 0; b0 < nbuckets_;) {
      const std::size_t page = slot_[b0] / kIntsPerSubPage;
      std::size_t b1 = b0 + 1;
      while (b1 < nbuckets_ && slot_[b1] == slot_[b1 - 1] + 1 &&
             slot_[b1] / kIntsPerSubPage == page) {
        ++b1;
      }
      cpu.get_subpage(keyden_.addr(slot_[b0]));
      for (std::size_t b = b0; b < b1; ++b) {
        const std::uint32_t snapshot = cpu.read(keyden_, slot_[b]);
        const std::uint32_t mine = cpu.read(keyden_t_, my_base + b);
        cpu.write(keyden_, slot_[b], snapshot - mine);
        cpu.write(keyden_t_, my_base + b, snapshot);
        cpu.work(4);
      }
      cpu.release_subpage(keyden_.addr(slot_[b0]));
      b0 = b1;
    }
    barrier->arrive(cpu);

    for (std::size_t i = k_lo; i < k_hi; ++i) {
      const std::uint32_t k = cpu.read(keys_, i);
      const std::uint32_t pos = cpu.read(keyden_t_, my_base + k);
      cpu.write(keyden_t_, my_base + k, pos - 1);
      cpu.write(rank_, i, pos - 1);
      cpu.work(cfg_.work_per_key);
    }
    barrier->arrive(cpu);

    const double dt = cpu.seconds() - t0;
    if (dt > t_max) t_max = dt;
  });

  out.seconds = t_max;
  out.serial_phase_seconds = t_serial;

  std::vector<std::uint32_t> by_rank(n_, 0);
  std::vector<bool> used(n_, false);
  bool ok = true;
  for (std::size_t i = 0; i < n_ && ok; ++i) {
    const std::uint32_t r = rank_.value(i);
    if (r >= n_ || used[r]) {
      ok = false;
    } else {
      used[r] = true;
      by_rank[r] = keys_.value(i);
    }
  }
  for (std::size_t i = 1; i < n_ && ok; ++i) {
    if (by_rank[i - 1] > by_rank[i]) ok = false;
  }
  out.ranks_valid = ok;
  return out;
}

IsResult run_is_split(machine::Machine& m, const IsConfig& cfg,
                      const std::string& restore_from,
                      const std::string& checkpoint_at) {
  IsSplit split(m, cfg);
  if (!restore_from.empty()) {
    m.restore_from(restore_from);
  } else {
    split.run_warmup();
    if (!checkpoint_at.empty()) m.checkpoint_to(checkpoint_at);
  }
  return split.run_ranked();
}

}  // namespace ksr::nas

#include "ksr/sim/engine.hpp"

#include <cstdlib>

#include "ksr/sim/rng.hpp"
#include <limits>
#include <stdexcept>
#include <string>

namespace ksr::sim {

Engine::~Engine() = default;

std::uint32_t Engine::claim_slot(InlineFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = pool_used_++;
    if (slot % kPoolChunk == 0) {
      pool_.push_back(std::make_unique<InlineFn[]>(kPoolChunk));
    }
  }
  pool_slot(slot) = std::move(fn);
  return slot;
}

Engine::Event Engine::make_event(Time t, std::uint32_t what) {
  if (t < now_) {
    throw std::logic_error("Engine: scheduling into the past");
  }
  // Schedule fuzzing: a nonzero seed replaces the insertion sequence with a
  // seeded bijective hash of it, permuting same-time tie order while the
  // injectivity of mix64 keeps (t, seq) a strict total order.
  const std::uint64_t c = seq_++;
  return Event{t, fuzz_seed_ == 0 ? c : mix64(fuzz_seed_ + c), what};
}

void Engine::at(Time t, InlineFn fn) {
  Event ev = make_event(t, 0);
  ev.what = claim_slot(std::move(fn));
  events_.push(ev);
}

void Engine::observe_at(Time t, InlineFn fn) {
  if (t < now_) {
    throw std::logic_error("Engine::observe_at: scheduling into the past");
  }
  // Observers share the callback slab and the seq counter with the main
  // lane; sharing seq_ keeps the code simple and cannot reorder main-lane
  // events (their relative seq order is unchanged) nor touch
  // events_dispatched().
  observers_.push(Event{t, seq_++, claim_slot(std::move(fn))});
}

void Engine::drain_observers(Time horizon) {
  while (!observers_.empty() && observers_.top().t <= horizon) {
    const Event oe = observers_.pop_top();
    if (oe.t > now_) now_ = oe.t;
    InlineFn& fn = pool_slot(oe.what);
    fn();
    fn.reset();
    free_slots_.push_back(oe.what);
  }
}

FiberId Engine::spawn(std::function<void()> body, Time start, std::size_t stack_bytes) {
  auto fiber = std::make_unique<Fiber>();
  fiber->body = std::move(body);
  fiber->stack_bytes = stack_bytes;
  fiber->stack = std::make_unique<std::byte[]>(stack_bytes);
  fiber->engine = this;
  fiber->id = static_cast<FiberId>(fibers_.size());
  const FiberId id = fiber->id;
  fibers_.push_back(std::move(fiber));
  ++live_fibers_;
  events_.push(make_event(start, kResume | id));
  return id;
}

#if KSR_HAVE_FAST_FIBERS

void Engine::fiber_main(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  try {
    f->body();
  } catch (...) {
    if (!f->engine->pending_exception_) {
      f->engine->pending_exception_ = std::current_exception();
    }
  }
  f->done = true;
  // One-way switch back to the scheduler; this context is never resumed.
  void* dead = nullptr;
  ksr_ctx_swap(&dead, f->engine->sched_sp_);
  std::abort();  // unreachable
}

void Engine::switch_context(Fiber* from, Fiber* to) {
  if (to != nullptr && !to->started) {
    // Stagger the stack tops by a multiple of 64 bytes within one page: the
    // stacks are page-aligned allocations, so unstaggered, every parked
    // fiber's hot frames would compete for the same L1 cache sets.
    const std::size_t color = (to->id * 17u % 64u) * 64u;
    to->sp = detail::make_fiber_context(to->stack.get(),
                                        to->stack_bytes - color,
                                        &Engine::fiber_main, to);
    to->started = true;
  }
  ksr_ctx_swap(from != nullptr ? &from->sp : &sched_sp_,
               to != nullptr ? to->sp : sched_sp_);
}

#else  // ucontext fallback

void Engine::trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* f = reinterpret_cast<Fiber*>(bits);  // NOLINT: makecontext ABI
  try {
    f->body();
  } catch (...) {
    if (!f->engine->pending_exception_) {
      f->engine->pending_exception_ = std::current_exception();
    }
  }
  f->done = true;
  // Returning transfers control to uc_link (the scheduler context).
}

void Engine::switch_context(Fiber* from, Fiber* to) {
  if (to != nullptr && !to->started) {
    getcontext(&to->ctx);
    to->ctx.uc_stack.ss_sp = to->stack.get();
    to->ctx.uc_stack.ss_size = to->stack_bytes;
    to->ctx.uc_link = &sched_ctx_;
    const auto bits = reinterpret_cast<std::uintptr_t>(to);  // NOLINT
    makecontext(&to->ctx, reinterpret_cast<void (*)()>(&Engine::trampoline),
                2, static_cast<unsigned>(bits >> 32),
                static_cast<unsigned>(bits & 0xffffffffu));
    to->started = true;
  }
  swapcontext(from != nullptr ? &from->ctx : &sched_ctx_,
              to != nullptr ? &to->ctx : &sched_ctx_);
}

#endif  // KSR_HAVE_FAST_FIBERS

void Engine::resume(Fiber& f) {
  if (f.done) return;
  current_ = &f;
  switch_context(nullptr, &f);
  // The fiber that switched back is `f` or one it (transitively) handed off
  // to; release its stack eagerly if its body has returned.
  Fiber* back = current_;
  current_ = nullptr;
  if (back->done) {
    back->stack.reset();  // the Fiber record remains
    --live_fibers_;
  }
}

void Engine::park() {
  Fiber* self = current_;
  Fiber* next = nullptr;  // nullptr: back to the scheduler loop
  // Dispatch the earliest event here when the scheduler loop would dispatch
  // it next anyway and it only resumes a fiber.
  while (!events_.empty()) {
    const Event ev = events_.top();
    if ((ev.what & kResume) == 0 || !dispatchable(ev.t)) break;
    events_.pop_top();
    now_ = ev.t;
    ++dispatched_;
    Fiber* f = fibers_[ev.what & ~kResume].get();
    if (f == self) return;
    if (!f->done) {
      next = f;
      current_ = f;
      break;
    }
    // A stale resume of a finished fiber is a no-op, as in resume().
  }
  switch_context(self, next);
}

void Engine::wait_until(Time t) {
  if (!in_fiber()) throw std::logic_error("wait_until outside fiber");
  const Event own = make_event(t < now_ ? now_ : t, kResume | current_->id);
  // When its own resume would be dispatched next, the fiber just continues:
  // no queue round trip and no switch.
  if (dispatchable(own.t) &&
      (events_.empty() || EventEarlier{}(own, events_.top()))) {
    now_ = own.t;
    ++dispatched_;
    return;
  }
  events_.push(own);
  park();
}

void Engine::block() {
  if (!in_fiber()) throw std::logic_error("block outside fiber");
  park();
}

void Engine::wake(FiberId id, Time t) {
  if (fibers_.at(id)->done) {
    throw std::logic_error("Engine::wake: fiber " + std::to_string(id) +
                           " has already finished");
  }
  events_.push(make_event(t, kResume | id));
}

void Engine::run() {
  run_until(std::numeric_limits<Time>::max());
  finish_run();
}

void Engine::run_until(Time horizon) {
  horizon_ = horizon;
  while (!events_.empty() && events_.top().t < horizon) {
    const Event ev = events_.pop_top();
    // Observers due at or before this event run first (the sample "at t"
    // sees the world before the event at t mutates it).
    drain_observers(ev.t);
    now_ = ev.t;
    ++dispatched_;
    if (ev.what & kResume) {
      resume(*fibers_[ev.what & ~kResume]);
    } else {
      // Invoke in place: chunk addresses are stable, and the slot is
      // recycled only after the call, so the callback may freely schedule
      // new events.
      InlineFn& fn = pool_slot(ev.what);
      fn();
      fn.reset();
      free_slots_.push_back(ev.what);
    }
    if (pending_exception_) {
      auto ex = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(ex);
    }
  }
}

void Engine::finish_run() {
  // Drop (without running) observers scheduled past the last main event:
  // simulated time never reaches them. Their slots are recycled so a later
  // run() on the same engine starts clean.
  while (!observers_.empty()) {
    const Event oe = observers_.pop_top();
    pool_slot(oe.what).reset();
    free_slots_.push_back(oe.what);
  }
  if (live_fibers_ != 0) {
    throw std::runtime_error(
        "Engine::run: simulated deadlock — event queue drained with " +
        std::to_string(live_fibers_) + " fiber(s) still blocked");
  }
}

}  // namespace ksr::sim

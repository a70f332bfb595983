#include "pgas/thread_backend.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "base/error.hpp"
#include "base/log.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace scioto::pgas {

namespace {
thread_local Rank t_my_rank = kNoRank;

// Active backend for the log-context provider (one ThreadBackend runs at a
// time; nested runs are not supported anyway).
std::atomic<ThreadBackend*> g_active_backend{nullptr};

bool threads_log_context(int& rank, long long& time_ns) {
  ThreadBackend* b = g_active_backend.load(std::memory_order_acquire);
  if (b == nullptr || t_my_rank == kNoRank) {
    return false;
  }
  rank = t_my_rank;
  time_ns = b->now();
  return true;
}

}  // namespace

ThreadBackend::ThreadBackend(int nranks) : nranks_(nranks) {
  SCIOTO_REQUIRE(nranks >= 1, "nranks must be >= 1, got " << nranks);
  log_register_context(&threads_log_context);
  start_ = std::chrono::steady_clock::now();
  events_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    events_.push_back(std::make_unique<EventCount>());
  }
}

void ThreadBackend::run(const std::function<void(Rank)>& body) {
  g_active_backend.store(this, std::memory_order_release);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  std::mutex err_mutex;
  std::exception_ptr first_error;

  for (Rank r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      t_my_rank = r;
      try {
        body(r);
      } catch (...) {
        std::lock_guard<std::mutex> g(err_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      t_my_rank = kNoRank;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  g_active_backend.store(nullptr, std::memory_order_release);
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

Rank ThreadBackend::me() const {
  SCIOTO_CHECK_MSG(t_my_rank != kNoRank,
                   "backend call from outside a rank thread");
  return t_my_rank;
}

TimeNs ThreadBackend::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

int ThreadBackend::lockset_create(int n) {
  std::lock_guard<std::mutex> g(locks_growth_mutex_);
  int base = static_cast<int>(locks_.size());
  for (int i = 0; i < n; ++i) {
    locks_.emplace_back();
  }
  return base;
}

void ThreadBackend::lock(int base, int idx, Rank) {
  locks_[static_cast<std::size_t>(base + idx)].lock();
  // Injected lock-holder stall: hold the mutex for the stall duration so
  // competitors really queue behind the hang, as they would under sim.
  if (fault::active()) {
    TimeNs stall = fault::stall_time(me());
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
    }
  }
}

bool ThreadBackend::trylock(int base, int idx, Rank) {
  return locks_[static_cast<std::size_t>(base + idx)].try_lock();
}

void ThreadBackend::unlock(int base, int idx, Rank) {
  locks_[static_cast<std::size_t>(base + idx)].unlock();
}

void ThreadBackend::critical(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> g(critical_mutex_);
  fn();
}

void ThreadBackend::idle_wait() {
  EventCount& ev = *events_[static_cast<std::size_t>(me())];
  std::unique_lock<std::mutex> g(ev.m);
  // Bounded wait keeps a missed notify from hanging a test forever; the
  // caller loops on its own condition anyway.
  ev.cv.wait_for(g, std::chrono::milliseconds(1),
                 [&] { return ev.pending; });
  ev.pending = false;
}

void ThreadBackend::notify(Rank r) {
  EventCount& ev = *events_[static_cast<std::size_t>(r)];
  {
    std::lock_guard<std::mutex> g(ev.m);
    ev.pending = true;
  }
  ev.cv.notify_one();
}

TimeNs ThreadBackend::msg_send_time(Rank, std::size_t) { return 0; }

void ThreadBackend::barrier() {
  obs::emit(t_my_rank, trace::Ev::Barrier);
  std::unique_lock<std::mutex> g(barrier_mutex_);
  std::uint64_t gen = barrier_generation_;
  if (++barrier_arrived_ == nranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(g, [&] { return barrier_generation_ != gen; });
}

}  // namespace scioto::pgas

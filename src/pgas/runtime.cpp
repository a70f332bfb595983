#include "pgas/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/log.hpp"
#include "control/control.hpp"
#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "pgas/sim_backend.hpp"
#include "pgas/thread_backend.hpp"
#include "trace/export.hpp"
#include "trace/lineage.hpp"
#include "trace/trace.hpp"

namespace scioto::pgas {

Runtime::Runtime(Backend& backend, std::uint64_t seed,
                 sim::MachineModel machine)
    : backend_(backend), seed_(seed), machine_(std::move(machine)) {
  segments_.resize(kMaxSegments);
  coll_space_ = std::make_unique<std::byte[]>(
      static_cast<std::size_t>(backend_.nranks()) * kCollSlotBytes);
  inboxes_.reserve(static_cast<std::size_t>(backend_.nranks()));
  for (int i = 0; i < backend_.nranks(); ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

// ---- Segments ----

SegId Runtime::seg_alloc(std::size_t bytes_per_rank) {
  barrier();
  if (me() == 0) {
    int id = nsegments_.load(std::memory_order_relaxed);
    SCIOTO_REQUIRE(static_cast<std::size_t>(id) < kMaxSegments,
                   "segment table exhausted");
    Segment& s = segments_[static_cast<std::size_t>(id)];
    s.per_rank = bytes_per_rank;
    s.stride = align_up(std::max<std::size_t>(bytes_per_rank, 1), 64);
    const std::size_t bytes = s.stride * static_cast<std::size_t>(nprocs());
    s.mem.reset(static_cast<std::byte*>(::operator new[](bytes, kSegAlign)));
    std::memset(s.mem.get(), 0, bytes);
    s.live = true;
    nsegments_.store(id + 1, std::memory_order_release);
  }
  barrier();
  return nsegments_.load(std::memory_order_acquire) - 1;
}

void Runtime::seg_free(SegId id) {
  barrier();
  if (me() == 0) {
    Segment& s = segments_[static_cast<std::size_t>(id)];
    SCIOTO_REQUIRE(s.live, "seg_free of non-live segment " << id);
    s.mem.reset();
    s.live = false;
  }
  barrier();
}

std::byte* Runtime::seg_ptr(SegId id, Rank r) {
  Segment& s = segments_[static_cast<std::size_t>(id)];
  SCIOTO_CHECK_MSG(s.live, "access to freed segment " << id);
  return s.mem.get() + static_cast<std::size_t>(r) * s.stride;
}

std::size_t Runtime::seg_bytes(SegId id) const {
  return segments_[static_cast<std::size_t>(id)].per_rank;
}

// ---- One-sided data movement ----

void Runtime::get(SegId id, Rank target, std::size_t offset, void* dst,
                  std::size_t n) {
  SCIOTO_CHECK(offset + n <= seg_bytes(id));
  if (target != me()) {
    backend_.rma_charge(target, n);
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasGet, target, 0, n);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGets, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGetBytes, n);
  }
  std::memcpy(dst, seg_ptr(id, target) + offset, n);
}

void Runtime::put(SegId id, Rank target, std::size_t offset, const void* src,
                  std::size_t n) {
  SCIOTO_CHECK(offset + n <= seg_bytes(id));
  if (target != me()) {
    backend_.rma_charge(target, n);
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasPut, target, 0, n);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPuts, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPutBytes, n);
  }
  std::memcpy(seg_ptr(id, target) + offset, src, n);
}

void Runtime::get_strided(SegId id, Rank target, std::size_t offset,
                          std::size_t src_stride, std::size_t nrows,
                          std::size_t row_bytes, void* dst,
                          std::size_t dst_stride) {
  SCIOTO_REQUIRE(dst_stride >= row_bytes && src_stride >= row_bytes,
                 "strided get: strides must cover the row");
  if (nrows == 0) return;
  SCIOTO_CHECK(offset + (nrows - 1) * src_stride + row_bytes <=
               seg_bytes(id));
  rma_charge_span(target, nrows * row_bytes);
  if (target != me()) {
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasGet, target, 0,
                       nrows * row_bytes);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGets, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGetBytes, nrows * row_bytes);
  }
  const std::byte* base = seg_ptr(id, target) + offset;
  auto* out = static_cast<std::byte*>(dst);
  for (std::size_t r = 0; r < nrows; ++r) {
    std::memcpy(out + r * dst_stride, base + r * src_stride, row_bytes);
  }
}

void Runtime::put_strided(SegId id, Rank target, std::size_t offset,
                          std::size_t dst_stride, std::size_t nrows,
                          std::size_t row_bytes, const void* src,
                          std::size_t src_stride) {
  SCIOTO_REQUIRE(dst_stride >= row_bytes && src_stride >= row_bytes,
                 "strided put: strides must cover the row");
  if (nrows == 0) return;
  SCIOTO_CHECK(offset + (nrows - 1) * dst_stride + row_bytes <=
               seg_bytes(id));
  rma_charge_span(target, nrows * row_bytes);
  if (target != me()) {
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasPut, target, 0,
                       nrows * row_bytes);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPuts, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPutBytes, nrows * row_bytes);
  }
  std::byte* base = seg_ptr(id, target) + offset;
  const auto* in = static_cast<const std::byte*>(src);
  for (std::size_t r = 0; r < nrows; ++r) {
    std::memcpy(base + r * dst_stride, in + r * src_stride, row_bytes);
  }
}

namespace {

/// Shared fault-consultation wrapper for the *_checked ops: charges wire
/// time (also for drops -- the packet left the NIC either way), applies the
/// memcpy via `apply` unless dropped, twice on Dup.
template <class Apply>
OpStatus checked_one_sided(Backend& backend, fault::OpKind op, Rank me,
                           Rank target, std::size_t n, Apply&& apply) {
  if (target == me) {
    apply();
    return OpStatus::Ok;
  }
  fault::OpFate f = fault::one_sided_fate(op, me, target);
  if (f.fate == fault::Fate::Delay && f.delay > 0) {
    backend.charge(f.delay);
  }
  backend.rma_charge(target, n);
  if (f.fate == fault::Fate::Fail) {
    return OpStatus::Dropped;
  }
  apply();
  if (f.fate == fault::Fate::Dup) {
    backend.rma_charge(target, n);
    apply();
  }
  // Liveness through the detector's membership view: with the detector
  // armed, a dead target reads Ok until some prober confirms the death --
  // no survivor is omniscient. Disarmed, this falls back to the oracle.
  return detect::alive(target) ? OpStatus::Ok : OpStatus::TargetDead;
}

}  // namespace

OpStatus Runtime::get_checked(SegId id, Rank target, std::size_t offset,
                              void* dst, std::size_t n) {
  SCIOTO_CHECK(offset + n <= seg_bytes(id));
  OpStatus st = checked_one_sided(
      backend_, fault::OpKind::Get, me(), target, n,
      [&] { std::memcpy(dst, seg_ptr(id, target) + offset, n); });
  if (target != me() && st != OpStatus::Dropped) {
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasGet, target, 0, n);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGets, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGetBytes, n);
  }
  return st;
}

OpStatus Runtime::put_checked(SegId id, Rank target, std::size_t offset,
                              const void* src, std::size_t n) {
  SCIOTO_CHECK(offset + n <= seg_bytes(id));
  OpStatus st = checked_one_sided(
      backend_, fault::OpKind::Put, me(), target, n,
      [&] { std::memcpy(seg_ptr(id, target) + offset, src, n); });
  if (target != me() && st != OpStatus::Dropped) {
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasPut, target, 0, n);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPuts, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPutBytes, n);
  }
  return st;
}

OpStatus Runtime::get_with_retry(SegId id, Rank target, std::size_t offset,
                                 void* dst, std::size_t n, int* attempts) {
  fault::RetryPolicy p = fault::policy();
  OpStatus st = OpStatus::Dropped;
  int a = 0;
  for (; a < p.max_attempts; ++a) {
    if (a > 0) {
      charge(fault::backoff(me(), a - 1));
      relax();
    }
    st = get_checked(id, target, offset, dst, n);
    if (st != OpStatus::Dropped) break;
  }
  if (a > 0) {
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::OpRetries,
                      std::min(a, p.max_attempts - 1));
  }
  if (attempts != nullptr) {
    *attempts = std::min(a + 1, p.max_attempts);
  }
  return st;
}

OpStatus Runtime::put_with_retry(SegId id, Rank target, std::size_t offset,
                                 const void* src, std::size_t n,
                                 int* attempts) {
  fault::RetryPolicy p = fault::policy();
  OpStatus st = OpStatus::Dropped;
  int a = 0;
  for (; a < p.max_attempts; ++a) {
    if (a > 0) {
      charge(fault::backoff(me(), a - 1));
      relax();
    }
    st = put_checked(id, target, offset, src, n);
    if (st != OpStatus::Dropped) break;
  }
  if (a > 0) {
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::OpRetries,
                      std::min(a, p.max_attempts - 1));
  }
  if (attempts != nullptr) {
    *attempts = std::min(a + 1, p.max_attempts);
  }
  return st;
}

OpStatus Runtime::probe_pair_checked(SegId id, Rank target,
                                     std::size_t offset, std::uint64_t* w0,
                                     std::uint64_t* w1) {
  SCIOTO_CHECK(offset % alignof(std::uint64_t) == 0);
  SCIOTO_CHECK(offset + 2 * sizeof(std::uint64_t) <= seg_bytes(id));
  auto* p = reinterpret_cast<std::uint64_t*>(seg_ptr(id, target) + offset);
  OpStatus st = checked_one_sided(
      backend_, fault::OpKind::Get, me(), target, 2 * sizeof(std::uint64_t),
      [&] {
        *w0 = std::atomic_ref<std::uint64_t>(p[0]).load(
            std::memory_order_acquire);
        *w1 = std::atomic_ref<std::uint64_t>(p[1]).load(
            std::memory_order_acquire);
      });
  if (target != me() && st != OpStatus::Dropped) {
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasGet, target, 0,
                       2 * sizeof(std::uint64_t));
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGets, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGetBytes,
                      2 * sizeof(std::uint64_t));
  }
  return st;
}

OpStatus Runtime::get_u64_with_retry(SegId id, Rank target,
                                     std::size_t offset, std::uint64_t* out,
                                     int* attempts) {
  SCIOTO_CHECK(offset % alignof(std::uint64_t) == 0);
  SCIOTO_CHECK(offset + sizeof(std::uint64_t) <= seg_bytes(id));
  auto* p = reinterpret_cast<std::uint64_t*>(seg_ptr(id, target) + offset);
  fault::RetryPolicy pol = fault::policy();
  OpStatus st = OpStatus::Dropped;
  int a = 0;
  for (; a < pol.max_attempts; ++a) {
    if (a > 0) {
      charge(fault::backoff(me(), a - 1));
      relax();
    }
    st = checked_one_sided(backend_, fault::OpKind::Get, me(), target,
                           sizeof(std::uint64_t), [&] {
                             *out = std::atomic_ref<std::uint64_t>(*p).load(
                                 std::memory_order_acquire);
                           });
    if (st != OpStatus::Dropped) {
      if (target != me()) {
        SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasGet, target, 0,
                           sizeof(std::uint64_t));
        SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGets, 1);
        SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasGetBytes,
                          sizeof(std::uint64_t));
      }
      break;
    }
  }
  if (a > 0) {
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::OpRetries,
                      std::min(a, pol.max_attempts - 1));
  }
  if (attempts != nullptr) {
    *attempts = std::min(a + 1, pol.max_attempts);
  }
  return st;
}

OpStatus Runtime::put_word_reliable(SegId id, Rank target, std::size_t offset,
                                    std::uint64_t value, std::size_t width,
                                    int* attempts) {
  SCIOTO_REQUIRE(width == 4 || width == 8,
                 "put_word_reliable: width " << width << " unsupported");
  SCIOTO_CHECK(offset % width == 0);
  SCIOTO_CHECK(offset + width <= seg_bytes(id));
  int retries = 0;
  if (fault::active()) {
    for (;;) {
      fault::OpFate f =
          fault::one_sided_fate(fault::OpKind::Token, me(), target);
      if (f.fate == fault::Fate::Fail) {
        // A silently lost control word stalls its protocol forever, so
        // delivery retries past the drop budget (finite by plan).
        charge(fault::backoff(me(), retries++));
        relax();
        continue;
      }
      if (f.fate == fault::Fate::Delay && f.delay > 0) {
        charge(f.delay);
      }
      break;
    }
  }
  backend_.rma_charge_oneway(target, width);
  if (retries > 0) {
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::OpRetries, retries);
  }
  if (target != me()) {
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPuts, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPutBytes, width);
  }
  std::byte* p = seg_ptr(id, target) + offset;
  if (width == 8) {
    std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(p))
        .store(value, std::memory_order_release);
  } else {
    std::atomic_ref<std::uint32_t>(*reinterpret_cast<std::uint32_t*>(p))
        .store(static_cast<std::uint32_t>(value), std::memory_order_release);
  }
  if (attempts != nullptr) {
    *attempts = retries;
  }
  return detect::alive(target) ? OpStatus::Ok : OpStatus::TargetDead;
}

void Runtime::acc(SegId id, Rank target, std::size_t offset,
                  const double* src, std::size_t n, double alpha) {
  SCIOTO_CHECK(offset + n * sizeof(double) <= seg_bytes(id));
  if (target != me()) {
    backend_.rma_charge(target, n * sizeof(double));
    SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasAcc, target, 0,
                       n * sizeof(double));
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasAccs, 1);
    SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasPutBytes, n * sizeof(double));
  } else {
    // Local accumulate still pays a memory-system cost under sim.
    backend_.charge(static_cast<TimeNs>(n / 4) + 100);
  }
  double* dst = reinterpret_cast<double*>(seg_ptr(id, target) + offset);
  backend_.critical([&] {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] += alpha * src[i];
    }
  });
}

std::int64_t Runtime::fetch_add(SegId id, Rank target, std::size_t offset,
                                std::int64_t delta) {
  SCIOTO_CHECK(offset % alignof(std::int64_t) == 0);
  SCIOTO_CHECK(offset + sizeof(std::int64_t) <= seg_bytes(id));
  backend_.rmw_charge(target);
  SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasRmw, target, 0, 0);
  SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasRmws, 1);
  auto* p = reinterpret_cast<std::int64_t*>(seg_ptr(id, target) + offset);
  return std::atomic_ref<std::int64_t>(*p).fetch_add(delta);
}

std::int64_t Runtime::swap(SegId id, Rank target, std::size_t offset,
                           std::int64_t value) {
  SCIOTO_CHECK(offset % alignof(std::int64_t) == 0);
  SCIOTO_CHECK(offset + sizeof(std::int64_t) <= seg_bytes(id));
  backend_.rmw_charge(target);
  SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasRmw, target, 0, 0);
  SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasRmws, 1);
  auto* p = reinterpret_cast<std::int64_t*>(seg_ptr(id, target) + offset);
  return std::atomic_ref<std::int64_t>(*p).exchange(value);
}

std::int64_t Runtime::compare_swap(SegId id, Rank target, std::size_t offset,
                                   std::int64_t expected,
                                   std::int64_t desired) {
  SCIOTO_CHECK(offset % alignof(std::int64_t) == 0);
  SCIOTO_CHECK(offset + sizeof(std::int64_t) <= seg_bytes(id));
  backend_.rmw_charge(target);
  SCIOTO_TRACE_EVENT(me(), trace::Ev::PgasRmw, target, 0, 0);
  SCIOTO_METRIC_CTR(me(), metrics::Ctr::PgasRmws, 1);
  auto* p = reinterpret_cast<std::int64_t*>(seg_ptr(id, target) + offset);
  std::atomic_ref<std::int64_t>(*p).compare_exchange_strong(expected, desired);
  return expected;  // compare_exchange_strong wrote the observed value here
}

void Runtime::atomic_publish_charge() {
  // One store + fence + validating load on the owner's own control block:
  // charged like a local queue get (the cheapest Table-1 op), because no
  // lock service slot and no network round trip are involved.
  backend_.charge(machine().local_get);
}

void Runtime::fence(Rank target) {
  // Within one address space puts complete immediately; the fence costs a
  // round trip (flush + ack) under the model and a memory fence for real.
  backend_.rma_charge(target, 0);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

// ---- Remote mutexes ----

LockSet Runtime::lockset_create() {
  barrier();
  int base = -1;
  if (me() == 0) {
    base = backend_.lockset_create(nprocs());
  }
  LockSet ls;
  ls.base = broadcast(base, 0);
  return ls;
}

// ---- Two-sided messages ----

void Runtime::send(Rank to, int tag, const void* data, std::size_t n) {
  PendingMsg msg;
  msg.from = me();
  msg.tag = tag;
  msg.arrival = backend_.msg_send_time(to, n);
  msg.data.assign(static_cast<const std::byte*>(data),
                  static_cast<const std::byte*>(data) + n);
  Inbox& inbox = *inboxes_[static_cast<std::size_t>(to)];
  backend_.critical([&] { inbox.q.push_back(std::move(msg)); });
  backend_.notify(to);
}

bool Runtime::iprobe(Rank from, int tag, MsgInfo* info) {
  backend_.charge(machine_.poll);
  Inbox& inbox = *inboxes_[static_cast<std::size_t>(me())];
  TimeNs t = backend_.now();
  bool found = false;
  backend_.critical([&] {
    for (const PendingMsg& m : inbox.q) {
      if (match(m, from, tag) && m.arrival <= t) {
        if (info != nullptr) {
          info->from = m.from;
          info->tag = m.tag;
          info->bytes = m.data.size();
        }
        found = true;
        break;
      }
    }
  });
  return found;
}

bool Runtime::try_recv(Rank from, int tag, void* buf, std::size_t cap,
                       MsgInfo* info) {
  Inbox& inbox = *inboxes_[static_cast<std::size_t>(me())];
  TimeNs t = backend_.now();
  bool found = false;
  std::size_t need = 0;
  backend_.critical([&] {
    for (auto it = inbox.q.begin(); it != inbox.q.end(); ++it) {
      if (match(*it, from, tag) && it->arrival <= t) {
        need = it->data.size();
        SCIOTO_CHECK_MSG(need <= cap, "recv buffer too small: need "
                                          << need << " have " << cap);
        std::memcpy(buf, it->data.data(), need);
        if (info != nullptr) {
          info->from = it->from;
          info->tag = it->tag;
          info->bytes = need;
        }
        inbox.q.erase(it);
        found = true;
        break;
      }
    }
  });
  if (found) {
    backend_.msg_recv_charge(need);
  }
  return found;
}

MsgInfo Runtime::recv(Rank from, int tag, void* buf, std::size_t cap) {
  MsgInfo info;
  for (;;) {
    if (try_recv(from, tag, buf, cap, &info)) {
      return info;
    }
    // Under sim, a matching message may exist but with a future arrival
    // time; advance to it rather than blocking forever.
    TimeNs next_arrival = kTimeNever;
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(me())];
    backend_.critical([&] {
      for (const PendingMsg& m : inbox.q) {
        if (match(m, from, tag)) {
          next_arrival = std::min(next_arrival, m.arrival);
        }
      }
    });
    if (next_arrival != kTimeNever) {
      if (backend_.simulated()) {
        // Wait (in virtual time) for the message to land.
        TimeNs dt = next_arrival - backend_.now();
        if (dt > 0) {
          backend_.charge(dt);
        }
        backend_.sync();
      }
      continue;
    }
    backend_.idle_wait();
  }
}

// ---- SPMD launcher ----

RunResult run_spmd(const Config& cfg,
                   const std::function<void(Runtime&)>& body) {
  RunResult result;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};

  // SCIOTO_TRACE_OUT=FILE traces any binary without code changes. A session
  // the caller already started (e.g. a bench's --trace flag) takes
  // precedence: it owns export and shutdown.
  const char* trace_out = std::getenv("SCIOTO_TRACE_OUT");
  const bool own_trace = trace_out != nullptr && !trace::active();
  if (own_trace) {
    trace::start(cfg.nranks);
  }

  // SCIOTO_LINEAGE=1 arms causal task lineage: every descriptor carries
  // an id/parent/hops trailer and the spawn/migrate/exec edges land in
  // the trace stream (visible only when a trace session is also active).
  // Enablement can also be staged through the C API
  // (scioto_lineage_set); a session the caller already started (e.g.
  // `trace_demo --flow`) takes precedence and owns shutdown.
  trace::lineage::Config lcfg = trace::lineage::config();
  if (const char* v = std::getenv("SCIOTO_LINEAGE")) {
    lcfg.enabled = *v != '\0' && *v != '0';
  }
  const bool own_lineage = lcfg.enabled && !trace::lineage::active();
  if (own_lineage) {
    trace::lineage::start(cfg.nranks);
  }

  // SCIOTO_FAULT_PLAN=SPEC arms fault injection for any binary. As with
  // tracing, a session the caller already started takes precedence.
  const char* fault_spec = std::getenv("SCIOTO_FAULT_PLAN");
  const bool own_fault = fault_spec != nullptr && *fault_spec != '\0' &&
                         !fault::active();
  if (own_fault) {
    fault::FaultPlan plan = fault::FaultPlan::parse(fault_spec);
    SCIOTO_REQUIRE(plan.kill_count() == 0 || cfg.backend == BackendKind::Sim,
                   "fail-stop kills need the deterministic sim backend");
    fault::start(cfg.nranks, std::move(plan), cfg.seed);
  }

  // SCIOTO_DETECTOR=1 arms the heartbeat failure detector: liveness is
  // then learned from probes instead of the fault oracle. Periods/timeouts
  // come from the staged detect::config() (C API) with env overrides. A
  // view the caller already armed takes precedence.
  detect::Config dcfg = detect::config();
  if (const char* v = std::getenv("SCIOTO_DETECTOR")) {
    dcfg.enabled = *v != '\0' && *v != '0';
  }
  if (const char* v = std::getenv("SCIOTO_HB_PERIOD")) {
    dcfg.hb_period = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_PROBE_PERIOD")) {
    dcfg.probe_period = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_SUSPECT_AFTER")) {
    dcfg.suspect_after = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_CONFIRM_AFTER")) {
    dcfg.confirm_after = fault::parse_time(v);
  }
  const bool own_detect = dcfg.enabled && !detect::active();
  if (own_detect) {
    detect::set_config(dcfg);
  }

  // SCIOTO_ELASTIC=1 arms elastic membership: join/ckpt rules in the fault
  // plan become live, parked ranks wait for admission, and checkpoints are
  // written to SCIOTO_CKPT_PATH (optionally every SCIOTO_CKPT_PERIOD of
  // virtual time). Armed before the detector view so the parked tail is
  // set at detect::start; a session the caller already armed takes
  // precedence. Detector config staged above applies to the view elastic
  // arms.
  elastic::Config ecfg = elastic::config();
  if (const char* v = std::getenv("SCIOTO_ELASTIC")) {
    ecfg.enabled = *v != '\0' && *v != '0';
  }
  if (const char* v = std::getenv("SCIOTO_CKPT_PATH")) {
    ecfg.ckpt_path = v;
  }
  if (const char* v = std::getenv("SCIOTO_CKPT_PERIOD")) {
    ecfg.ckpt_period = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_CKPT_RESTORE")) {
    ecfg.restore_path = v;
  }
  const bool own_elastic = ecfg.enabled && !elastic::active();
  if (own_elastic) {
    elastic::set_config(ecfg);
    elastic::start(cfg.nranks);
  }

  if (own_detect && !detect::active()) {
    detect::start(cfg.nranks);
  }

  // SCIOTO_CONTROLLER=off|local arms the adaptive control plane.
  // Mode, epoch period, and rule thresholds come from the staged
  // control::config() (C API) with env overrides. The controller reads the
  // metrics plane, so arming it force-enables metrics below. A session the
  // caller already started takes precedence.
  control::Config ccfg = control::config();
  if (const char* v = std::getenv("SCIOTO_CONTROLLER")) {
    SCIOTO_REQUIRE(control::mode_from_name(v, &ccfg.mode),
                   "SCIOTO_CONTROLLER must be off|local, got " << v);
  }
  if (const char* v = std::getenv("SCIOTO_CTL_PERIOD")) {
    ccfg.period = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_CTL_RULES")) {
    std::string rerr;
    SCIOTO_REQUIRE(control::Rules::parse(v, &ccfg.rules, &rerr),
                   "bad SCIOTO_CTL_RULES: " << rerr);
  }
  const bool own_control =
      ccfg.mode != control::Mode::Off && !control::active();

  // SCIOTO_METRICS=1 arms the telemetry plane (per-rank metric patches +
  // the periodic fleet monitor) for any binary. Period and sinks come from
  // the staged metrics::config() (C API) with env overrides. A session the
  // caller already started (e.g. a bench's --live flag) takes precedence
  // and owns the monitor and any dumps.
  metrics::Config mcfg = metrics::config();
  if (const char* v = std::getenv("SCIOTO_METRICS")) {
    mcfg.enabled = *v != '\0' && *v != '0';
  }
  if (const char* v = std::getenv("SCIOTO_METRICS_PERIOD")) {
    mcfg.period = fault::parse_time(v);
  }
  if (const char* v = std::getenv("SCIOTO_METRICS_OUT")) {
    mcfg.out_path = v;
  }
  if (const char* v = std::getenv("SCIOTO_METRICS_PROM")) {
    mcfg.prom_path = v;
  }
  if (own_control) {
    mcfg.enabled = true;  // the controller reads the metrics plane
    if (ccfg.period < mcfg.period) {
      // The fleet CoV digest the rule engine keys on is refreshed by the
      // monitor tick; a sampler slower than the decision cadence would
      // leave the controller reacting to stale imbalance.
      mcfg.period = ccfg.period;
    }
  }
  const bool own_metrics = mcfg.enabled && !metrics::active();
  if (own_metrics) {
    metrics::start(cfg.nranks);
    metrics::MonitorOptions mopts;
    mopts.period = mcfg.period;
    mopts.out_path = mcfg.out_path;
    mopts.live = false;
    mopts.wall_thread = cfg.backend == BackendKind::Threads;
    metrics::monitor_start(cfg.nranks, mopts);
    metrics::monitor_set_liveness([](Rank r) {
      if (!detect::alive(r)) return metrics::RankState::Dead;
      if (detect::suspected(r)) return metrics::RankState::Suspect;
      return metrics::RankState::Alive;
    });
    metrics::monitor_set_growth([] {
      // A parked rank reports Dead through the classifier above (it has
      // no seat in the fleet yet), so the alive+suspect+dead=nranks
      // rollup stays closed; the joins/grows pair is what tells a
      // growing fleet apart from a shrinking one.
      detect::Stats ds = detect::stats();
      return std::pair<std::uint64_t, std::uint64_t>(ds.joins, ds.grows);
    });
  }
  if (own_control) {
    // After monitor_start so the monitor hooks (digest tick, dashboard
    // knob text) land in an armed monitor; works equally against a
    // caller-owned metrics session.
    control::set_config(ccfg);
    control::start(cfg.nranks, ccfg);
  }

  auto wrap = [&](Runtime& rt, Rank r) {
    try {
      body(rt);
    } catch (const fault::RankKilled& k) {
      // Injected fail-stop: this rank simply stops executing; survivors
      // recover its in-flight work. Not an error.
      SCIOTO_WARN("rank " << r << " fail-stop injected at t=" << k.at
                          << " ns");
    } catch (...) {
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true)) {
        first_error = std::current_exception();
      }
      SCIOTO_ERROR("rank " << r << " terminated with an exception");
    }
  };

  if (cfg.backend == BackendKind::Sim) {
    SimBackend backend(cfg.nranks, cfg.machine, cfg.stack_bytes);
    Runtime rt(backend, cfg.seed, cfg.machine);
    backend.run([&](Rank r) { wrap(rt, r); });
    result.elapsed = backend.engine()->max_clock();
  } else {
    ThreadBackend backend(cfg.nranks);
    Runtime rt(backend, cfg.seed, cfg.machine);
    auto t0 = std::chrono::steady_clock::now();
    backend.run([&](Rank r) { wrap(rt, r); });
    result.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  if (own_trace) {
    trace::write_chrome_trace_file(trace_out);
    trace::stop();
  }

  // After the trace export above: the flow events it renders were
  // recorded into the trace rings, which the lineage session does not
  // own.
  if (own_lineage) {
    trace::lineage::stop();
  }

  if (own_control) {
    // Before the metrics teardown: stop() detaches the monitor hooks but
    // keeps the decision log for post-run inspection.
    control::stop();
  }
  if (own_metrics) {
    if (!mcfg.prom_path.empty()) {
      std::FILE* f = std::fopen(mcfg.prom_path.c_str(), "w");
      if (f != nullptr) {
        std::string text = metrics::prometheus_text();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      } else {
        SCIOTO_WARN("cannot open SCIOTO_METRICS_PROM file "
                    << mcfg.prom_path);
      }
    }
    metrics::monitor_stop();
    metrics::stop();
  }

  if (own_elastic) {
    elastic::stop();  // disarms the detect view iff elastic armed it
  }

  if (own_detect && detect::active()) {
    detect::stop();
  }

  if (own_fault) {
    fault::Summary s = fault::summary();
    if (s.kills > 0) {
      SCIOTO_WARN("fault plan injected " << s.kills << " rank failure(s); "
                  << "drops=" << s.drops << " stalls=" << s.stalls);
    }
    fault::stop();
  }

  if (first_error) {
    std::rethrow_exception(first_error);
  }
  return result;
}

}  // namespace scioto::pgas

// Capability-annotated synchronization layer: the only place in the tree
// that touches the raw std primitives (lint rule R10 bans them elsewhere;
// common/relaxed.hpp is the one other exception).
//
// Two enforcement layers ride on the same wrappers:
//
//   Compile time  Clang Thread Safety Analysis (Hutchins et al., SCAM
//                 2014). `v2v::Mutex` is a capability; members annotate
//                 what they protect with V2V_GUARDED_BY, helpers declare
//                 their locking contract with V2V_REQUIRES/V2V_EXCLUDES,
//                 and the `thread-safety` CI lane compiles the whole tree
//                 with -Wthread-safety as errors. Off Clang every macro
//                 expands to nothing, so GCC builds are unaffected.
//
//   Run time      A lockdep-style lock-order validator, active whenever
//                 the contract checks are (V2V_CHECKS_ENABLED: Debug or
//                 sanitizer/checked presets), compiled out of Release.
//                 Every Mutex carries a name and a rank (v2v::lock_rank);
//                 acquisitions push onto a thread-local held-lock stack
//                 and record instance-level edges into a global
//                 acquired-before graph. The first cycle aborts with both
//                 witness stacks (the stack that recorded the conflicting
//                 edge and the stack that closed the cycle), so an
//                 inversion is caught on any single execution of both
//                 orders, racing schedule or not. Recursive acquisition
//                 and rank re-registration abort the same way.
//
// Rank policy: ranks document the one global acquisition order — a
// thread only takes a mutex ranked strictly higher than everything it
// holds (outer/coarse locks low, inner/leaf locks high). The validator
// enforces ranks too, but a recorded inversion (a real cycle) takes
// priority and reports witness stacks. New mutexes pick a rank from /
// extend v2v::lock_rank; Mutex() is unranked and only cycle-checked.
//
// CondVar intentionally has no predicate wait overloads: Clang analyzes
// a predicate lambda as a separate unannotated function, so guarded
// reads inside it warn. Write the loop explicitly:
//   v2v::UniqueLock lock(mutex_);
//   while (!stopping_ && tasks_.empty()) task_ready_.wait(lock);
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "v2v/common/check.hpp"

// ---------------------------------------------------------------------------
// Annotation macros (no-ops off Clang).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define V2V_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define V2V_THREAD_ANNOTATION(x)
#endif

#define V2V_CAPABILITY(x) V2V_THREAD_ANNOTATION(capability(x))
#define V2V_SCOPED_CAPABILITY V2V_THREAD_ANNOTATION(scoped_lockable)
#define V2V_GUARDED_BY(x) V2V_THREAD_ANNOTATION(guarded_by(x))
#define V2V_PT_GUARDED_BY(x) V2V_THREAD_ANNOTATION(pt_guarded_by(x))
#define V2V_ACQUIRE(...) V2V_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define V2V_TRY_ACQUIRE(...) \
  V2V_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define V2V_RELEASE(...) V2V_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define V2V_REQUIRES(...) V2V_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define V2V_EXCLUDES(...) V2V_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define V2V_RETURN_CAPABILITY(x) V2V_THREAD_ANNOTATION(lock_returned(x))
#define V2V_ASSERT_CAPABILITY(x) V2V_THREAD_ANNOTATION(assert_capability(x))
// Escape hatch; policy (enforced by review + the acceptance gate): never
// used outside this header.
#define V2V_NO_THREAD_SAFETY_ANALYSIS \
  V2V_THREAD_ANNOTATION(no_thread_safety_analysis)

// The lockdep validator shares the contract-check switch: on in Debug and
// every sanitizer/checked preset, compiled out of Release.
#define V2V_LOCKDEP_ENABLED V2V_CHECKS_ENABLED

namespace v2v {

// ---------------------------------------------------------------------------
// Lock ranks: the one global acquisition order (low = outer, high = inner).
// A thread must only acquire a mutex ranked strictly above everything it
// already holds. Extend this table when adding an annotated type; document
// the new edge in docs/ARCHITECTURE.md "Static concurrency analysis".
// ---------------------------------------------------------------------------
namespace lock_rank {
inline constexpr std::uint32_t kServerStop = 10;         ///< serve::Server stop_mutex_
inline constexpr std::uint32_t kServerConnections = 20;  ///< serve::Server connections_mutex_
inline constexpr std::uint32_t kBatchQueue = 30;         ///< serve::BatchQueue mutex_
inline constexpr std::uint32_t kBatchQueueJoin = 34;     ///< serve::BatchQueue join_mutex_
inline constexpr std::uint32_t kThreadPool = 40;         ///< worker pool mutex_
inline constexpr std::uint32_t kDynamicGraph = 50;       ///< dynamic::DynamicGraph mutex_
inline constexpr std::uint32_t kMetricsRegistry = 60;    ///< obs::MetricsRegistry mutex_
inline constexpr std::uint32_t kMetricsSeries = 64;      ///< obs::Series mutex_
inline constexpr std::uint32_t kLog = 90;                ///< log emit mutex (leaf)
/// Unranked: cycle-checked only, exempt from rank enforcement. For tests
/// and truly local mutexes; production types should register a rank.
inline constexpr std::uint32_t kUnranked = 0xffffffffu;
}  // namespace lock_rank

#if V2V_LOCKDEP_ENABLED
namespace sync_detail {
/// Registers a mutex instance; aborts if `name` was registered before
/// under a different rank. Returns the instance's never-reused id.
std::uint64_t lockdep_register(const char* name, std::uint32_t rank);
/// Drops the instance's node and every edge touching it. Aborts if the
/// calling thread still holds the mutex.
void lockdep_unregister(std::uint64_t id) noexcept;
/// Pre-acquisition hook (called before blocking, so an inversion aborts
/// instead of deadlocking). `ordered` is false for try_lock successes,
/// which cannot deadlock and therefore record no graph edge.
void lockdep_acquire(std::uint64_t id, const char* name, std::uint32_t rank,
                     bool ordered);
void lockdep_release(std::uint64_t id) noexcept;
}  // namespace sync_detail
#endif

/// Annotated std::mutex. Named constructions register with the lockdep
/// validator in checked builds; Release compiles to a bare std::mutex.
class V2V_CAPABILITY("mutex") Mutex {
 public:
  /// Unranked mutex (tests, short-lived locals): cycle-checked only.
  Mutex() : Mutex("(unnamed)", lock_rank::kUnranked) {}

  /// `name` identifies the mutex class in diagnostics and in the rank
  /// registry (every instance of a type shares one name + rank); it must
  /// outlive the mutex (string literals only).
  Mutex(const char* name, std::uint32_t rank)
#if V2V_LOCKDEP_ENABLED
      : name_(name), rank_(rank), id_(sync_detail::lockdep_register(name, rank))
#endif
  {
    (void)name;
    (void)rank;
  }

#if V2V_LOCKDEP_ENABLED
  ~Mutex() { sync_detail::lockdep_unregister(id_); }
#else
  ~Mutex() = default;
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() V2V_ACQUIRE() {
#if V2V_LOCKDEP_ENABLED
    sync_detail::lockdep_acquire(id_, name_, rank_, /*ordered=*/true);
#endif
    m_.lock();
  }

  void unlock() V2V_RELEASE() {
    m_.unlock();
#if V2V_LOCKDEP_ENABLED
    sync_detail::lockdep_release(id_);
#endif
  }

  [[nodiscard]] bool try_lock() V2V_TRY_ACQUIRE(true) {
    const bool locked = m_.try_lock();
#if V2V_LOCKDEP_ENABLED
    if (locked) sync_detail::lockdep_acquire(id_, name_, rank_, /*ordered=*/false);
#endif
    return locked;
  }

  /// The wrapped primitive, for CondVar only.
  [[nodiscard]] std::mutex& native() noexcept { return m_; }

#if V2V_LOCKDEP_ENABLED
  [[nodiscard]] std::uint64_t lockdep_id() const noexcept { return id_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t rank() const noexcept { return rank_; }
#endif

 private:
  std::mutex m_;
#if V2V_LOCKDEP_ENABLED
  const char* name_ = "(unnamed)";
  std::uint32_t rank_ = lock_rank::kUnranked;
  std::uint64_t id_ = 0;
#endif
};

/// RAII lock for a whole scope (std::lock_guard shape).
class V2V_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) V2V_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() V2V_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII lock that can be dropped and retaken (std::unique_lock shape);
/// the form CondVar waits on.
class V2V_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) V2V_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
    owns_ = true;
  }
  ~UniqueLock() V2V_RELEASE() {
    if (owns_) mutex_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() V2V_ACQUIRE() {
    mutex_->lock();
    owns_ = true;
  }
  void unlock() V2V_RELEASE() {
    mutex_->unlock();
    owns_ = false;
  }

  [[nodiscard]] bool owns_lock() const noexcept { return owns_; }
  [[nodiscard]] Mutex* mutex() const noexcept { return mutex_; }

 private:
  Mutex* mutex_;
  bool owns_ = false;
};

/// Annotated std::condition_variable. Deliberately predicate-free — see
/// the header comment. Waits keep the lockdep held-stack honest: the
/// mutex is released for the duration of the block and its re-acquisition
/// is re-checked against whatever else the thread holds.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lock) {
    Mutex& mutex = *lock.mutex();
#if V2V_LOCKDEP_ENABLED
    sync_detail::lockdep_release(mutex.lockdep_id());
#endif
    std::unique_lock<std::mutex> native(mutex.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
#if V2V_LOCKDEP_ENABLED
    sync_detail::lockdep_acquire(mutex.lockdep_id(), mutex.name(), mutex.rank(),
                                 /*ordered=*/true);
#endif
  }

 private:
  std::condition_variable cv_;
};

}  // namespace v2v

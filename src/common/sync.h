#ifndef PMJOIN_COMMON_SYNC_H_
#define PMJOIN_COMMON_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

/// Annotated synchronization layer: Clang Thread Safety Analysis
/// attribute macros plus the `Mutex` / `MutexLock` / `CondVar` wrappers
/// every concurrent component in src/ must use instead of the raw
/// standard-library primitives (enforced by the `sync-primitives` rule in
/// tools/pmjoin_lint.py).
///
/// Two enforcement regimes ride on these wrappers (DESIGN.md,
/// "Concurrency & thread safety"):
///
///   - Compile time: under Clang with -DPMJOIN_THREAD_SAFETY=ON the build
///     adds -Wthread-safety, and the PMJOIN_GUARDED_BY / PMJOIN_REQUIRES /
///     ... annotations below turn every lock-discipline violation — a
///     guarded field touched without its mutex, a REQUIRES contract
///     broken, a lock leaked out of a branch — into a compiler error.
///     On GCC (and Clang without the option) every macro expands to
///     nothing, so the annotated tree stays warning-clean everywhere.
///
///   - Run time (paranoid builds): every `Mutex` carries a static rank
///     from the global lock hierarchy (`lock_rank` below), and under
///     -DPMJOIN_PARANOID a thread-local held-rank stack PMJOIN_CHECK-fails
///     on any acquisition that is not strictly rank-increasing. A
///     potential deadlock (A→B in one thread, B→A in another) thereby
///     becomes a deterministic abort on whichever thread acquires against
///     the hierarchy, regardless of interleaving.

// Clang Thread Safety Analysis attribute macros. The spelling follows the
// official capability vocabulary (acquire_capability & co.); each macro is
// a no-op on compilers without the analysis so the annotations can never
// change codegen or portability.
#if defined(__clang__)
#define PMJOIN_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define PMJOIN_THREAD_ANNOTATION__(x)
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define PMJOIN_CAPABILITY(x) PMJOIN_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define PMJOIN_SCOPED_CAPABILITY PMJOIN_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read or written while holding the given mutex.
#define PMJOIN_GUARDED_BY(x) PMJOIN_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given mutex.
#define PMJOIN_PT_GUARDED_BY(x) PMJOIN_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed mutexes to be held by the caller.
#define PMJOIN_REQUIRES(...) \
  PMJOIN_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the listed mutexes (held on return).
#define PMJOIN_ACQUIRE(...) \
  PMJOIN_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the listed mutexes (must be held on entry).
#define PMJOIN_RELEASE(...) \
  PMJOIN_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function acquires the mutex iff it returns the given value.
#define PMJOIN_TRY_ACQUIRE(...) \
  PMJOIN_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed mutexes (the function takes them
/// itself; calling with one held would self-deadlock).
#define PMJOIN_EXCLUDES(...) \
  PMJOIN_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts (to the analysis) that the capability is held at this point.
#define PMJOIN_ASSERT_CAPABILITY(x) \
  PMJOIN_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the given capability.
#define PMJOIN_RETURN_CAPABILITY(x) PMJOIN_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only where
/// the locking pattern is deliberately invisible to the analysis, with a
/// comment explaining why it is sound.
#define PMJOIN_NO_THREAD_SAFETY_ANALYSIS \
  PMJOIN_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace pmjoin {

/// The global lock hierarchy. A thread may only acquire a mutex whose
/// rank is strictly greater than every rank it already holds, so any
/// cycle in the waits-for graph implies a rank inversion that the
/// paranoid-build checker turns into a deterministic PMJOIN_CHECK abort.
///
/// Nestings this order must admit (see DESIGN.md for the full capability
/// table):
///   kServer        → kQueryQueue / kArtifactCache (JoinServer::BuildReport
///                    reads queue depth + cache stats under its own mutex)
///   kArtifactCache → kTracer / kMetricsRegistry (dataset/matrix builds
///                    open spans and bump metrics while the cache mutex
///                    guards the memo maps)
///   kTracer        → kMetricsRegistry (Tracer::StartSession resets metric
///                    values while holding the session mutex)
/// ThreadPool / WaitGroup never hold their mutexes across user code, but
/// sit between the cache and the obs layer so executor tasks spawned
/// under a cache-built artifact could still record spans. The async I/O
/// pipeline adds two ranks in that same gap: AsyncReader's queue mutex
/// (kAsyncReader, above kThreadPool because reader loops run as pool
/// tasks) and FileBackend's staging-table mutex (kIoStaging). Neither is
/// ever held across a physical read or an obs call — the backend reads
/// and records metrics *outside* the staging mutex — so despite sitting
/// below kTracer/kMetricsRegistry they never nest over them.
namespace lock_rank {
inline constexpr uint32_t kServer = 10;           ///< JoinServer::mu_
inline constexpr uint32_t kQueryQueue = 20;       ///< QueryQueue::mu_
inline constexpr uint32_t kArtifactCache = 30;    ///< ArtifactCache::mu_
inline constexpr uint32_t kThreadPool = 40;       ///< ThreadPool::mu_
inline constexpr uint32_t kWaitGroup = 50;        ///< WaitGroup::mu_
inline constexpr uint32_t kAsyncReader = 52;      ///< AsyncReader::mu_
inline constexpr uint32_t kIoStaging = 55;        ///< FileBackend::staging_mu_
inline constexpr uint32_t kTracer = 60;           ///< obs::Tracer::mu_
inline constexpr uint32_t kMetricsRegistry = 70;  ///< MetricsRegistry::mu_
/// Leaf rank for mutexes that never acquire anything while held (tests,
/// future components without a hierarchy slot yet).
inline constexpr uint32_t kLeaf = 1000;
}  // namespace lock_rank

namespace sync_internal {
/// Paranoid-build lock-rank bookkeeping (no-ops otherwise; the Mutex
/// methods below compile the calls out entirely). NoteAcquire checks the
/// strict-increase discipline against the calling thread's held-rank
/// stack and aborts via PMJOIN_CHECK on violation; NoteRelease removes
/// the entry (out-of-order release is legal).
void NoteAcquire(uint32_t rank, const char* name);
void NoteRelease(uint32_t rank, const char* name);
}  // namespace sync_internal

/// Annotated mutual-exclusion lock. A thin wrapper over std::mutex that
/// (a) carries the capability annotations the Clang analysis tracks and
/// (b) carries its static rank in the global lock hierarchy for the
/// paranoid-build deadlock detector. Prefer `MutexLock` over calling
/// Lock/Unlock directly.
class PMJOIN_CAPABILITY("mutex") Mutex {
 public:
  /// `rank` is the mutex's slot in `lock_rank`; `name` (a static string)
  /// identifies it in lock-rank violation reports.
  explicit Mutex(uint32_t rank, const char* name)
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PMJOIN_ACQUIRE() {
#ifdef PMJOIN_PARANOID
    // Check the hierarchy before blocking: a real inversion would park
    // this thread forever inside lock(); the rank check aborts first.
    sync_internal::NoteAcquire(rank_, name_);
#endif
    raw_.lock();
  }

  void Unlock() PMJOIN_RELEASE() {
#ifdef PMJOIN_PARANOID
    // Before the unlock, which may let a waiter destroy this mutex (a
    // WaitGroup going out of scope as soon as Wait returns).
    sync_internal::NoteRelease(rank_, name_);
#endif
    raw_.unlock();
  }

  uint32_t rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex raw_;
  const uint32_t rank_;
  const char* const name_;
};

/// RAII lock scope over a `Mutex` — the only sanctioned way to hold one.
class PMJOIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PMJOIN_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PMJOIN_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with `Mutex`. `Wait` atomically releases the
/// mutex and blocks; callers must re-test their predicate in a loop
/// (spurious wakeups are allowed, exactly as with the standard
/// primitive):
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
///
/// The rank checker deliberately keeps the mutex's rank on the held
/// stack across the blocked window: the thread reacquires the same
/// mutex before Wait returns, so its position in the hierarchy is
/// unchanged and nothing else can run on the thread in between.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken); `mu` must be held and
  /// is held again on return.
  void Wait(Mutex* mu) PMJOIN_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pmjoin

#endif  // PMJOIN_COMMON_SYNC_H_

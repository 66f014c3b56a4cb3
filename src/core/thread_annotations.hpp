// Clang thread-safety capability annotations (-Wthread-safety) and the
// annotated mutex wrappers the analysis needs to see.
//
// std::mutex carries no capability attributes, so Clang's static lock
// analysis cannot follow it. The Mutex/MutexLock pair below wraps it with
// the attributes, letting the compiler prove, at build time, that every
// access to a DDPM_GUARDED_BY member happens under its lock. The clang CI
// legs promote the warning to an error (-Werror=thread-safety); GCC and
// non-annotating builds compile the macros away. Discipline and rationale:
// docs/STATIC_ANALYSIS.md ("Thread-safety annotations").
//
// Keep the surface small: shared mutable state is a design smell in this
// codebase (replications share nothing, the analyzer's
// no-shared-mutable-static rule enforces it) — the only sanctioned user
// is the parallel runner's error slot.
#pragma once

#include <mutex>

#if defined(__clang__)
#define DDPM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DDPM_THREAD_ANNOTATION(x)
#endif

#define DDPM_CAPABILITY(x) DDPM_THREAD_ANNOTATION(capability(x))
#define DDPM_SCOPED_CAPABILITY DDPM_THREAD_ANNOTATION(scoped_lockable)
#define DDPM_GUARDED_BY(x) DDPM_THREAD_ANNOTATION(guarded_by(x))
#define DDPM_PT_GUARDED_BY(x) DDPM_THREAD_ANNOTATION(pt_guarded_by(x))
#define DDPM_ACQUIRE(...) DDPM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DDPM_RELEASE(...) DDPM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DDPM_REQUIRES(...) \
  DDPM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DDPM_EXCLUDES(...) DDPM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define DDPM_NO_THREAD_SAFETY_ANALYSIS \
  DDPM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ddpm::core {

/// std::mutex with the capability attribute Clang's analysis tracks.
class DDPM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DDPM_ACQUIRE() { m_.lock(); }
  void unlock() DDPM_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII lock over Mutex; scoped so the analysis knows the capability is
/// held for exactly this block.
class DDPM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) DDPM_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() DDPM_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

}  // namespace ddpm::core

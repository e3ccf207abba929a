// Clang thread-safety capability vocabulary (DESIGN.md §13).
//
// CF_CAPABILITY, CF_GUARDED_BY, CF_REQUIRES, CF_ACQUIRE/CF_RELEASE, ...
// expand to the `-Wthread-safety` attributes under clang, so a write to a
// guarded member without its mutex held is a *compile error*
// (ENABLE_WERROR). Under GCC they expand to nothing — the reference CI
// image still builds, and the dedicated clang job enforces the analysis.
//
// The annotated util::Mutex / util::MutexLock wrappers exist because
// libstdc++'s std::mutex carries no capability attributes, so clang's
// analysis cannot track it. The wrappers cost nothing beyond the wrapped
// std::mutex and interoperate with std::condition_variable_any.
#pragma once

#include <mutex>

#if defined(__clang__)
#define CF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CF_THREAD_ANNOTATION(x)
#endif

/// Declares a class to be a capability (e.g. CF_CAPABILITY("mutex")).
#define CF_CAPABILITY(x) CF_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define CF_SCOPED_CAPABILITY CF_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define CF_GUARDED_BY(x) CF_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define CF_PT_GUARDED_BY(x) CF_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function precondition: the listed capabilities are held by the caller.
#define CF_REQUIRES(...) CF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (and did not hold them).
#define CF_ACQUIRE(...) CF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define CF_RELEASE(...) CF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire and reports success as `ret`.
#define CF_TRY_ACQUIRE(ret, ...) \
  CF_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function must be called with the listed capabilities *not* held.
#define CF_EXCLUDES(...) CF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define CF_RETURN_CAPABILITY(x) CF_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment saying why the function is safe.
#define CF_NO_THREAD_SAFETY_ANALYSIS CF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cloudfog::util {

/// std::mutex with clang capability attributes, so members declared
/// CF_GUARDED_BY(mu_) are actually enforced. Methods mirror std::mutex;
/// native() exposes the wrapped mutex for condition_variable_any.
class CF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CF_ACQUIRE() { mu_.lock(); }
  void unlock() CF_RELEASE() { mu_.unlock(); }
  bool try_lock() CF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Relockable scoped lock over util::Mutex (the std::unique_lock shape the
/// analysis can see). Satisfies BasicLockable, so it works directly as the
/// lock argument of std::condition_variable_any::wait — the wait's
/// internal unlock/relock nets out to "still held", which matches what the
/// analysis assumes.
class CF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CF_ACQUIRE(mu) : mu_(mu), owned_(true) { mu_.lock(); }
  ~MutexLock() CF_RELEASE() {
    if (owned_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() CF_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() CF_RELEASE() {
    owned_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool owned_;
};

}  // namespace cloudfog::util

// Portable Clang Thread Safety Analysis annotations.
//
// The repo's core correctness property is lock discipline: safe mutation of
// a *running* pipeline (pause/reconnect, live insert/remove/reorder)
// depends on every shared field being touched only under its mutex. These
// macros turn that protocol into compile-time contracts: a Clang build with
// -DRW_THREAD_SAFETY=ON (-Wthread-safety -Werror=thread-safety) rejects any
// guarded-field access outside its lock. On GCC and other compilers every
// macro expands to nothing, so annotations cost nothing off-Clang.
//
// Conventions (docs/static_analysis.md):
//   * Shared state uses rw::Mutex / rw::CondVar / rw::MutexLock
//     (src/util/mutex.h), never raw std::mutex — tools/rw_lint.py enforces
//     this outside a shrinking legacy allowlist.
//   * Every field a mutex protects carries RW_GUARDED_BY(mu_).
//   * Private helpers that expect the lock held are named *_locked() and
//     carry RW_REQUIRES(mu_).
//   * Condition-variable predicate lambdas open with mu.assert_held():
//     Clang analyzes a lambda body as a separate function that cannot see
//     the caller's lock set, and the assertion reinstates it.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define RW_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define RW_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex").
#define RW_CAPABILITY(x) RW_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII type that acquires in its constructor and releases in its
/// destructor (rw::MutexLock).
#define RW_SCOPED_CAPABILITY RW_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// The field is protected by the given mutex.
#define RW_GUARDED_BY(x) RW_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// The data *pointed to* by the field is protected by the given mutex.
#define RW_PT_GUARDED_BY(x) RW_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Documented lock-acquisition order (checked under -Wthread-safety-beta).
#define RW_ACQUIRED_BEFORE(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define RW_ACQUIRED_AFTER(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function must be called with the given capabilities held.
#define RW_REQUIRES(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define RW_REQUIRES_SHARED(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the given capabilities.
#define RW_ACQUIRE(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define RW_ACQUIRE_SHARED(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define RW_RELEASE(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RW_RELEASE_SHARED(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define RW_TRY_ACQUIRE(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The function must NOT be called with the given capabilities held
/// (deadlock guard for helpers that take the lock themselves).
#define RW_EXCLUDES(...) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Analysis-only assertion that the capability is held here.
#define RW_ASSERT_CAPABILITY(x) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RW_RETURN_CAPABILITY(x) \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables analysis for one function. Requires a written
/// justification next to every use (tools/rw_lint.py flags bare uses).
#define RW_NO_THREAD_SAFETY_ANALYSIS \
  RW_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

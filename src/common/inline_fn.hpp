// InlineFn: the one move-only type-erased callable.
//
// `InlineFn<R(Args...)>` keeps captures up to 48 bytes inline — sized for
// the simulator's hot-path closures (a network delivery captures this +
// src + dst + a 32-byte SharedBytes handle = 48 bytes), so scheduling an
// event performs no allocation.  std::function, by contrast, spills
// anything past its ~16-byte small buffer onto the heap, which made every
// scheduled delivery a malloc/free pair.  Larger captures (and captures
// whose move may throw) take one plain `new`.
//
// It serves two roles:
//   * the simulator's event callback, `InlineFn<void()>`, built directly
//     inside its EventHeap slot through emplace();
//   * the completion callbacks the layers above the simulator exchange
//     (RMI replies, GCS deliveries, round continuations, baseline clock
//     readings, recovery-complete notifications).
//
// Ownership is honest in both: a callable may hold move-only captures, so
// a callback can park a `sim::Simulator::CoroResume` guard whose invocation
// resumes the suspended frame exactly once and whose destructor destroys
// the frame if the callback is dropped unfired (destroy-on-drop).  Copyable
// callables (plain lambdas, std::function) convert implicitly.
//
// Deliberately NOT implemented with memcpy/reinterpret_cast: the repo's
// detlint type-pun rule centralizes byte punning in src/common/bytes.hpp,
// so relocation here is placement-new move-construction + explicit
// destructor calls, which is also what non-trivially-copyable captures
// (shared_ptr, coroutine handles) require for correctness anyway.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cts {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
  template <typename D>
  static constexpr bool kAccepts =
      !std::is_same_v<D, InlineFn> && std::is_invocable_r_v<R, D&, Args...>;

 public:
  /// Inline capture budget: fits the network delivery closure exactly.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>, typename = std::enable_if_t<kAccepts<D>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    construct<F, D>(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` in place.  The
  /// EventHeap uses this to build the callback directly inside its slot,
  /// skipping the type-erased relocation a construct-then-move-assign pair
  /// would pay per scheduled event.
  template <typename F, typename D = std::decay_t<F>, typename = std::enable_if_t<kAccepts<D>>>
  void emplace(F&& f) {
    reset();
    construct<F, D>(std::forward<F>(f));
  }

  /// emplace() from an already-erased InlineFn: plain move-assignment.
  void emplace(InlineFn&& other) noexcept { *this = std::move(other); }

  InlineFn(InlineFn&& other) noexcept { take_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      take_from(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  R operator()(Args... args) { return vt_->invoke(*this, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(*this);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    R (*invoke)(InlineFn& self, Args&&... args);
    // Move `src`'s callable into the empty `dst`; leaves `src` disengaged.
    void (*relocate)(InlineFn& dst, InlineFn& src) noexcept;
    void (*destroy)(InlineFn& self) noexcept;
  };

  union Storage {
    alignas(kInlineAlign) std::byte buf[kInlineSize];
    void* heap;
  };

  void* inline_ptr() noexcept { return static_cast<void*>(storage_.buf); }

  template <typename F, typename D>
  void construct(F&& f) {
    // Inline placement requires a nothrow move so relocation (vector growth
    // inside EventHeap) can be noexcept; throwing-move callables are rare
    // and simply take the heap path.
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (inline_ptr()) D(std::forward<F>(f));
      vt_ = &kInlineVTable<D>;
    } else {
      storage_.heap = new D(std::forward<F>(f));
      vt_ = &kHeapVTable<D>;
    }
  }

  void take_from(InlineFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(*this, other);
      other.vt_ = nullptr;
    }
  }

  template <typename D>
  static R call(D& f, Args&&... args) {
    return static_cast<R>(f(std::forward<Args>(args)...));
  }

  template <typename D>
  struct InlineOps {
    static D* get(InlineFn& self) noexcept {
      return std::launder(static_cast<D*>(self.inline_ptr()));
    }
    static R invoke(InlineFn& self, Args&&... args) {
      return call(*get(self), std::forward<Args>(args)...);
    }
    static void relocate(InlineFn& dst, InlineFn& src) noexcept {
      D* s = get(src);
      ::new (dst.inline_ptr()) D(std::move(*s));
      s->~D();
    }
    static void destroy(InlineFn& self) noexcept { get(self)->~D(); }
  };

  template <typename D>
  struct HeapOps {
    static D* get(InlineFn& self) noexcept { return static_cast<D*>(self.storage_.heap); }
    static R invoke(InlineFn& self, Args&&... args) {
      return call(*get(self), std::forward<Args>(args)...);
    }
    static void relocate(InlineFn& dst, InlineFn& src) noexcept {
      dst.storage_.heap = src.storage_.heap;
    }
    static void destroy(InlineFn& self) noexcept { delete get(self); }
  };

  template <typename D>
  static constexpr VTable kInlineVTable{&InlineOps<D>::invoke, &InlineOps<D>::relocate,
                                        &InlineOps<D>::destroy};
  template <typename D>
  static constexpr VTable kHeapVTable{&HeapOps<D>::invoke, &HeapOps<D>::relocate,
                                     &HeapOps<D>::destroy};

  const VTable* vt_ = nullptr;
  Storage storage_;
};

}  // namespace cts

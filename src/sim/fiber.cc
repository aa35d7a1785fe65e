#include "sim/fiber.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"

#if !defined(__x86_64__) || !defined(__ELF__)
#error "the fiber switch in sim/fiber.cc is x86-64 System V (ELF) assembly"
#endif

// AddressSanitizer must be told about every stack switch; without the
// start/finish annotations it attributes fiber frames to the scheduler
// stack and reports false stack-buffer-overflow / use-after-return
// errors under scripts/check_sanitize.sh.
#if defined(__SANITIZE_ADDRESS__)
#define NOWCLUSTER_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NOWCLUSTER_ASAN_FIBERS 1
#endif
#endif

// ThreadSanitizer likewise keeps one shadow stack per fiber; the
// create/switch/destroy annotations keep it from reporting false races
// between frames that alternate on the same OS thread
// (NOWCLUSTER_SANITIZE=thread; scripts/check_sanitize.sh thread).
#if defined(__SANITIZE_THREAD__)
#define NOWCLUSTER_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NOWCLUSTER_TSAN_FIBERS 1
#endif
#endif

#ifdef NOWCLUSTER_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

/**
 * Save the running context's registers on its stack, store its stack
 * pointer in *save_sp, then load the context whose stack pointer is
 * load_sp and return into it. The saved frame, from the stack pointer
 * up: x87 control word (8-byte slot), MXCSR (8-byte slot), r15, r14,
 * r13, r12, rbx, rbp, return address. These are the System V
 * callee-saved registers plus the two floating-point control registers;
 * everything else is caller-saved, so the compiler has already spilled
 * it around this call. Shadow stacks (CET) are not supported: the
 * return lands on a different stack than the call came from.
 */
extern "C" void nowcluster_fiber_switch(void **save_sp, void *load_sp);

asm(R"(
    .text
    .globl  nowcluster_fiber_switch
    .hidden nowcluster_fiber_switch
    .type   nowcluster_fiber_switch, @function
    .p2align 4
nowcluster_fiber_switch:
    pushq   %rbp
    pushq   %rbx
    pushq   %r12
    pushq   %r13
    pushq   %r14
    pushq   %r15
    subq    $16, %rsp
    stmxcsr 8(%rsp)
    fnstcw  (%rsp)
    movq    %rsp, (%rdi)
    movq    %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 8(%rsp)
    addq    $16, %rsp
    popq    %r15
    popq    %r14
    popq    %r13
    popq    %r12
    popq    %rbx
    popq    %rbp
    ret
    .size   nowcluster_fiber_switch, .-nowcluster_fiber_switch
)");

namespace nowcluster {

namespace {

// The fiber currently executing on this thread. One simulation runs
// entirely on one thread; thread_local keeps the parallel experiment
// runner (and tests that spawn threads) safe.
thread_local Fiber *current_fiber = nullptr;

} // namespace

// ----------------------------------------------------------------------
// FiberStackPool
// ----------------------------------------------------------------------

FiberStackPool &
FiberStackPool::local()
{
    thread_local FiberStackPool pool;
    return pool;
}

char *
FiberStackPool::acquire(std::size_t size)
{
    // Newest-first: the most recently released stack is the most likely
    // to still be warm in cache, and sizes are uniform in practice.
    for (std::size_t i = pooled_.size(); i-- > 0;) {
        if (pooled_[i].size == size) {
            char *stack = pooled_[i].stack;
            pooled_.erase(pooled_.begin() + static_cast<long>(i));
            ++hits_;
#ifdef NOWCLUSTER_ASAN_FIBERS
            // Clear any shadow poison left by the previous occupant's
            // dead frames before handing the memory to a new fiber.
            __asan_unpoison_memory_region(stack, size);
#endif
            return stack;
        }
    }
    ++misses_;
    return new char[size];
}

void
FiberStackPool::release(char *stack, std::size_t size)
{
    if (pooled_.size() >= kMaxPooled) {
        delete[] stack;
        return;
    }
#ifdef NOWCLUSTER_ASAN_FIBERS
    __asan_unpoison_memory_region(stack, size);
#endif
    pooled_.push_back(PooledStack{stack, size});
}

void
FiberStackPool::clear()
{
    for (PooledStack &p : pooled_)
        delete[] p.stack;
    pooled_.clear();
}

FiberStackPool::~FiberStackPool()
{
    clear();
}

// ----------------------------------------------------------------------
// Fiber
// ----------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body_(std::move(body)),
      stack_(FiberStackPool::local().acquire(stack_size)),
      stackSize_(stack_size)
{
    panic_if(stack_size < 16 * 1024, "fiber stack too small: %zu",
             stack_size);
    // The first switch in pops this frame (see nowcluster_fiber_switch)
    // and "returns" into trampoline() with the stack pointer 8 bytes
    // below a 16-byte boundary, as after a call. The zero above the
    // trampoline's address is its return address: it never returns,
    // and a zero ends every stack walk there. The floating-point
    // control state is inherited from the constructing context.
    auto top = reinterpret_cast<std::uintptr_t>(stack_ + stack_size) &
               ~std::uintptr_t{15};
    auto *frame = reinterpret_cast<std::uintptr_t *>(top) - 10;
    std::memset(frame, 0, 10 * sizeof *frame);
    frame[8] = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
    asm("fnstcw %0" : "=m"(frame[0]));
    asm("stmxcsr %0" : "=m"(frame[1]));
    sp_ = frame;
#ifdef NOWCLUSTER_TSAN_FIBERS
    tsanFiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    // Destroying a suspended (started but unfinished) fiber leaks any
    // resources held by frames on its stack; warn so tests notice.
    if (started_ && !finished_)
        warn("destroying unfinished fiber");
#ifdef NOWCLUSTER_TSAN_FIBERS
    if (tsanFiber_)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    FiberStackPool::local().release(stack_, stackSize_);
}

void
Fiber::trampoline()
{
    // resume() set current_fiber before switching in.
    Fiber *self = current_fiber;
#ifdef NOWCLUSTER_ASAN_FIBERS
    // Complete the switch begun in resume(), learning where the
    // scheduler's stack lives so yield() can announce switches back.
    __sanitizer_finish_switch_fiber(nullptr, &self->asanReturnStack_,
                                    &self->asanReturnSize_);
#endif
    // Nothing may unwind past this frame: its return address is zero.
    try {
        self->body_();
    } catch (...) {
        self->error_ = std::current_exception();
    }
    self->finished_ = true;
    current_fiber = nullptr;
#ifdef NOWCLUSTER_ASAN_FIBERS
    // This stack is dead after the switch below: fake_stack_save of
    // nullptr tells ASan to release its shadow.
    __sanitizer_start_switch_fiber(nullptr, self->asanReturnStack_,
                                   self->asanReturnSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanReturn_, 0);
#endif
    nowcluster_fiber_switch(&self->sp_, self->returnSp_);
    __builtin_unreachable();
}

void
Fiber::resume()
{
    panic_if(current_fiber != nullptr,
             "Fiber::resume called from inside a fiber");
    panic_if(finished_, "resuming a finished fiber");
    current_fiber = this;
    started_ = true;
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&asanMainFake_, stack_, stackSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    tsanReturn_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
    nowcluster_fiber_switch(&returnSp_, sp_);
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(asanMainFake_, nullptr, nullptr);
#endif
    // We only get back here after the fiber yields or finishes.
    current_fiber = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
Fiber::yield()
{
    Fiber *self = current_fiber;
    panic_if(self == nullptr, "Fiber::yield called outside a fiber");
    current_fiber = nullptr;
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&self->asanFiberFake_,
                                   self->asanReturnStack_,
                                   self->asanReturnSize_);
#endif
#ifdef NOWCLUSTER_TSAN_FIBERS
    __tsan_switch_to_fiber(self->tsanReturn_, 0);
#endif
    nowcluster_fiber_switch(&self->sp_, self->returnSp_);
#ifdef NOWCLUSTER_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(self->asanFiberFake_,
                                    &self->asanReturnStack_,
                                    &self->asanReturnSize_);
#endif
    current_fiber = self;
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

} // namespace nowcluster

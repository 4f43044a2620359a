#include "src/sim/fiber.h"

#include <new>
#include <utility>

#include "src/base/check.h"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#ifdef PLATINUM_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// Suspends the running host context and resumes another. Saves the running
// context's callee-saved state on its own stack, stores the resulting stack
// pointer in `*save_sp`, then restores the state saved at `next_sp` and
// returns into that context.
extern "C" void platinum_sim_switch(void** save_sp, void* next_sp);

#if defined(__x86_64__)
// The System V ABI lets a callee clobber every register except rbx, rbp,
// r12-r15 and rsp, and the control bits of MXCSR and the x87 control word.
// A switch is an ordinary call, so the compiler has already saved everything
// else; these are all that must survive it. The saved layout, from the saved
// stack pointer upward: x87 control word (8-byte slot), MXCSR (8-byte slot),
// r15, r14, r13, r12, rbx, rbp, return address.
asm(R"(
    .pushsection .text
    .globl platinum_sim_switch
    .type platinum_sim_switch, @function
    .p2align 4
platinum_sim_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $16, %rsp
    .cfi_adjust_cfa_offset 16
    fnstcw (%rsp)
    stmxcsr 8(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw (%rsp)
    ldmxcsr 8(%rsp)
    addq $16, %rsp
    .cfi_adjust_cfa_offset -16
    popq %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size platinum_sim_switch, .-platinum_sim_switch
    .popsection
)");
#else
// Elsewhere the saved "stack pointer" is the address of the ucontext_t the
// suspended context saved into, which lives on that context's own stack. It
// is valid only while that context is suspended.
extern "C" void platinum_sim_switch(void** save_sp, void* next_sp) {
  ucontext_t self;
  *save_sp = &self;
  PLAT_CHECK_EQ(swapcontext(&self, static_cast<ucontext_t*>(next_sp)), 0);
  *save_sp = nullptr;
}
#endif

namespace platinum::sim {

namespace {

#if defined(__x86_64__)
// What platinum_sim_switch pops when it first resumes a fiber: the saved
// layout above, then `entry`'s own return address. Null there ends unwinding.
struct InitialFrame {
  uint64_t x87_control;
  uint64_t mxcsr;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void (*entry)();
  void* entry_return;
};
// Placed at the 16-byte-aligned top of the stack, this leaves the stack
// pointer 8 past a 16-byte boundary at `entry`, as after a call.
static_assert(sizeof(InitialFrame) % sizeof(StackChunk) == 0);
#else
struct InitialFrame {
  ucontext_t context;
};
static_assert(alignof(InitialFrame) <= alignof(StackChunk));
#endif

constexpr size_t kInitialFrameChunks =
    (sizeof(InitialFrame) + sizeof(StackChunk) - 1) / sizeof(StackChunk);

#ifdef PLATINUM_ASAN_FIBERS
// The context that performed the switch now completing on this host thread.
thread_local ExecutionContext* switching_from = nullptr;
#endif

}  // namespace

void ExecutionContext::Prepare(StackChunk* stack, size_t chunks, void (*entry)()) {
  PLAT_CHECK_GT(chunks, kInitialFrameChunks);
  void* frame_at = stack + (chunks - kInitialFrameChunks);
#if defined(__x86_64__)
  // A fiber starts with its spawner's floating-point control state, as a
  // thread inherits it.
  uint16_t x87_control = 0;
  uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(x87_control));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  sp_ = new (frame_at) InitialFrame{x87_control, mxcsr,   nullptr, nullptr, nullptr,
                                    nullptr,     nullptr, nullptr, entry,   nullptr};
#else
  auto* frame = new (frame_at) InitialFrame;
  PLAT_CHECK_EQ(getcontext(&frame->context), 0);
  frame->context.uc_stack.ss_sp = stack;
  frame->context.uc_stack.ss_size = (chunks - kInitialFrameChunks) * sizeof(StackChunk);
  frame->context.uc_link = nullptr;  // entry never returns
  makecontext(&frame->context, entry, 0);
  sp_ = &frame->context;
#endif
#ifdef PLATINUM_ASAN_FIBERS
  stack_bottom_ = stack;
  stack_size_ = chunks * sizeof(StackChunk);
#endif
}

void ExecutionContext::SwitchTo(ExecutionContext& next) {
#ifdef PLATINUM_ASAN_FIBERS
  switching_from = this;
  __sanitizer_start_switch_fiber(&fake_stack_, next.stack_bottom_, next.stack_size_);
  platinum_sim_switch(&sp_, next.sp_);
  __sanitizer_finish_switch_fiber(fake_stack_, &switching_from->stack_bottom_,
                                  &switching_from->stack_size_);
#else
  platinum_sim_switch(&sp_, next.sp_);
#endif
}

void ExecutionContext::ExitTo(ExecutionContext& next) {
#ifdef PLATINUM_ASAN_FIBERS
  switching_from = this;
  // A null save slot tells ASan to free this context's fake stack.
  __sanitizer_start_switch_fiber(nullptr, next.stack_bottom_, next.stack_size_);
#endif
  platinum_sim_switch(&sp_, next.sp_);
}

void ExecutionContext::OnEntry() {
#ifdef PLATINUM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &switching_from->stack_bottom_,
                                  &switching_from->stack_size_);
#endif
}

Fiber::Fiber(uint32_t id, int processor, std::string name, std::function<void()> body,
             uint32_t stack_bytes, bool daemon)
    : id_(id),
      processor_(processor),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon),
      stack_(new StackChunk[stack_bytes / sizeof(StackChunk)]),
      stack_chunks_(stack_bytes / sizeof(StackChunk)) {
  PLAT_CHECK(body_ != nullptr);
}

Fiber::~Fiber() = default;

}  // namespace platinum::sim

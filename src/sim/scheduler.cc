#include "src/sim/scheduler.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace platinum::sim {

thread_local Scheduler* Scheduler::active_ = nullptr;

Scheduler::Scheduler(int num_processors, SimTime quantum, uint32_t fiber_stack_bytes)
    : quantum_(quantum),
      fiber_stack_bytes_(fiber_stack_bytes),
      processor_available_(num_processors, 0),
      pending_interrupt_cost_(num_processors, 0) {
  PLAT_CHECK_GT(num_processors, 0);
  PLAT_CHECK_GT(quantum, SimTime{0});
}

Scheduler::~Scheduler() = default;

Fiber* Scheduler::Spawn(int processor, std::string name, std::function<void()> body,
                        bool daemon) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, num_processors());
  auto fiber = std::make_unique<Fiber>(static_cast<uint32_t>(fibers_.size()), processor,
                                       std::move(name), std::move(body), fiber_stack_bytes_,
                                       daemon);
  Fiber* raw = fiber.get();
  raw->context_.Prepare(raw->stack_.get(), raw->stack_chunks_, &Scheduler::Trampoline);
  // A fiber spawned by a running fiber cannot begin before its spawner's
  // current virtual time.
  raw->clock_ = (current_ != nullptr) ? current_->clock_ : global_now_;
  fibers_.push_back(std::move(fiber));
  if (!daemon) {
    ++live_non_daemon_;
  }
  MakeReady(raw);
  return raw;
}

void Scheduler::MakeReady(Fiber* fiber) {
  fiber->state_ = Fiber::State::kReady;
  PushReady(ReadyEntry{fiber->clock_, next_seq_++, fiber});
}

void Scheduler::PushReady(ReadyEntry entry) {
  size_t hole = ready_.size();
  ready_.push_back(entry);
  while (hole > 0) {
    size_t parent = (hole - 1) / 2;
    if (!(entry < ready_[parent])) {
      break;
    }
    ready_[hole] = ready_[parent];
    hole = parent;
  }
  ready_[hole] = entry;
}

Fiber* Scheduler::PopReady() {
  PLAT_CHECK(!ready_.empty()) << "deadlock: " << live_non_daemon_
                              << " non-daemon fibers alive but none runnable";
  Fiber* first = ready_.front().fiber;
  ReadyEntry last = ready_.back();
  ready_.pop_back();
  if (!ready_.empty()) {
    ReplaceFirstReady(last);
  }
  return first;
}

void Scheduler::ReplaceFirstReady(ReadyEntry entry) {
  const size_t size = ready_.size();
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && ready_[child + 1] < ready_[child]) {
      ++child;
    }
    if (!(ready_[child] < entry)) {
      break;
    }
    ready_[hole] = ready_[child];
    hole = child;
  }
  ready_[hole] = entry;
}

void Scheduler::Run() {
  PLAT_CHECK(!running_) << "Run() is not reentrant";
  PLAT_CHECK(current_ == nullptr);
  if (live_non_daemon_ == 0) {
    return;
  }
  running_ = true;
  Scheduler* previous_active = active_;
  active_ = this;

  // The fibers hand off among themselves; the last non-daemon fiber to finish
  // switches back here.
  Fiber* first = PopReady();
  Dispatch(first);
  main_context_.SwitchTo(first->context_);
  ReapFinished();
  current_ = nullptr;

  active_ = previous_active;
  running_ = false;
}

void Scheduler::Dispatch(Fiber* next) {
  PLAT_CHECK(next->state_ == Fiber::State::kReady);
  // Serialize fibers sharing a processor, and deliver any pending interrupt
  // handling cost to whoever occupies the node next.
  int processor = next->processor_;
  SimTime start = std::max(next->clock_, processor_available_[processor]);
  start += pending_interrupt_cost_[processor];
  pending_interrupt_cost_[processor] = 0;

  next->clock_ = start;
  next->resumed_at_ = start;
  next->state_ = Fiber::State::kRunning;
  BumpGlobalNow(start);
  current_ = next;
  ++switches_;
}

void Scheduler::SwitchTo(Fiber* self, Fiber* next) {
  Dispatch(next);
  if (next != self) {
    self->context_.SwitchTo(next->context_);
    ReapFinished();
  }
}

void Scheduler::ReapFinished() {
  if (finished_ != nullptr) [[unlikely]] {
    finished_->stack_.reset();
    finished_ = nullptr;
  }
}

void Scheduler::Trampoline() {
  ExecutionContext::OnEntry();
  PLAT_CHECK(active_ != nullptr);
  active_->RunFiberBody();
}

void Scheduler::RunFiberBody() {
  ReapFinished();
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  self->body_();
  FinishCurrent();
  PLAT_CHECK(false) << "resumed a finished fiber";
}

void Scheduler::FinishCurrent() {
  Fiber* self = current_;
  self->state_ = Fiber::State::kDone;
  if (!self->daemon_) {
    --live_non_daemon_;
  }
  for (Fiber* joiner : self->joiners_) {
    Wake(joiner, self->clock_);
  }
  self->joiners_.clear();
  ReleaseProcessor(self->clock_);
  // Leave for good; whoever runs next frees this stack.
  finished_ = self;
  if (live_non_daemon_ == 0) {
    self->context_.ExitTo(main_context_);
  } else {
    Fiber* next = PopReady();
    Dispatch(next);
    self->context_.ExitTo(next->context_);
  }
}

void Scheduler::AdvanceTo(SimTime t) {
  if (current_ == nullptr) {
    return;
  }
  current_->clock_ = std::max(current_->clock_, t);
}

void Scheduler::Yield() {
  PLAT_CHECK(current_ != nullptr);
  Requeue(/*release_processor_at=*/current_->clock_);
}

void Scheduler::Sleep(SimTime duration) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  // The processor is free while this fiber sleeps.
  SimTime release = self->clock_;
  self->clock_ += duration;
  Requeue(release);
}

void Scheduler::Requeue(SimTime release_processor_at) {
  Fiber* self = current_;
  self->state_ = Fiber::State::kReady;
  ReadyEntry entry{self->clock_, next_seq_++, self};
  ReleaseProcessor(release_processor_at);
  // Requeue and pick in one step: the fiber keeps running if it is still the
  // first, else it takes the first fiber's place in the heap.
  Fiber* next = self;
  if (!ready_.empty() && ready_.front() < entry) {
    next = ready_.front().fiber;
    ReplaceFirstReady(entry);
  }
  SwitchTo(self, next);
}

void Scheduler::Block() {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  self->state_ = Fiber::State::kBlocked;
  ReleaseProcessor(self->clock_);
  SwitchTo(self, PopReady());
  PLAT_CHECK(self->state_ == Fiber::State::kRunning);
}

void Scheduler::Wake(Fiber* fiber, SimTime not_before) {
  PLAT_CHECK(fiber != nullptr);
  PLAT_CHECK(fiber->state_ == Fiber::State::kBlocked)
      << "Wake on fiber '" << fiber->name() << "' in state " << static_cast<int>(fiber->state_);
  fiber->clock_ = std::max(fiber->clock_, not_before);
  MakeReady(fiber);
}

void Scheduler::Join(Fiber* fiber) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr) << "Join must be called from a fiber";
  PLAT_CHECK(fiber != self);
  if (fiber->state_ == Fiber::State::kDone) {
    self->clock_ = std::max(self->clock_, fiber->clock_);
    return;
  }
  fiber->joiners_.push_back(self);
  Block();
}

void Scheduler::MigrateCurrent(int new_processor) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  PLAT_CHECK_GE(new_processor, 0);
  PLAT_CHECK_LT(new_processor, num_processors());
  if (new_processor == self->processor_) {
    return;
  }
  processor_available_[self->processor_] =
      std::max(processor_available_[self->processor_], self->clock_);
  self->processor_ = new_processor;
  // Re-enter the run queue so the arrival serializes against the new node.
  Yield();
}

void Scheduler::AddInterruptCost(int processor, SimTime cost) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, num_processors());
  pending_interrupt_cost_[processor] += cost;
}

void Scheduler::ReleaseProcessor(SimTime at) {
  SimTime& available = processor_available_[current_->processor_];
  available = std::max(available, at);
  // Record only time actually executed: a sleeping fiber's clock already
  // points at its future wake-up and must not drag global_now forward.
  BumpGlobalNow(at);
}

void Scheduler::BumpGlobalNow(SimTime t) {
  if (t <= global_now_) {
    return;
  }
  global_now_ = t;
  if (time_observer_ != nullptr) [[unlikely]] {
    time_observer_->OnTimeAdvance(t);
  }
}

}  // namespace platinum::sim

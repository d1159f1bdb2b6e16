#include "src/common/executor.h"

namespace scfs {

AsyncExecutor::~AsyncExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

void AsyncExecutor::Post(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(task));
  if (queue_.size() > idle_ && !shutdown_) {
    // More queued tasks than parked workers: grow the pool so a blocked task
    // can never starve the tasks it waits on. (idle_ only drops once a woken
    // worker re-acquires the lock, so this over- rather than under-spawns.)
    workers_.emplace_back([this] { WorkerLoop(); });
  } else {
    cv_.notify_one();
  }
}

void AsyncExecutor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      --idle_;
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

AsyncExecutor& DefaultExecutor() {
  static AsyncExecutor executor;
  return executor;
}

}  // namespace scfs

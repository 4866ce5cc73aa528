#include "src/base/thread.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <utility>

namespace dbase {

// The thread names itself, first thing in its body: naming another thread
// opens and writes /proc/self/task/<tid>/comm, while naming yourself is one
// prctl. Linux caps names at 15 chars + NUL.
JoiningThread::JoiningThread(std::string name, std::function<void()> fn)
    : name_(std::move(name)),
      thread_([short_name = name_.substr(0, 15), fn = std::move(fn)] {
#ifdef __linux__
        prctl(PR_SET_NAME, short_name.c_str(), 0, 0, 0);
#endif
        fn();
      }) {}

JoiningThread& JoiningThread::operator=(JoiningThread&& other) {
  if (this != &other) {
    Join();
    name_ = std::move(other.name_);
    thread_ = std::move(other.thread_);
  }
  return *this;
}

void JoiningThread::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Latch::CountDown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--count_ <= 0) {
    cv_.notify_all();
  }
}

void Latch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return count_ <= 0; });
}

bool Latch::WaitFor(Micros timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] { return count_ <= 0; });
}

}  // namespace dbase

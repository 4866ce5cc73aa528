// Threading helpers: named joining threads and a countdown latch.
#ifndef SRC_BASE_THREAD_H_
#define SRC_BASE_THREAD_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "src/base/clock.h"

namespace dbase {

// std::thread that joins on destruction and carries a debug name.
class JoiningThread {
 public:
  JoiningThread() = default;
  JoiningThread(std::string name, std::function<void()> fn);
  ~JoiningThread() { Join(); }

  JoiningThread(JoiningThread&&) = default;
  JoiningThread& operator=(JoiningThread&& other);

  JoiningThread(const JoiningThread&) = delete;
  JoiningThread& operator=(const JoiningThread&) = delete;

  void Join();
  bool joinable() const { return thread_.joinable(); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::thread thread_;
};

// One-shot countdown latch (C++20 std::latch exists, but we also want
// CountUp for dynamic task groups).
class Latch {
 public:
  explicit Latch(int count) : count_(count) {}

  void CountDown();
  void Wait();
  // Waits at most timeout_us; returns true if the latch opened.
  bool WaitFor(Micros timeout_us);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

}  // namespace dbase

#endif  // SRC_BASE_THREAD_H_

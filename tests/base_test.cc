// Unit tests for src/base: status/result, clocks, RNG, stats, queues,
// threads, strings, logging.
#include <gtest/gtest.h>
#include <sys/prctl.h>

// GCC 12 emits bogus -Wmaybe-uninitialized reports from std::variant
// internals under -O2 -DNDEBUG (gcc bug 105593); Result<T> wraps a variant,
// and the Result tests below trip them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/queue.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/string_util.h"
#include "src/base/thread.h"

namespace dbase {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFound("x"), NotFound("x"));
  EXPECT_FALSE(NotFound("x") == NotFound("y"));
  EXPECT_FALSE(NotFound("x") == Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  ASSIGN_OR_RETURN(int half, HalveEven(x));
  ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterViaMacro(8).value(), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());
  EXPECT_FALSE(QuarterViaMacro(3).ok());
}

// ------------------------------------------------------------------- Clock

TEST(ClockTest, MonotonicAdvances) {
  MonotonicClock* clock = MonotonicClock::Get();
  const Micros a = clock->NowMicros();
  SpinFor(200);
  const Micros b = clock->NowMicros();
  EXPECT_GE(b - a, 200);
}

TEST(ClockTest, ManualClock) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.Set(10);
  EXPECT_EQ(clock.NowMicros(), 10);
}

TEST(ClockTest, StopwatchMeasures) {
  Stopwatch watch;
  SpinFor(300);
  EXPECT_GE(watch.ElapsedMicros(), 300);
}

TEST(ClockTest, Conversions) {
  EXPECT_EQ(MillisToMicros(1.5), 1500);
  EXPECT_DOUBLE_EQ(MicrosToMillis(2500), 2.5);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(1500000), 1.5);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.BoundedPareto(1.2, 1.0, 100.0);
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// ------------------------------------------------------------------- Stats

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-9);
  EXPECT_NEAR(stats.stddev(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStatsTest, RelativeVariance) {
  OnlineStats stats;
  stats.Add(10.0);
  stats.Add(10.0);
  EXPECT_DOUBLE_EQ(stats.relative_variance_percent(), 0.0);
  stats.Add(40.0);
  EXPECT_GT(stats.relative_variance_percent(), 0.0);
}

TEST(LatencyRecorderTest, Percentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(i);
  }
  EXPECT_DOUBLE_EQ(rec.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(100), 100.0);
  EXPECT_NEAR(rec.Median(), 50.5, 0.01);
  EXPECT_NEAR(rec.Percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(rec.Mean(), 50.5);
}

TEST(LatencyRecorderTest, EmptyReturnsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(50), 0.0);
  EXPECT_EQ(rec.Mean(), 0.0);
  EXPECT_TRUE(rec.empty());
}

TEST(LatencyRecorderTest, RecordAfterQueryResorts) {
  LatencyRecorder rec;
  rec.Record(10);
  EXPECT_DOUBLE_EQ(rec.Median(), 10.0);
  rec.Record(20);
  rec.Record(0);
  EXPECT_DOUBLE_EQ(rec.Median(), 10.0);
  EXPECT_DOUBLE_EQ(rec.Max(), 20.0);
}

TEST(LatencyRecorderTest, Merge) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(TimeSeriesTest, TimeWeightedAverage) {
  TimeSeries series;
  series.Add(0, 10.0);
  series.Add(100, 20.0);
  // 10 for [0,100), 20 for [100,200) → average 15.
  EXPECT_DOUBLE_EQ(series.TimeWeightedAverage(200), 15.0);
  EXPECT_DOUBLE_EQ(series.MaxValue(), 20.0);
}

TEST(TimeSeriesTest, ResampleStep) {
  TimeSeries series;
  series.Add(0, 1.0);
  series.Add(250, 2.0);
  auto points = series.ResampleStep(100);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 1.0);
  EXPECT_DOUBLE_EQ(points[1].value, 1.0);
  EXPECT_DOUBLE_EQ(points[2].value, 1.0);
}

TEST(LogHistogramTest, PercentileBounds) {
  LogHistogram hist;
  for (uint64_t i = 1; i <= 1000; ++i) {
    hist.Add(i);
  }
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_LE(hist.ApproxPercentile(50), 1023u);
  EXPECT_GE(hist.ApproxPercentile(99), 511u);
}

// Engine workers add to one histogram from several threads with no lock:
// every Add lands in the count and in exactly one bucket.
TEST(LogHistogramTest, ConcurrentAddsAreAllCounted) {
  constexpr int kThreads = 4;
  constexpr uint64_t kAdds = 100000;
  LogHistogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        hist.Add(i % 1024);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t bucket_sum = 0;
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    bucket_sum += hist.bucket(i);
  }
  EXPECT_EQ(hist.count(), kThreads * kAdds);
  EXPECT_EQ(bucket_sum, kThreads * kAdds);
}

// ------------------------------------------------------------------- Queue

TEST(MpmcQueueTest, FifoOrder) {
  MpmcQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Push(3);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_EQ(queue.Pop().value(), 3);
}

TEST(MpmcQueueTest, TryPopEmpty) {
  MpmcQueue<int> queue;
  EXPECT_FALSE(queue.TryPop().has_value());
}

// Closes `queue` after `after_us` unless destroyed first. Pop has no
// timeout, so this bounds a test's wait: a lost wake then fails the test's
// time check instead of hanging it.
class CloseAfter {
 public:
  CloseAfter(MpmcQueue<int>* queue, Micros after_us)
      : thread_([this, queue, after_us] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::microseconds(after_us), [this] { return done_; })) {
            queue->Close();
          }
        }) {}
  ~CloseAfter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

constexpr Micros kBound = 2 * kMicrosPerSecond;

TEST(MpmcQueueTest, ClosedGateTakesNothingUntilStopEndsTheWait) {
  // A comm worker at its budget: the closed gate hides ready items, and a
  // push's wake finds nothing to take, until a due reply (the stop
  // predicate) ends the wait.
  MpmcQueue<int> queue;
  ASSERT_TRUE(queue.Push(5));
  std::atomic<bool> reply_due{false};
  std::atomic<int> asked{0};
  std::atomic<bool> returned{false};
  std::optional<int> got = 0;
  CloseAfter bound(&queue, kBound);
  const Stopwatch watch;
  std::thread waiter([&] {
    got = queue.Pop([&] { return reply_due.load(); },
                    [&] {
                      asked.fetch_add(1);
                      return false;
                    });
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(queue.Push(6));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load());
  EXPECT_GE(asked.load(), 2);  // Asked for the first item, and again at the push.
  EXPECT_EQ(queue.Size(), 2u);
  reply_due.store(true);
  queue.Wake();
  waiter.join();
  EXPECT_LT(watch.ElapsedMicros(), kBound / 2);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(queue.Size(), 2u);
  EXPECT_EQ(queue.total_popped(), 0u);
}

TEST(MpmcQueueTest, OpenedGateLetsTheNextPopTake) {
  MpmcQueue<int> queue;
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> open{false};
  std::atomic<int> taken{0};
  const auto gate = [&] {
    if (!open.load()) {
      return false;
    }
    taken.fetch_add(1);  // A true answer is always followed by the take.
    return true;
  };
  const auto never = [] { return false; };
  std::optional<int> got;
  {
    CloseAfter bound(&queue, kBound);
    const Stopwatch watch;
    std::thread waiter([&] { got = queue.Pop(never, gate); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open.store(true);
    queue.Wake();  // Whoever opens the gate wakes the waiters it turned away.
    waiter.join();
    EXPECT_LT(watch.ElapsedMicros(), kBound / 2);
  }
  EXPECT_EQ(got, std::optional<int>(1));
  ASSERT_TRUE(queue.Push(2));
  EXPECT_EQ(queue.Pop(never, gate), std::optional<int>(2));
  EXPECT_EQ(taken.load(), 2);
  EXPECT_EQ(queue.total_popped(), 2u);
}

TEST(MpmcQueueTest, CloseDrainsThenEnds) {
  MpmcQueue<int> queue;
  queue.Push(1);
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(MpmcQueueTest, Counters) {
  MpmcQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  (void)queue.Pop();
  EXPECT_EQ(queue.total_pushed(), 2u);
  EXPECT_EQ(queue.total_popped(), 1u);
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<int> queue;
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = queue.Pop()) {
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<size_t>(p)].join();
  }
  queue.Close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<size_t>(kProducers + c)].join();
  }
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueueTest, UrgentLanePopsFirst) {
  MpmcQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  queue.Push(10, /*urgent=*/true);
  ASSERT_TRUE(queue.PushBatch({11, 12}, /*urgent=*/true));
  EXPECT_EQ(queue.UrgentSize(), 3u);
  EXPECT_EQ(queue.Size(), 5u);
  for (int expected : {10, 11, 12, 1, 2}) {
    EXPECT_EQ(queue.TryPop().value(), expected);
  }
  EXPECT_EQ(queue.UrgentSize(), 0u);
}

TEST(MpmcQueueTest, PushBatchCountsEveryItem) {
  MpmcQueue<int> queue;
  EXPECT_TRUE(queue.PushBatch({1, 2, 3, 4, 5}));
  EXPECT_TRUE(queue.PushBatch({}));
  EXPECT_EQ(queue.Size(), 5u);
  EXPECT_EQ(queue.total_pushed(), 5u);  // Every batched item is one push.
  EXPECT_EQ(queue.TryPop().value(), 1);
  EXPECT_EQ(queue.total_popped(), 1u);
}

TEST(MpmcQueueTest, PushBatchWakesAWaiterPerItem) {
  // Three workers parked without a timeout each take one item of a
  // three-item batch: the batch's one crossing wakes all of them.
  constexpr int kWaiters = 3;
  for (int attempt = 0; attempt < 10; ++attempt) {
    MpmcQueue<int> queue;
    std::atomic<int> started{0};
    std::atomic<int> got{0};
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&] {
        started.fetch_add(1);
        if (queue.Pop().has_value()) {
          got.fetch_add(1);
          while (!queue.closed()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));  // Hold the worker.
          }
        }
      });
    }
    while (started.load() < kWaiters) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(queue.PushBatch({1, 2, 3}));
    const Stopwatch watch;
    while (got.load() < kWaiters && watch.ElapsedMicros() < kMicrosPerSecond) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(got.load(), kWaiters) << "attempt " << attempt;
    queue.Close();
    for (auto& waiter : waiters) {
      waiter.join();
    }
  }
}

TEST(MpmcQueueTest, WakeEndsAWaitWhoseStopHoldsWithoutTakingWork) {
  // A worker whose role shifted must leave its old role's queue at once
  // and take nothing from it.
  MpmcQueue<int> queue;
  std::atomic<bool> shifted{false};
  const auto stop = [&] { return shifted.load(); };
  std::optional<int> got;
  {
    CloseAfter bound(&queue, kBound);
    const Stopwatch watch;
    std::thread waiter([&] { got = queue.Pop(stop); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    shifted.store(true);
    queue.Wake();
    waiter.join();
    EXPECT_LT(watch.ElapsedMicros(), kBound / 2);
  }
  EXPECT_FALSE(got.has_value());

  queue.Push(7);
  EXPECT_FALSE(queue.Pop(stop).has_value());  // Returns at once, takes nothing.
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(MpmcQueueTest, WakeBeforeTheWaitIsNotLost) {
  // The shift can land between the worker reading its role and starting
  // to wait: the wait must still end at once. Race the two many times.
  for (int attempt = 0; attempt < 200; ++attempt) {
    MpmcQueue<int> queue;
    std::atomic<bool> shifted{false};
    std::optional<int> got = 0;
    CloseAfter bound(&queue, kBound);
    const Stopwatch watch;
    std::thread waiter([&] { got = queue.Pop([&] { return shifted.load(); }); });
    if (attempt % 2 == 0) {
      std::this_thread::yield();
    }
    shifted.store(true);
    queue.Wake();
    waiter.join();
    ASSERT_LT(watch.ElapsedMicros(), kBound / 2) << "attempt " << attempt;
    EXPECT_FALSE(got.has_value());
  }
}

TEST(MpmcQueueTest, StoppedWaitPassesAPushWakeOn) {
  // A push's one wake may land on a waiter whose stop holds but that has
  // not been woken to see it; the item must still reach a live waiter.
  for (int attempt = 0; attempt < 10; ++attempt) {
    MpmcQueue<int> queue;
    std::atomic<bool> shifted{false};
    std::optional<int> live;
    CloseAfter bound(&queue, kBound);  // Closed, `staying` would drain 9 late.
    std::thread leaving([&] { (void)queue.Pop([&] { return shifted.load(); }); });
    std::thread staying([&] { live = queue.Pop(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    shifted.store(true);  // No Wake(): the push below is the only wake.
    const Stopwatch watch;
    queue.Push(9);
    staying.join();
    EXPECT_LT(watch.ElapsedMicros(), kBound / 2) << "attempt " << attempt;
    EXPECT_EQ(live, std::optional<int>(9)) << "attempt " << attempt;
    queue.Wake();
    leaving.join();
  }
}

TEST(MpmcQueueTest, CloseWakesWaitersAndDrains) {
  MpmcQueue<int> queue;
  queue.Push(1, /*urgent=*/true);
  queue.Push(2);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.PushBatch({3, 4}));
  EXPECT_EQ(queue.total_pushed(), 2u);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());

  MpmcQueue<int> empty;
  std::optional<int> got = 0;
  std::thread waiter([&] { got = empty.Pop(); });  // No timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  empty.Close();
  waiter.join();
  EXPECT_FALSE(got.has_value());
}

TEST(MpmcQueueTest, CounterCoherenceUnderConcurrency) {
  // Producers push while consumers pop; pushed/popped (the PI
  // controller's inputs) must agree with the ground truth even mid-flight:
  // popped never exceeds pushed.
  MpmcQueue<int> queue;
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 3;
  std::vector<std::thread> threads;
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(i, /*urgent=*/i % 3 == 0));
      }
    });
  }
  threads.emplace_back([&queue, &done] {
    while (!done.load()) {
      const uint64_t popped = queue.total_popped();
      const uint64_t pushed = queue.total_pushed();
      EXPECT_LE(popped, pushed);
      std::this_thread::yield();
    }
  });
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&queue, &consumed, &done] {
      while (consumed.load() < kProducers * kPerProducer && !done.load()) {
        if (queue.TryPop().has_value()) {
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<size_t>(p)].join();
  }
  while (consumed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  done.store(true);
  for (size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(queue.total_pushed(), static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(queue.total_popped(), static_cast<uint64_t>(kProducers * kPerProducer));
}

// ------------------------------------------------------------------ Thread

TEST(ThreadTest, LatchBlocksUntilZero) {
  Latch latch(2);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  EXPECT_FALSE(released.load());
  latch.CountDown();
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(ThreadTest, LatchWaitForTimesOut) {
  Latch latch(1);
  EXPECT_FALSE(latch.WaitFor(1000));
  latch.CountDown();
  EXPECT_TRUE(latch.WaitFor(1000));
}

// The thread names itself before the body runs, so the body already sees
// its own (truncated) name.
TEST(ThreadTest, JoiningThreadNameIsVisibleInsideTheBody) {
  char seen[16] = {};
  {
    JoiningThread thread("a-rather-long-thread-name",
                         [&seen] { prctl(PR_GET_NAME, seen, 0, 0, 0); });
  }
  EXPECT_STREQ(seen, "a-rather-long-t");
}

// ------------------------------------------------------------------ String

TEST(StringTest, SplitChar) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringTest, SplitStringSeparator) {
  auto parts = SplitString("a\r\nb\r\n", "\r\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringTest, CaseConversion) {
  EXPECT_EQ(ToLowerAscii("AbC-9"), "abc-9");
  EXPECT_EQ(ToUpperAscii("abC-9"), "ABC-9");
  EXPECT_TRUE(EqualsIgnoreCase("Content-Length", "content-length"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // Overflow.
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
}

TEST(StringTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
}

TEST(StringTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(ParseDouble("2.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%05.1f", 2.25), "002.2");
}

TEST(StringTest, FormatHelpers) {
  EXPECT_EQ(FormatMicros(500), "500 us");
  EXPECT_EQ(FormatMicros(1500), "1.50 ms");
  EXPECT_EQ(FormatMicros(2500000), "2.500 s");
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024.0 * 1024.0), "3.00 MiB");
}

TEST(StringTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

// --------------------------------------------------------------------- Log

TEST(LogTest, FormatsStringsAndIntegersIntoOneLine) {
  testing::internal::CaptureStderr();
  const int line = __LINE__ + 1;
  DLOG(Error) << "a" << std::string("b") << std::string_view("c") << 42 << -7;
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            StrFormat("[E base_test.cc:%d] abc42-7\n", line));
}

TEST(LogTest, SuppressedLevelDoesNotEvaluateItsOperands) {
  ASSERT_EQ(GetLogLevel(), LogLevel::kWarning);
  int touched = 0;
  auto touch = [&touched] {
    ++touched;
    return std::string("touched");
  };
  testing::internal::CaptureStderr();
  DLOG(Verbose) << touch();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(touched, 0);
}

}  // namespace
}  // namespace dbase

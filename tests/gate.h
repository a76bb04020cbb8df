// Test helper shared by the queue tests (overload_test, server_test).

#ifndef RABITQ_TESTS_GATE_H_
#define RABITQ_TESTS_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace rabitq {

// A filter predicate that blocks its callers until Open(): submitted with
// one "blocker" query, it wedges an engine's scheduler mid-batch so a test
// can fill the queue behind it. Thread-safe (the predicate contract).
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  static bool BlockUntilOpen(void* context, std::uint32_t /*id*/) {
    Gate* gate = static_cast<Gate*>(context);
    gate->entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(gate->m);
    gate->cv.wait(lock, [gate] { return gate->open; });
    return true;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }

  void AwaitEntered() {
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
};

}  // namespace rabitq

#endif  // RABITQ_TESTS_GATE_H_

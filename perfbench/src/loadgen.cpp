#include "loadgen.hpp"

#include <sys/prctl.h>

#include <thread>

namespace perfbench {

namespace {

std::int64_t since(appstore::chaos::Clock& clock,
                   std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock.now() - origin).count();
}

void run_client(std::size_t client, const std::vector<std::int64_t>& due,
                const Responder& respond, appstore::chaos::Clock& clock,
                std::chrono::steady_clock::time_point origin, std::vector<Sample>& out) {
  out.resize(due.size());
  // Wake as close to each due time as the kernel allows (the default 50 us
  // timer slack would otherwise show up as lateness on every op).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (std::size_t i = 0; i < due.size(); ++i) {
    Sample& sample = out[i];
    const std::int64_t wait = due[i] - since(clock, origin);
    if (wait > 0) clock.sleep_for(std::chrono::nanoseconds(wait));
    sample.start_ns = since(clock, origin);
    sample.due_ns = due[i];
    try {
      sample.ok = respond(client, i);
    } catch (...) {
      sample.ok = false;
    }
    sample.end_ns = since(clock, origin);
  }
}

}  // namespace

std::vector<std::vector<Sample>> drive(const std::vector<std::vector<std::int64_t>>& due_ns,
                                       const Responder& respond, appstore::chaos::Clock* clock) {
  appstore::chaos::Clock& time = clock != nullptr ? *clock : appstore::chaos::system_clock();
  std::vector<std::vector<Sample>> samples(due_ns.size());
  const auto origin = time.now();
  if (due_ns.size() == 1) {
    run_client(0, due_ns[0], respond, time, origin, samples[0]);
    return samples;
  }
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    threads.reserve(due_ns.size());
    for (std::size_t c = 0; c < due_ns.size(); ++c) {
      threads.emplace_back(run_client, c, std::cref(due_ns[c]), std::cref(respond),
                           std::ref(time), origin, std::ref(samples[c]));
    }
  }
  return samples;
}

}  // namespace perfbench

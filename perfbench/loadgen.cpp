#include "loadgen.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Waits until `due_ns`: sleeps until shortly before it, then spins. On
// a shared VM a sleeping thread can wake a millisecond or more late once
// the host has descheduled its idle vCPU; the spin keeps the generator
// on schedule at a cost of at most kSpinNs of CPU per request.
void wait_until_ns(std::uint64_t due_ns) {
  constexpr std::uint64_t kSpinNs = 500'000;
  if (due_ns > kSpinNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns - kSpinNs)));
  }
  while (rs::obs::now_ns() < due_ns) {
  }
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Order-dependent FNV-1a over every layer's targets, offsets and
// neighbors: equal digests mean byte-identical answers.
std::uint64_t sample_digest(const rs::core::MiniBatchSample& sample) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& layer : sample.layers) {
    mix(layer.targets.size());
    for (const auto v : layer.targets) mix(v);
    for (const auto v : layer.sample_begin) mix(v);
    for (const auto v : layer.neighbors) mix(v);
  }
  return h | 1;  // never 0, which marks an unseen entry
}

}  // namespace

ResponseLog::ResponseLog(std::size_t pool_size, std::uint64_t seed)
    : in_subset_(pool_size),
      digests_(new std::atomic<std::uint64_t>[pool_size]),
      stored_(new std::atomic<bool>[pool_size]),
      kept_(pool_size) {
  rs::Xoshiro256 rng(seed ^ 0x5eedc0ffeeULL);
  for (std::size_t i = 0; i < pool_size; ++i) {
    in_subset_[i] = rng.uniform(8) == 0;  // a seeded 1-in-8 subset
    digests_[i].store(0, std::memory_order_relaxed);
    stored_[i].store(false, std::memory_order_relaxed);
  }
}

bool ResponseLog::record(std::size_t pool_index,
                         const rs::core::MiniBatchSample& sample) {
  const std::uint64_t digest = sample_digest(sample);
  std::uint64_t expected = 0;
  if (!digests_[pool_index].compare_exchange_strong(
          expected, digest, std::memory_order_acq_rel)) {
    return expected == digest;
  }
  if (in_subset_[pool_index]) {
    // Only the first recorder of an entry reaches here.
    kept_[pool_index] = sample;
    stored_[pool_index].store(true, std::memory_order_release);
  }
  return true;
}

std::vector<std::size_t> ResponseLog::kept() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < in_subset_.size(); ++i) {
    if (stored_[i].load(std::memory_order_acquire)) out.push_back(i);
  }
  return out;
}

PhaseResult run_closed(std::size_t lanes, double seconds,
                       std::uint64_t max_requests, const CallFn& call) {
  struct Lane {
    std::vector<double> rtt_ms;
    std::uint64_t failed = 0;
    std::uint64_t neighbors = 0;
  };
  std::vector<Lane> results(lanes);
  std::atomic<std::uint64_t> next{0};
  const std::uint64_t start = rs::obs::now_ns();
  const auto deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);

  auto lane_loop = [&](std::size_t lane) {
    Lane& out = results[lane];
    for (;;) {
      if (rs::obs::now_ns() >= deadline) break;
      const std::uint64_t i = next.fetch_add(1);
      if (max_requests != 0 && i >= max_requests) break;
      RS_OBS_SPAN("bench", "request");
      const std::uint64_t t0 = rs::obs::now_ns();
      std::uint64_t neighbors = 0;
      const bool ok = call(lane, i, &neighbors);
      const std::uint64_t t1 = rs::obs::now_ns();
      if (ok) {
        out.rtt_ms.push_back(ns_to_ms(t1 - t0));
        out.neighbors += neighbors;
      } else {
        out.rtt_ms.push_back(kInf);
        ++out.failed;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back(lane_loop, lane);
  }
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  result.elapsed_s = static_cast<double>(rs::obs::now_ns() - start) / 1e9;
  for (const Lane& lane : results) {
    result.attempted += lane.rtt_ms.size();
    result.failed += lane.failed;
    result.neighbors += lane.neighbors;
    result.rtt_ms.insert(result.rtt_ms.end(), lane.rtt_ms.begin(),
                         lane.rtt_ms.end());
  }
  return result;
}

std::vector<std::uint64_t> poisson_arrivals(double rate, double seconds,
                                            std::uint64_t seed) {
  rs::Xoshiro256 rng(seed ^ 0xa77a1a1ULL);
  std::vector<std::uint64_t> arrivals;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u keeps log() away from 0.
    t += -std::log(1.0 - rng.uniform_double()) / rate;
    if (t >= seconds) break;
    arrivals.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return arrivals;
}

PhaseResult run_open_inprocess(std::size_t lanes,
                               const std::vector<std::uint64_t>& arrivals,
                               const CallFn& call) {
  const std::size_t n = arrivals.size();
  std::vector<double> latency(n, kInf), rtt(n, kInf), late(n, 0.0);
  std::vector<std::uint64_t> neighbors(n, 0);
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> next{0};
  // A short lead so every lane is running before the first arrival.
  const std::uint64_t start = rs::obs::now_ns() + 2'000'000;

  auto lane_loop = [&](std::size_t lane) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) break;
      const std::uint64_t due = start + arrivals[i];
      std::uint64_t t0 = rs::obs::now_ns();
      if (t0 < due) {
        wait_until_ns(due);
        t0 = rs::obs::now_ns();
        late[i] = ns_to_ms(t0 - due);
      }
      ok[i] = call(lane, i, &neighbors[i]) ? 1 : 0;
      const std::uint64_t t1 = rs::obs::now_ns();
      if (ok[i]) {
        latency[i] = ns_to_ms(t1 - due);
        rtt[i] = ns_to_ms(t1 - t0);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back(lane_loop, lane);
  }
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  result.elapsed_s = static_cast<double>(rs::obs::now_ns() - start) / 1e9;
  result.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok[i]) ++result.failed;
    result.neighbors += neighbors[i];
  }
  result.latency_ms = std::move(latency);
  result.rtt_ms = std::move(rtt);
  result.late_ms = std::move(late);
  return result;
}

PhaseResult run_open_network(std::vector<rs::net::Client>& clients,
                             const std::vector<std::uint64_t>& arrivals,
                             const MakeFn& make, const CheckFn& check) {
  const std::size_t n = arrivals.size();
  const std::size_t conns = clients.size();
  std::vector<double> latency(n, kInf), rtt(n, kInf), late(n, 0.0);
  std::unique_ptr<std::atomic<std::uint64_t>[]> sent_ns(
      new std::atomic<std::uint64_t>[n]);
  for (std::size_t i = 0; i < n; ++i) sent_ns[i].store(0);
  std::atomic<std::uint64_t> neighbors{0};
  std::atomic<std::uint64_t> bad_answers{0};

  // Per-connection progress shared by its sender and receiver.
  struct Conn {
    std::atomic<std::uint64_t> sent{0};      // successfully written
    std::atomic<bool> sender_done{false};
    std::atomic<bool> dead{false};           // receiver hit an error
  };
  std::unique_ptr<Conn[]> state(new Conn[conns]);
  const std::uint64_t start = rs::obs::now_ns() + 2'000'000;

  // The sender only writes (Client::send_request) and the receiver only
  // reads (Client::read_sample_response); the two touch disjoint parts
  // of the connection. The server never closes these connections while
  // a phase runs, so the receive path's close-on-EOF (which the sender
  // would race) only happens once the run has already failed.
  auto sender = [&](std::size_t c) {
    Conn& conn = state[c];
    for (std::size_t i = c; i < n; i += conns) {
      if (conn.dead.load()) break;
      const rs::net::wire::SampleRequest request = make(i);
      const std::uint64_t due = start + arrivals[i];
      wait_until_ns(due);
      const std::uint64_t t = rs::obs::now_ns();
      late[i] = ns_to_ms(t > due ? t - due : 0);
      sent_ns[i].store(t, std::memory_order_release);
      if (!clients[c].send_request(request).is_ok()) break;
      conn.sent.fetch_add(1, std::memory_order_release);
    }
    conn.sender_done.store(true, std::memory_order_release);
  };
  auto receiver = [&](std::size_t c) {
    Conn& conn = state[c];
    std::uint64_t received = 0;
    for (;;) {
      const bool done = conn.sender_done.load(std::memory_order_acquire);
      if (received == conn.sent.load(std::memory_order_acquire)) {
        if (done) break;
        // Nothing outstanding: the next answer comes at least one
        // service time after the next send, far longer than this nap.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      auto response = clients[c].read_sample_response();
      const std::uint64_t t = rs::obs::now_ns();
      if (!response.is_ok()) {
        conn.dead.store(true);
        break;
      }
      ++received;
      const std::uint64_t id = response.value().request_id;
      if (id == 0 || id > n || (id - 1) % conns != c) {
        bad_answers.fetch_add(1);
        continue;
      }
      const std::size_t i = id - 1;
      std::uint64_t count = 0;
      if (response.value().status != rs::net::wire::WireStatus::kOk ||
          !check(i, response.value(), &count)) {
        continue;  // latency stays +inf: a failure
      }
      latency[i] = ns_to_ms(t - (start + arrivals[i]));
      rtt[i] = ns_to_ms(t - sent_ns[i].load(std::memory_order_acquire));
      neighbors.fetch_add(count);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back(sender, c);
    threads.emplace_back(receiver, c);
  }
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  result.elapsed_s = static_cast<double>(rs::obs::now_ns() - start) / 1e9;
  result.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isinf(latency[i])) ++result.failed;
  }
  result.failed += bad_answers.load();
  result.neighbors = neighbors.load();
  result.latency_ms = std::move(latency);
  result.rtt_ms = std::move(rtt);
  result.late_ms = std::move(late);
  return result;
}

}  // namespace perfbench

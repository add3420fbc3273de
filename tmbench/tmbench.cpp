// tmbench: a fixed-work, interleaved benchmark of the five durable TMs
// (NV-HALT, NV-HALT-CL, NV-HALT-SP, Trinity, SPHT) on the library's
// transactional hashmap and (a,b)-tree.
//
// Every run builds all five systems through the public TmRunner factory,
// prefills each structure to half its key range, then repeats rounds until
// --seconds have passed. A round is a fixed number of seeded operations,
// cut into chunks that the workers claim from a shared counter, run on each
// system in turn (the order rotates every round). After the operations of a
// round every system is crashed quiescently (a seeded adversary writes back
// unfenced lines), recovered with recover_data(), and checked against the
// benchmark's own model. Round 0 is a warm-up and is left out of every
// metric. See README.md for the workloads, metrics and checks.
//
// Usage: tmbench --workload NAME --seed N --seconds S --trace 0|1
//                [--rounds R] [--revision REV] [--nonpersistent-hw]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc/segment.hpp"
#include "api/tm_factory.hpp"
#include "baselines/spht/spht_tm.hpp"
#include "locks/contention.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"

namespace {

using namespace nvhalt;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---- The benchmark's own seeded generators --------------------------------
// Inputs never come from the library (src/workload, src/util), so a change
// to the program cannot change what the benchmark feeds it.

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t s = seed ^ (a * 0xD1B54A32D192ED03ULL) ^ (b * 0x8CB92BA72F3D8DD7ULL);
  return splitmix(s);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return splitmix(s_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// The value every key is stored with; lookups are checked against it.
word_t value_of(word_t key) { return (key * 0x9E3779B97F4A7C15ULL) ^ 0x5DEECE66DULL; }

/// Keys 1..n in a seeded random order.
std::vector<word_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<word_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i + 1;
  Rng r(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[r.below(i)]);
  return p;
}

/// Uniform keys, or Zipf(theta) ranks mapped onto keys by a seeded
/// permutation so the hot keys are scattered over the key space.
class KeyGen {
 public:
  KeyGen(std::size_t keys, double theta, std::uint64_t seed) : keys_(keys) {
    if (theta <= 0) return;
    rank_to_key_ = permutation(keys, derive_seed(seed, 0x21F));
    cdf_.resize(keys);
    double sum = 0;
    for (std::size_t i = 0; i < keys; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  word_t next(Rng& r) const {
    if (cdf_.empty()) return r.below(keys_) + 1;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.unit());
    const std::size_t rank = std::min<std::size_t>(it - cdf_.begin(), keys_ - 1);
    return rank_to_key_[rank];
  }

 private:
  std::size_t keys_;
  std::vector<double> cdf_;
  std::vector<word_t> rank_to_key_;
};

// ---- Fixed-size latency histogram ------------------------------------------
// Log-linear buckets (exact below 128 ns, then 64 per octave), so the
// benchmark's memory does not grow with the run. Quantiles interpolate
// within the bucket that holds the rank.
class LatencyHist {
 public:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = 128 + 40 * kSub;

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  void add(const LatencyHist& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  void reset() { *this = LatencyHist{}; }

  /// Quantile q in [0,1], in nanoseconds.
  double quantile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t before = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c != 0 && static_cast<double>(before + c) > rank) {
        const double frac = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        return lower(i) + frac * width(i);
      }
      before += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static int index(std::uint64_t v) {
    if (v < 128) return static_cast<int>(v);
    const int e = std::bit_width(v) - 7;  // v >> e in [64, 128)
    const int i = 128 + (e - 1) * kSub + static_cast<int>((v >> e) - 64);
    return std::min(i, kBuckets - 1);
  }
  static double lower(int i) {
    if (i < 128) return i;
    const int e = (i - 128) / kSub + 1;
    return std::ldexp(static_cast<double>(64 + (i - 128) % kSub), e);
  }
  static double width(int i) { return i < 128 ? 1.0 : std::ldexp(1.0, (i - 128) / kSub + 1); }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// ---- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool tree;            // TmAbTree, else TmHashMap
  int lookup_pct;       // the rest is inserts and removes, 50/50
  double zipf_theta;    // 0 = uniform keys
  std::size_t keys;     // key range 1..keys
  std::size_t capacity_words;
  int workers;
  std::size_t round_ops;
  std::size_t chunk_ops;
  int max_rounds;  // a run ends after this many rounds even if time is left
  std::size_t spht_log_words;  // SPHT redo-log words per thread
};

// Pool bytes are ~72 per capacity word (volatile word + staged and durable
// 32-byte records), so 2^16 words is a 4.5 MiB pool (inside one 8 MiB L2)
// and 2^19 words a 36 MiB one (four and a half L2s).
//
// SPHT's redo logs are sized to hold a whole round's records (a record is
// 2 + 2n words for n written words) even if one worker ran every update of
// the round, because two threads that find their logs full at the same
// time deadlock in SphtTm::replay_full_logs. Each recovery replays and
// truncates the logs, so they never fill on the multi-worker workloads. The
// serial workload's single worker cannot deadlock; its log holds a typical
// round (about 30 000 updates of about 24 log words).
const Workload kWorkloads[] = {
    {"hashmap-update-skewed", false, 0, 0.99, 1 << 13, 1 << 16, 3, 48000, 400, 1000, 1 << 19},
    {"abtree-read-mostly", true, 99, 0.0, 1 << 17, 1 << 19, 3, 600000, 1000, 32, 1 << 19},
    {"abtree-mixed-serial", true, 50, 0.0, 1 << 15, 1 << 18, 1, 60000, 1000, 64, 1 << 20},
};

// Simulated NVM latency model, as in the library's benchmark grid.
constexpr std::uint64_t kFlushNs = 150;
constexpr std::uint64_t kFenceNs = 80;
constexpr std::uint64_t kNvmStoreNs = 50;

struct SystemSpec {
  const char* name;
  TmKind kind;
};
const SystemSpec kSystems[] = {
    {"nvhalt", TmKind::kNvHalt},   {"nvhalt-cl", TmKind::kNvHaltCl},
    {"nvhalt-sp", TmKind::kNvHaltSp}, {"trinity", TmKind::kTrinity},
    {"spht", TmKind::kSpht},
};

// ---- Per-layer counters, read from public getters at round boundaries -----

enum Counter : int {
  kCommits,
  kHwCommits,
  kSwCommits,
  kRoCommits,
  kSwAborts,
  kRoAborts,
  kFallbacks,
  kHtmBegins,
  kHtmConflicts,
  kHtmCapacity,
  kStalls,
  kStallTicks,
  kCasFailures,
  kFlushes,
  kFences,
  kFlushDedup,
  kFencesCombined,
  kWsCommits,
  kWsWords,
  kAllocs,
  kFrees,
  kGlobalLockNs,
  kNumCounters
};
using Counters = std::array<std::uint64_t, kNumCounters>;

Counters read_counters(TmRunner& r) {
  Counters c{};
  TransactionalMemory& tm = r.tm();
  const TmStats s = tm.stats();
  c[kCommits] = s.commits;
  c[kHwCommits] = s.hw_commits;
  c[kSwCommits] = s.sw_commits;
  c[kRoCommits] = s.ro_commits;
  c[kSwAborts] = s.sw_aborts;
  c[kRoAborts] = s.ro_aborts;
  c[kFallbacks] = s.fallbacks;
  const htm::HtmStats h = r.htm().aggregate_stats();
  c[kHtmBegins] = h.begins;
  c[kHtmConflicts] = h.aborts[static_cast<std::size_t>(htm::AbortCause::kConflict)];
  c[kHtmCapacity] = h.aborts[static_cast<std::size_t>(htm::AbortCause::kCapacity)];
  if (const ContentionTable* ct = tm.contention()) {
    const ContentionTotals t = ct->totals();
    c[kStalls] = t.stalls;
    c[kStallTicks] = t.stall_ticks;
    c[kCasFailures] = t.cas_failures;
  }
  PmemPool& p = r.pool();
  c[kFlushes] = p.flush_count();
  c[kFences] = p.fence_count();
  c[kFlushDedup] = p.flush_dedup_count();
  c[kFencesCombined] = p.fence_combined_count();
  const telemetry::TmTelemetry tel = tm.telemetry();
  c[kWsCommits] = tel.tx.write_set_size.count();
  c[kWsWords] = tel.tx.write_set_size.sum();
  const AllocStats a = r.alloc().stats();
  c[kAllocs] = a.allocs;
  c[kFrees] = a.frees;
  if (auto* spht = dynamic_cast<SphtTm*>(&tm)) c[kGlobalLockNs] = spht->global_lock_held_ns();
  return c;
}

// ---- One system under test ----------------------------------------------------

enum OpKind : std::uint8_t { kLookup = 0, kInsert = 1, kRemove = 2 };
struct Op {
  word_t key;
  OpKind kind;
};

struct System {
  std::string name;
  bool twin = false;  // same system with the NVM latency model at zero
  std::unique_ptr<TmRunner> runner;
  std::optional<TmHashMap> map;
  std::optional<TmAbTree> tree;
  std::vector<std::uint8_t> present;  // the benchmark's model, indexed by key

  // Measured rounds only (the warm-up round is excluded). Timings are kept
  // as one sample per round and reported as the mean over rounds: the host
  // slows single CPUs for seconds at a time, so per-round values are
  // bimodal, and a mean moves less than a median when the share of slow
  // rounds varies from run to run.
  std::uint64_t ops = 0;
  std::uint64_t round_ns = 0;
  Counters sum{};
  std::uint64_t limbo_sum = 0;
  std::vector<double> tx_per_s, ns_per_op, p50_us, p99_us, lookup_p50_us, update_p50_us,
      update_p99_us, recover_ms;
  std::vector<std::array<LatencyHist, 2>> hist;  // this round, per worker: lookup, update

  /// Folds this round's latency histograms into per-round samples.
  void close_round(bool measured) {
    LatencyHist lk, up;
    for (auto& wh : hist) {
      lk.add(wh[0]);
      up.add(wh[1]);
      wh[0].reset();
      wh[1].reset();
    }
    if (!measured) return;
    LatencyHist all = lk;
    all.add(up);
    p50_us.push_back(all.quantile(0.50) * 1e-3);
    p99_us.push_back(all.quantile(0.99) * 1e-3);
    lookup_p50_us.push_back(lk.quantile(0.50) * 1e-3);
    update_p50_us.push_back(up.quantile(0.50) * 1e-3);
    update_p99_us.push_back(up.quantile(0.99) * 1e-3);
  }

  bool apply(int tid, const Op& op, word_t* val) {
    switch (op.kind) {
      case kLookup:
        return map ? map->contains(tid, op.key, val) : tree->contains(tid, op.key, val);
      case kInsert:
        return map ? map->insert(tid, op.key, value_of(op.key))
                   : tree->insert(tid, op.key, value_of(op.key));
      case kRemove:
        return map ? map->remove(tid, op.key) : tree->remove(tid, op.key);
    }
    return false;
  }
};

RunnerConfig make_config(const Workload& w, TmKind kind, bool zero_latency, bool nonpersistent_hw) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = w.capacity_words;
  // SPHT's bump allocator never frees, and each recovery abandons every
  // thread's current chunk (one whole segment). Its pool gets one segment
  // per worker per round on top, so a run's crashes cannot exhaust it.
  if (kind == TmKind::kSpht && w.tree)
    cfg.pmem.capacity_words += static_cast<std::size_t>(w.max_rounds) * w.workers * kSegmentWords;
  cfg.pmem.raw_words =
      TxAllocator::metadata_words(cfg.pmem.capacity_words) + (std::size_t{1} << 16);
  if (kind == TmKind::kSpht) {
    // Workers use tids 0..workers-1; set-up and checks run as tid 0.
    cfg.spht.max_threads = w.workers;
    cfg.spht.log_words_per_thread = w.spht_log_words;
    cfg.pmem.raw_words +=
        static_cast<std::size_t>(w.workers) * (w.spht_log_words + 2 * kWordsPerLine);
  }
  if (!zero_latency) {
    cfg.pmem.flush_latency_ns = kFlushNs;
    cfg.pmem.fence_latency_ns = kFenceNs;
    cfg.pmem.nvm_store_latency_ns = kNvmStoreNs;
  }
  cfg.nvhalt.persist_hw_txns = !nonpersistent_hw;
  return cfg;
}

void build_structure(System& s, const Workload& w) {
  TransactionalMemory& tm = s.runner->tm();
  if (w.tree) {
    s.tree.emplace(tm);
  } else {
    std::size_t buckets = 1;
    while (buckets < w.keys) buckets <<= 1;
    s.map.emplace(tm, buckets);
  }
}

void reattach(System& s) {
  TransactionalMemory& tm = s.runner->tm();
  if (s.tree) {
    s.tree.reset();
    s.tree.emplace(TmAbTree::attach(tm));
  } else {
    s.map.reset();
    s.map.emplace(TmHashMap::attach(tm));
  }
}

// ---- Result bookkeeping -----------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // operations that threw or that a check disagreed with
  bool whole_ok = true;      // whole-structure checks (shape, totals, commit counts)
  bool stop = false;         // a check failed: finish this round, then stop
  std::vector<std::string> notes;

  void fail_whole(const std::string& why) {
    whole_ok = false;
    stop = true;
    if (notes.size() < 20) notes.push_back(why);
  }
  void fail_ops(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    stop = true;
    if (notes.size() < 20) notes.push_back(why);
  }
};

struct RoundBuf {
  std::vector<Op> ops;
  std::vector<std::uint8_t> ret;  // 0/1, or kThrew
  std::vector<word_t> val;
  std::vector<std::int32_t> delta;  // per key: successful inserts - removes
  std::vector<word_t> touched;      // keys with a successful update
};
constexpr std::uint8_t kThrew = 2;

/// The first exception an operation threw, reported with the result.
std::atomic<bool> g_exception_noted{false};
std::string g_first_exception;
void note_exception(const char* what) {
  if (!g_exception_noted.exchange(true)) g_first_exception = what;
}

void generate_round(RoundBuf& rb, const Workload& w, const KeyGen& kg, std::uint64_t seed,
                    std::uint64_t round) {
  rb.ops.resize(w.round_ops);
  rb.ret.assign(w.round_ops, 0);
  rb.val.assign(w.round_ops, 0);
  const std::size_t chunks = (w.round_ops + w.chunk_ops - 1) / w.chunk_ops;
  for (std::size_t c = 0; c < chunks; ++c) {
    Rng r(derive_seed(seed, round + 1, c + 1));
    const std::size_t end = std::min(w.round_ops, (c + 1) * w.chunk_ops);
    for (std::size_t i = c * w.chunk_ops; i < end; ++i) {
      Op& op = rb.ops[i];
      op.key = kg.next(r);
      const std::uint64_t die = r.below(200);
      op.kind = die < static_cast<std::uint64_t>(2 * w.lookup_pct) ? kLookup
                : (die & 1)                                        ? kInsert
                                                                   : kRemove;
    }
  }
}

/// Runs the round's operations on one system with w.workers threads that
/// claim chunks from a shared counter. Returns the round time: first start
/// to last finish.
std::uint64_t run_ops(System& s, const Workload& w, RoundBuf& rb) {
  const std::size_t chunks = (w.round_ops + w.chunk_ops - 1) / w.chunk_ops;
  std::atomic<std::size_t> next{0};
  std::vector<Clock::time_point> start(w.workers), end(w.workers);
  auto body = [&](int tid) {
    auto& h = s.hist[tid];
    Clock::time_point t = Clock::now();
    start[tid] = t;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const std::size_t stop = std::min(w.round_ops, (c + 1) * w.chunk_ops);
      for (std::size_t i = c * w.chunk_ops; i < stop; ++i) {
        const Op& op = rb.ops[i];
        word_t v = 0;
        std::uint8_t r;
        try {
          r = s.apply(tid, op, &v) ? 1 : 0;
        } catch (const std::exception& e) {
          r = kThrew;
          note_exception(e.what());
        } catch (...) {
          r = kThrew;
          note_exception("non-standard exception");
        }
        const Clock::time_point t2 = Clock::now();
        h[op.kind == kLookup ? 0 : 1].record(ns_between(t, t2));
        t = t2;
        rb.ret[i] = r;
        rb.val[i] = v;
      }
    }
    end[tid] = t;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < w.workers; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
  return ns_between(*std::min_element(start.begin(), start.end()),
                    *std::max_element(end.begin(), end.end()));
}

/// Checks the round's return values against the benchmark's model and
/// advances the model. One worker: every result must match a sequential
/// model of the set. Several workers: per-key tallies (successful inserts
/// and removes of a key alternate in any linearizable order).
void check_results(System& s, const Workload& w, RoundBuf& rb, Outcome& out) {
  std::uint64_t threw = 0, bad_value = 0, bad_return = 0, bad_tally = 0;
  rb.touched.clear();
  for (std::size_t i = 0; i < rb.ops.size(); ++i) {
    const Op& op = rb.ops[i];
    const std::uint8_t r = rb.ret[i];
    if (r == kThrew) {
      ++threw;
      continue;
    }
    if (op.kind == kLookup) {
      if (r && rb.val[i] != value_of(op.key)) ++bad_value;
      if (w.workers == 1 && r != s.present[op.key]) ++bad_return;
      continue;
    }
    if (w.workers == 1) {
      const std::uint8_t expect = op.kind == kInsert ? !s.present[op.key] : s.present[op.key];
      if (r != expect) ++bad_return;
      s.present[op.key] = op.kind == kInsert ? 1 : 0;
      if (r) rb.touched.push_back(op.key);
    } else if (r) {
      if (rb.delta[op.key] == 0) rb.touched.push_back(op.key);
      rb.delta[op.key] += op.kind == kInsert ? 1 : -1;
    }
  }
  if (w.workers > 1) {
    for (word_t k : rb.touched) {
      const std::int32_t now = s.present[k] + rb.delta[k];
      if (now != 0 && now != 1) {
        ++bad_tally;
      } else {
        s.present[k] = static_cast<std::uint8_t>(now);
      }
      rb.delta[k] = 0;
    }
  }
  out.fail_ops(threw, s.name + ": operations threw");
  out.fail_ops(bad_value, s.name + ": looked-up value differs from the key's value");
  out.fail_ops(bad_return, s.name + ": return value differs from the sequential model");
  out.fail_ops(bad_tally, s.name + ": per-key tally outside {0,1}");
}

/// Quiescent crash, recovery, and the checks on the recovered image.
void crash_recover_check(System& s, const Workload& w, const std::vector<word_t>& touched,
                         double writeback,
                         std::uint64_t crash_seed, bool measured, Outcome& out) {
  CrashPolicy pol;
  pol.writeback_probability = writeback;
  pol.seed = crash_seed;
  s.runner->pool().crash(pol);
  const Clock::time_point t0 = Clock::now();
  s.runner->tm().recover_data();
  const Clock::time_point t1 = Clock::now();
  if (measured) s.recover_ms.push_back(static_cast<double>(ns_between(t0, t1)) * 1e-6);
  reattach(s);

  std::uint64_t expected = 0;
  for (std::size_t k = 1; k <= w.keys; ++k) expected += s.present[k];
  std::uint64_t bad_presence = 0, bad_value = 0;
  if (s.tree) {
    // Shape first: a broken image must fail here, not hang a lookup.
    std::string why;
    if (!s.tree->validate_slow(&why)) {
      out.fail_whole(s.name + ": recovered tree is invalid: " + why);
      return;
    }
    std::vector<std::uint8_t> seen(w.keys + 1, 0);
    for (word_t k : s.tree->keys_slow()) {
      if (k == 0 || k > w.keys || seen[k]) {
        ++bad_presence;
        continue;
      }
      seen[k] = 1;
    }
    for (std::size_t k = 1; k <= w.keys; ++k) bad_presence += seen[k] != s.present[k];
    for (word_t k : touched) {
      word_t v = 0;
      if (s.tree->contains(0, k, &v) && v != value_of(k)) ++bad_value;
    }
  } else {
    for (std::size_t k = 1; k <= w.keys; ++k) {
      word_t v = 0;
      const bool has = s.map->contains(0, k, &v);
      if (has != static_cast<bool>(s.present[k])) ++bad_presence;
      if (has && v != value_of(k)) ++bad_value;
    }
  }
  const std::size_t size = s.tree ? s.tree->size_slow() : s.map->size_slow();
  if (size != expected)
    out.fail_whole(s.name + ": size_slow() " + std::to_string(size) + " != tally " +
                   std::to_string(expected));
  out.fail_ops(bad_presence, s.name + ": recovered presence differs from the tally (" +
                                 std::to_string(bad_presence) + " keys)");
  out.fail_ops(bad_value, s.name + ": recovered value differs from the key's value");
}

// ---- Output --------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double per(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "tmbench: %s\nusage: tmbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--rounds R] [--revision REV] [--sources DIGEST] [--nonpersistent-hw]\n",
               msg);
  std::exit(2);
}

int run(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  long rounds_fixed = 0;
  bool nonpersistent_hw = false;
  std::string revision = "none";
  std::string sources = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--nonpersistent-hw") {
      nonpersistent_hw = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* endp = nullptr;
    if (a == "--workload") {
      for (const Workload& c : kWorkloads)
        if (std::strcmp(c.name, v) == 0) w = &c;
      if (w == nullptr) usage((std::string("unknown workload ") + v).c_str());
    } else if (a == "--seed") {
      seed = std::strtoull(v, &endp, 10);
      have_seed = *v != '\0' && *endp == '\0';
      if (!have_seed) usage("bad --seed");
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &endp);
      if (*endp != '\0' || !(seconds > 0) || seconds > 3600) usage("bad --seconds");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      trace = v[0] - '0';
    } else if (a == "--rounds") {
      rounds_fixed = std::strtol(v, &endp, 10);
      if (*endp != '\0' || rounds_fixed < 2 || rounds_fixed > 100000) usage("bad --rounds");
    } else if (a == "--revision") {
      revision = v;
    } else if (a == "--sources") {
      sources = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (w == nullptr || !have_seed || trace < 0 || (seconds <= 0 && rounds_fixed == 0))
    usage("--workload, --seed, --trace and --seconds (or --rounds) are required");

  std::printf("# host cpus=%u build_type=%s telemetry=%d revision=%s sources=%s\n",
              std::thread::hardware_concurrency(), TMBENCH_BUILD_TYPE, telemetry::kLevel,
              revision.c_str(), sources.c_str());
  std::printf("# workload=%s seed=%llu seconds=%s trace=%d workers=%d keys=%zu "
              "capacity_words=%zu round_ops=%zu\n",
              w->name, static_cast<unsigned long long>(seed), num(seconds).c_str(), trace,
              w->workers, w->keys, w->capacity_words, w->round_ops);
  std::fflush(stdout);

  // ---- Set-up: construct every system and prefill it to half its keys.
  std::vector<System> systems;
  for (const SystemSpec& spec : kSystems) {
    if (nonpersistent_hw && spec.kind != TmKind::kNvHalt) continue;
    for (int twin = 0; twin <= (trace ? 1 : 0); ++twin) {
      System s;
      s.name = std::string(spec.name) + (twin ? "+zero-latency" : "");
      s.twin = twin != 0;
      s.runner = std::make_unique<TmRunner>(make_config(*w, spec.kind, s.twin, nonpersistent_hw));
      s.present.assign(w->keys + 1, 0);
      s.hist.resize(w->workers);
      systems.push_back(std::move(s));
    }
  }
  // The hashmap marks removed nodes empty and reuses them, so it is
  // prefilled by inserting every key and removing a seeded half: each
  // bucket then holds a node per key hashing to it, and no operation of a
  // round needs a fresh node. The tree gets a seeded half inserted.
  const std::vector<word_t> order = permutation(w->keys, derive_seed(seed, 0x9F1));
  for (System& s : systems) {
    build_structure(s, *w);
    auto insert = [&](word_t k) {
      if (!(s.map ? s.map->insert(0, k, value_of(k)) : s.tree->insert(0, k, value_of(k))))
        throw TmLogicError("prefill insert of an absent key returned false");
      s.present[k] = 1;
    };
    if (s.map) {
      for (word_t k : order) insert(k);
      for (std::size_t i = w->keys / 2; i < w->keys; ++i) {
        if (!s.map->remove(0, order[i])) throw TmLogicError("prefill remove returned false");
        s.present[order[i]] = 0;
      }
    } else {
      for (std::size_t i = 0; i < w->keys / 2; ++i) insert(order[i]);
    }
  }
  const double setup_s = static_cast<double>(ns_between(g_process_start, Clock::now())) * 1e-9;

  // ---- Rounds.
  const KeyGen kg(w->keys, w->zipf_theta, seed);
  RoundBuf rb;
  rb.delta.assign(w->keys + 1, 0);
  std::vector<std::vector<word_t>> touched(systems.size());  // per system, this round
  const double writeback = nonpersistent_hw ? 0.0 : 0.5;
  Outcome out;
  const Clock::time_point measure_start = Clock::now();
  std::uint64_t round = 0;
  for (;; ++round) {
    const bool measured = round > 0;
    generate_round(rb, *w, kg, seed, round);
    for (std::size_t j = 0; j < systems.size(); ++j) {
      System& s = systems[(j + round) % systems.size()];
      const Counters before = read_counters(*s.runner);
      const std::uint64_t ns = run_ops(s, *w, rb);
      const Counters after = read_counters(*s.runner);
      const std::uint64_t limbo = s.runner->alloc().stats().limbo;
      out.attempted += w->round_ops;
      if (after[kCommits] - before[kCommits] != w->round_ops)
        out.fail_whole(s.name + ": commit-counter delta " +
                       std::to_string(after[kCommits] - before[kCommits]) + " != " +
                       std::to_string(w->round_ops) + " operations issued");
      if (measured) {
        s.ops += w->round_ops;
        s.round_ns += ns;
        for (int c = 0; c < kNumCounters; ++c) s.sum[c] += after[c] - before[c];
        s.limbo_sum += limbo;
        s.tx_per_s.push_back(static_cast<double>(w->round_ops) * 1e9 / static_cast<double>(ns));
        s.ns_per_op.push_back(static_cast<double>(ns) / static_cast<double>(w->round_ops));
      }
      s.close_round(measured);
      check_results(s, *w, rb, out);
      touched[(j + round) % systems.size()] = rb.touched;
    }
    for (std::size_t i = 0; i < systems.size(); ++i) {
      if (out.stop && !out.whole_ok) break;
      crash_recover_check(systems[i], *w, touched[i], writeback,
                          derive_seed(seed, 0xC4A5 + round, i), measured, out);
    }
    if (out.stop) break;
    // Stop at the round cap, or before a round that would overrun --seconds
    // (rounds are whole).
    const long cap = rounds_fixed > 0 ? std::min<long>(rounds_fixed, w->max_rounds) : w->max_rounds;
    const double elapsed = ns_between(measure_start, Clock::now()) * 1e-9;
    const double per_round = elapsed / static_cast<double>(round + 1);
    if (static_cast<long>(round) + 1 >= cap ||
        (rounds_fixed == 0 && round >= 1 && elapsed + per_round > seconds))
      break;
  }

  // ---- Metrics.
  std::vector<Metric> m;
  auto find = [&](const char* name) -> const System* {
    for (const System& s : systems)
      if (s.name == name) return &s;
    return nullptr;
  };
  if (!trace) {
    m.push_back({"setup_s", setup_s, "s"});
    for (const SystemSpec& spec : kSystems)
      if (const System* s = find(spec.name))
        m.push_back({std::string(spec.name) + ".tx_per_s", mean(s->tx_per_s), "tx/s"});
    for (const char* n : {"nvhalt", "trinity", "spht"})
      if (const System* s = find(n)) {
        m.push_back({std::string(n) + ".p50_us", mean(s->p50_us), "us"});
        m.push_back({std::string(n) + ".p99_us", mean(s->p99_us), "us"});
      }
    for (const char* n : {"nvhalt", "trinity", "spht"})
      if (const System* s = find(n))
        m.push_back({std::string(n) + ".recover_ms", mean(s->recover_ms), "ms"});
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"});
  } else {
    for (const SystemSpec& spec : kSystems) {
      const System* s = find(spec.name);
      const System* z = find((std::string(spec.name) + "+zero-latency").c_str());
      if (s == nullptr || z == nullptr) continue;
      const std::string p = spec.name;
      const auto& c = s->sum;
      const double ops = static_cast<double>(s->ops);
      auto op = [&](Counter k) { return ops == 0 ? 0.0 : static_cast<double>(c[k]) / ops; };
      m.push_back({p + ".htm.begins_per_op", op(kHtmBegins), "1/op"});
      m.push_back({p + ".htm.conflict_aborts_per_op", op(kHtmConflicts), "1/op"});
      m.push_back({p + ".htm.capacity_aborts_per_op", op(kHtmCapacity), "1/op"});
      m.push_back({p + ".runtime.hw_commits_per_op", op(kHwCommits), "1/op"});
      m.push_back({p + ".runtime.sw_commits_per_op", op(kSwCommits), "1/op"});
      m.push_back({p + ".runtime.fallbacks_per_op", op(kFallbacks), "1/op"});
      m.push_back({p + ".runtime.sw_aborts_per_op", op(kSwAborts), "1/op"});
      m.push_back({p + ".core.ro_commits_per_op", op(kRoCommits), "1/op"});
      m.push_back({p + ".core.ro_aborts_per_op", op(kRoAborts), "1/op"});
      m.push_back({p + ".locks.stalls_per_op", op(kStalls), "1/op"});
      m.push_back({p + ".locks.stall_ticks_per_op", op(kStallTicks), "ticks/op"});
      m.push_back({p + ".locks.cas_failures_per_op", op(kCasFailures), "1/op"});
      m.push_back({p + ".pmem.flushes_per_op", op(kFlushes), "1/op"});
      m.push_back({p + ".pmem.fences_per_op", op(kFences), "1/op"});
      m.push_back({p + ".pmem.flush_dedup_per_op", op(kFlushDedup), "1/op"});
      m.push_back({p + ".pmem.fences_combined_per_op", op(kFencesCombined), "1/op"});
      m.push_back({p + ".pmem.write_set_words_per_commit", per(c[kWsWords], c[kWsCommits]),
                   "words/commit"});
      m.push_back({p + ".pmem.model_ns_per_op", mean(s->ns_per_op) - mean(z->ns_per_op),
                   "ns/op"});
      m.push_back({p + ".alloc.allocs_per_op", op(kAllocs), "1/op"});
      m.push_back({p + ".alloc.frees_per_op", op(kFrees), "1/op"});
      m.push_back({p + ".alloc.limbo_at_end", per(s->limbo_sum, s->tx_per_s.size()), "count"});
      m.push_back({p + ".structures.lookup_p50_us", mean(s->lookup_p50_us), "us"});
      m.push_back({p + ".structures.update_p50_us", mean(s->update_p50_us), "us"});
      m.push_back({p + ".structures.update_p99_us", mean(s->update_p99_us), "us"});
    }
    for (const char* n : {"nvhalt-cl", "nvhalt-sp"})
      if (const System* s = find(n))
        m.push_back({std::string(n) + ".core.recover_ms", mean(s->recover_ms), "ms"});
    if (const System* s = find("spht"))
      m.push_back({"spht.baselines.serialized_frac", per(s->sum[kGlobalLockNs], s->round_ns),
                   "fraction"});
    // Tracing overhead is read against an untraced run's tx_per_s.
    for (const System& s : systems)
      if (!s.twin)
        std::printf("# traced %s.tx_per_s=%s\n", s.name.c_str(), num(mean(s.tx_per_s)).c_str());
  }

  std::printf("# rounds=%llu measured_ops_per_system=%llu\n",
              static_cast<unsigned long long>(round + 1),
              static_cast<unsigned long long>(systems.empty() ? 0 : systems[0].ops));
  for (const std::string& n : out.notes) std::printf("# CHECK FAILED: %s\n", n.c_str());
  if (g_exception_noted) std::printf("# first exception: %s\n", g_first_exception.c_str());
  const bool correct = out.whole_ok && out.failed == 0;
  std::string js = "{\"correct\": " + std::string(correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(out.attempted) +
                   ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) js += ", ";
    js += "\"" + m[i].name + "\": {\"value\": " + num(m[i].value) +
          ", \"unit\": \"" + m[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmbench: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "tmbench: unknown exception\n");
  }
  return 1;
}

// Routed end-to-end benchmark of the resource manager.
//
// Drives the path a workflow-engine worker hits —
//   ShardRouter -> ShardCluster / DurableResourceManager (WAL, pages.db,
//   standby) -> ResourceManager -> PolicyManager -> rel::Executor
// — with every request generated in this process as RDL, PL and RQL
// text. An untraced run reports the end-to-end metrics; a traced run
// (--trace 1) replays sampled requests one layer at a time and reports the
// per-layer split. Every answer is checked against an in-memory reference
// resource manager. See NOTES.md beside this file for why each workload
// exists and how its sizes relate to the program's caches.
//
// Usage:
//   wfrm_perfbench --workload assign_warm|policy_churn|restart_cold
//                  --seed N --seconds S --trace 0|1 --dir DATA_DIR
//                  [--spans FILE]
//
// Prints one "metric" line per measurement (name, value, unit, samples)
// and, last, one JSON object: correct / attempted / failed / metrics.
// Exits 1 when any answer disagreed with the reference.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/resource_manager.h"
#include "org/rdl_dump.h"
#include "org/rdl_parser.h"
#include "policy/pl_dump.h"
#include "policy/policy_manager.h"
#include "policy/synthetic.h"
#include "rel/executor.h"
#include "rql/rql.h"
#include "shard/shard_cluster.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "store/durable_rm.h"

namespace {

using namespace wfrm;  // NOLINT

constexpr size_t kShards = 2;
/// Journaled records per shard between client-driven replication pumps.
/// Driven by record count, never by a timer, so the cost of one pump
/// does not depend on how long the run has been going.
constexpr uint64_t kPumpEveryRecords = 64;
constexpr size_t kBatchItems = 8;
/// Full set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Traced runs replay one request in this many.
constexpr uint64_t kTraceEvery = 8;
constexpr uint64_t kTraceBlock = 32;

/// Time this thread spent inside the system: routed calls, pumps,
/// checkpoints, restarts and catch-ups. The denominator of ops_per_s,
/// which leaves the oracle's own checking out.
thread_local double t_busy_us = 0;

double Busy(double us) {
  t_busy_us += us;
  return us;
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wfrm_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void MustOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---- Samples ---------------------------------------------------------------

class Samples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_.size();
  }
  /// Linear-interpolated quantile; 0 when empty.
  double Quantile(double q) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  double Max() const { return Quantile(1.0); }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// ---- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  /// Hierarchies, qualification and requirement policies.
  policy::SyntheticConfig world;
  /// Resource instances per role and substitution policies, laid out by
  /// BuildWorld.
  size_t instances_per_role = 0;
  size_t substitutions = 0;
  /// Fresh texts draw their activity values per request, so the rewrite
  /// LRU never holds them; otherwise the workload cycles `fixed_texts`.
  bool fresh_texts = false;
  size_t fixed_texts = 0;
  int clients = 1;
  /// Operations of client 0 between replication catch-up measurements.
  uint64_t round_ops = 0;
  /// Operations in the single-client count window (exact counts).
  uint64_t window_ops = 0;
  // End-to-end metrics the main traffic does not produce; a fixed
  // complement phase after the timed phase measures them.
  bool complement_reads = false;
  bool complement_acquires = false;
  bool complement_batches = false;
  bool complement_updates = false;
  size_t complement_restarts = 0;
};

WorkloadSpec MakeSpec(const std::string& name, uint64_t seed) {
  WorkloadSpec s;
  s.name = name;
  s.world.seed = seed;
  s.world.num_activities = 64;
  s.world.num_resources = 64;
  if (name == "assign_warm") {
    // 1,024 instances and 2,048 requirement rows per shard; 256 texts
    // fit the 1,024-entry rewrite LRU.
    s.world.q = 8;
    s.world.c = 4;
    s.instances_per_role = 16;
    s.fixed_texts = 256;
    s.clients = 2;
    s.round_ops = 512;
    s.window_ops = 256;
    s.complement_updates = true;
    s.complement_restarts = 15;
  } else if (name == "policy_churn" || name == "restart_cold") {
    // 16,384 requirement rows (~1.4MB of PL), 2 instances per role and
    // 64 substitution policies per shard.
    s.world.q = 32;
    s.world.c = 8;
    s.instances_per_role = 2;
    s.substitutions = 64;
    s.fresh_texts = true;
    if (name == "policy_churn") {
      s.round_ops = 256;
      s.window_ops = 100;
      s.complement_acquires = true;
      s.complement_restarts = 7;
    } else {
      s.window_ops = 1;  // One restart cycle.
      s.complement_reads = true;
      s.complement_batches = true;
    }
  } else {
    Die("unknown workload '" + name + "'");
  }
  return s;
}

// ---- Traced spans --------------------------------------------------------------

/// Spans recorded around the benchmark's own calls into each layer, kept
/// in memory and written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NewRequest() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_request_;
  }
  /// Records a finished span; returns its index for children to name.
  int64_t Record(uint64_t request, const char* name, double start,
                 double end, int64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) return -1;
    spans_.push_back({request, name, start, end, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"request\":%llu,\"name\":\"%s\","
                    "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld}\n",
                    i, static_cast<unsigned long long>(s.request), s.name,
                    s.start, s.end, static_cast<long long>(s.parent));
      out << line;
    }
  }

 private:
  struct Span {
    uint64_t request;
    const char* name;
    double start;
    double end;
    int64_t parent;
  };
  static constexpr size_t kMaxSpans = 200000;
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
};

// ---- The oracle ------------------------------------------------------------------

using RefSet = std::set<org::ResourceRef>;

RefSet CandidateSet(const core::QueryOutcome& outcome) {
  return RefSet(outcome.candidates.begin(), outcome.candidates.end());
}

/// Typed "no qualified resource" / "nothing available" answers are
/// answers; anything else that fails is an error.
bool IsAnswer(const Result<core::QueryOutcome>& r) {
  return r.ok() && (r->ok() ||
                    r->status.code() == StatusCode::kNoQualifiedResource ||
                    r->status.code() == StatusCode::kResourceUnavailable);
}

/// One shard's reference: the generated world itself (org + policy store,
/// no shards, journal or replicas) behind a plain ResourceManager with
/// compiled enforcement ablated. Mirrors every routed policy update and,
/// where a single client makes the order known, every grant and release.
struct Reference {
  std::unique_ptr<policy::SyntheticWorkload> world;
  std::unique_ptr<core::ResourceManager> rm;
};

// ---- The system under test --------------------------------------------------------

struct Accounting {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> first_errors;

  void Check(bool ok, const std::string& what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (first_errors.size() < 10) first_errors.push_back(what);
  }
};

struct Metrics {
  // End to end.
  Samples acquire_us, release_us, lookup_us, batch_us, update_us;
  Samples catchup_ms, restart_ms;
  std::atomic<uint64_t> main_ops{0};
  // Per layer (traced run).
  Samples route_us, parse_us, enforce_us, execute_us;
  Samples route_self_us, submit_self_us, acquire_self_us, batch_self_us;
  Samples pump_us, lag_records, checkpoint_ms, open_ms, hydrate_ms,
      drain_ms;
  Samples enforce_warm_us, traced_lookup_us, untraced_lookup_us;
  std::atomic<uint64_t> queue_depth_max{0};
};

/// Exact counts over the single-client count window.
struct WindowCounts {
  uint64_t rewrite_hits = 0, rewrite_misses = 0;
  uint64_t epoch_hits = 0, epoch_probes = 0;
  uint64_t compiled_builds = 0, retrievals = 0, candidate_rows = 0;
  uint64_t bloom_probes = 0, bloom_skips = 0;
  uint64_t wal_bytes = 0, mutations = 0;
  uint64_t requests = 0, reads = 0, queries = 0, rows = 0, candidates = 0, substituted = 0;
  uint64_t pager_reads = 0, pager_evictions = 0, restarts = 0;

  bool operator==(const WindowCounts&) const = default;
  std::string ToString() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "rewrite %llu/%llu epoch %llu/%llu builds %llu retrievals %llu "
        "rows %llu wal %llu/%llu reads %llu q %llu r %llu pager %llu/%llu",
        (unsigned long long)rewrite_hits, (unsigned long long)rewrite_misses,
        (unsigned long long)epoch_hits, (unsigned long long)epoch_probes,
        (unsigned long long)compiled_builds, (unsigned long long)retrievals,
        (unsigned long long)candidate_rows, (unsigned long long)wal_bytes,
        (unsigned long long)mutations, (unsigned long long)reads,
        (unsigned long long)queries, (unsigned long long)rows,
        (unsigned long long)pager_reads, (unsigned long long)pager_evictions);
    return buf;
  }
};

/// Pauses the client threads so client 0 can measure a catch-up with no
/// request in flight.
class Gate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !paused_; });
    ++active_;
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.wait(lock, [&] { return active_ == 0; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  int active_ = 0;
};

class Bench {
 public:
  Bench(WorkloadSpec spec, Tracer* tracer)
      : spec_(std::move(spec)), tracer_(tracer) {}

  ~Bench() { Teardown(); }

  Accounting& acct() { return acct_; }
  Metrics& metrics() { return m_; }
  const WindowCounts& window() const { return window_; }

  /// Generates the world, loads every shard, seeds the standbys and warms
  /// up. Returns the seconds that took; the oracle is built afterwards.
  double Setup(const std::string& dir) {
    Teardown();
    dir_ = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    rng_.seed(static_cast<uint32_t>(spec_.world.seed));
    texts_.clear();
    refs_.clear();
    static_answers_.clear();
    held_.clear();
    grants_.assign(spec_.clients, {});
    acquire_mu_.clear();
    for (int c = 0; c < spec_.clients; ++c) {
      acquire_mu_.push_back(std::make_unique<std::mutex>());
    }
    cycle_ops_ = 0;
    batches_ = 0;
    texts_drawn_ = 0;
    for (auto& r : records_) r = 0;

    const double t0 = NowUs();
    auto generated = BuildWorld();
    const std::string rdl = Must(org::DumpRdl(generated->org()), "DumpRdl");
    const std::string pl = Must(policy::DumpPl(generated->store()), "DumpPl");
    generator_ = std::move(generated);
    for (size_t i = 0; i < spec_.fixed_texts; ++i) texts_.push_back(NextText());

    map_ = std::make_unique<shard::ShardMap>(kShards);
    keys_.assign(kShards, "");
    for (int i = 0; i < 100000; ++i) {
      std::string key = "tenant" + std::to_string(i);
      shard::ShardId s = map_->Resolve(key);
      if (keys_[s].empty()) keys_[s] = key;
    }
    for (const auto& k : keys_) {
      if (k.empty()) Die("no routing key for some shard");
    }
    OpenCluster();
    // The same world on every shard: rows per shard stay fixed, so shard
    // metrics measure parallel work and not smaller scans.
    for (shard::ShardId s = 0; s < kShards; ++s) {
      auto primary = cluster_->Primary(s);
      MustOk(primary->ExecuteRdl(rdl), "load RDL");
      MustOk(primary->AddPolicyText(pl), "load PL");
    }
    for (shard::ShardId s = 0; s < kShards; ++s) {
      MustOk(cluster_->Drain(s), "seed standby");
    }
    // Warm-up: every fixed text once on its home (fills the rewrite LRU),
    // or a batch of fresh texts (builds the compiled tables).
    size_t warm = spec_.fresh_texts ? 64 : texts_.size();
    for (size_t i = 0; i < warm; ++i) {
      std::string text = spec_.fresh_texts ? NextText() : texts_[i];
      auto r = router_->Enforce(keys_[i % kShards], text);
      if (!IsAnswer(r)) Die("warm-up read failed: " + r.status().ToString());
    }
    const double setup_s = (NowUs() - t0) / 1e6;

    // The oracle: one reference per shard, from the same generator.
    for (shard::ShardId s = 0; s < kShards; ++s) {
      Reference ref;
      ref.world = s == 0 ? std::move(generator_) : BuildWorld();
      ref.world->store().set_compiled_enabled(false);
      ref.rm = std::make_unique<core::ResourceManager>(&ref.world->org(),
                                                       &ref.world->store());
      refs_.push_back(std::move(ref));
    }
    generator_world_ = refs_[0].world.get();
    // With two clients the interleaving of grants is unknown, so reads are
    // checked against an allocation-free reference answer per text.
    for (size_t i = 0; i < texts_.size(); ++i) {
      static_answers_.push_back(refs_[i % kShards].rm->Submit(texts_[i]));
    }
    return setup_s;
  }

  /// Runs the single-client count window and records its exact counts.
  void CountWindow() {
    stats_mark_ = ShardStats();
    counting_ = true;
    window_ = WindowCounts{};
    if (spec_.name == "restart_cold") {
      RestartCycle();
    } else {
      for (uint64_t k = 0; k < spec_.window_ops; ++k) MainOp(0, k);
    }
    AddStoreStats();
    counting_ = false;
  }

  /// Adds the policy-store counters since stats_mark_ to the window. A
  /// restart replaces the stores (and their counters), so it calls this
  /// first and re-marks after the reopen.
  void AddStoreStats() {
    std::vector<policy::StoreStatsSnapshot> now = ShardStats();
    for (size_t s = 0; s < kShards; ++s) {
      policy::StoreStatsSnapshot d = now[s] - stats_mark_[s];
      window_.rewrite_hits += d.rewrite_cache_hits;
      window_.rewrite_misses += d.rewrite_cache_misses;
      window_.epoch_hits += d.cache_hits;
      window_.epoch_probes +=
          d.cache_hits + d.cache_misses + d.cache_invalidations;
      window_.compiled_builds += d.compiled_builds;
      window_.retrievals += d.retrievals;
      window_.candidate_rows += d.candidate_rows;
      window_.bloom_probes += d.bloom_probes;
      window_.bloom_skips += d.bloom_skips;
    }
    stats_mark_ = now;
  }

  /// The timed phase: closed-loop clients until `seconds` have passed.
  void RunMain(double seconds) {
    const double start = NowUs();
    deadline_us_ = start + seconds * 1e6;
    if (spec_.name == "restart_cold") {
      t_busy_us = 0;
      while (NowUs() < deadline_us_) RestartCycle();
      busy_us_ = t_busy_us;
      return;
    }
    std::vector<std::thread> clients;
    std::vector<double> busy(spec_.clients, 0);
    for (int c = 0; c < spec_.clients; ++c) {
      clients.emplace_back([this, c, &busy] {
        uint64_t k = 0;
        t_busy_us = 0;
        while (NowUs() < deadline_us_) {
          gate_.Enter();
          MainOp(c, spec_.window_ops + k);
          busy[c] = t_busy_us;
          gate_.Leave();
          ++k;
          if (c == 0 && spec_.round_ops > 0 && k % spec_.round_ops == 0) {
            gate_.Pause();
            CatchUp(/*record=*/true);
            gate_.Resume();
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    double total = 0;
    for (double b : busy) total += b;
    busy_us_ = total / spec_.clients;
  }

  double ops_per_s() const {
    return busy_us_ <= 0 ? 0
                         : static_cast<double>(m_.main_ops.load()) /
                               (busy_us_ / 1e6);
  }

  /// Single-client measurements of what the main traffic does not produce.
  void Complement() {
    uint64_t k = 1u << 30;
    if (spec_.complement_reads) {
      for (int i = 0; i < 512; ++i, ++k) Read(0, k, k % kShards);
    }
    if (spec_.complement_acquires) {
      for (int i = 0; i < 512; ++i, ++k) AcquireRelease(0, k, false);
    }
    if (spec_.complement_batches) {
      for (int i = 0; i < 64; ++i, ++k) Batch(0, k);
    }
    if (spec_.complement_updates) {
      for (int i = 0; i < 256; ++i, ++k) Update(k);
      CatchUp(/*record=*/false);
    }
    if (spec_.complement_restarts) {
      // Nothing changes the state between these restarts, so each reopened
      // state is the next one's pre-drain state. Each still catches the
      // standbys up: after a reopen that takes a snapshot catch-up, which
      // checkpoints the hydrated primary; skipping it would leave that
      // checkpoint to the next restart's drain.
      std::vector<std::string> fingerprints;
      for (size_t i = 0; i < spec_.complement_restarts; ++i) {
        Restart(k++, /*record_catchup=*/false, &fingerprints);
      }
    }
  }

  /// End-of-run invariants: no allocation left anywhere, standbys equal.
  void Finish() {
    CatchUp(/*record=*/false);
    for (shard::ShardId s = 0; s < kShards; ++s) {
      auto primary = cluster_->Primary(s);
      acct_.Check(primary != nullptr && primary->rm().num_allocated() == 0,
                  "allocations left on shard " + std::to_string(s));
    }
    std::lock_guard<std::mutex> lock(held_mu_);
    acct_.Check(held_.empty(), "leases still held at the end");
  }

  uint64_t router_retries() const { return router_retries_; }

 private:
  // ---- World and text generation ----

  /// SyntheticWorkload's hierarchies and seeded requirement policies, plus
  /// instances and substitution policies spread evenly over the roles.
  /// The generator's own random placement of those two decides how often
  /// a request falls through to substitution, and with it the cost of a
  /// request, by up to 3x from one seed to the next; an even layout keeps
  /// every seed's world equally hard.
  std::unique_ptr<policy::SyntheticWorkload> BuildWorld() const {
    static const char* const kLocations[] = {"PA", "Cupertino", "Mexico",
                                             "Bristol"};
    auto w = Must(policy::SyntheticWorkload::Build(spec_.world), "generate world");
    std::string rdl;
    for (size_t r = 0; r < spec_.world.num_resources; ++r) {
      for (size_t n = 0; n < spec_.instances_per_role; ++n) {
        rdl += "Insert Resource " + policy::SyntheticWorkload::ResourceName(r) +
               " 'res_" + std::to_string(r) + "_" + std::to_string(n) +
               "' (Location = '" + kLocations[(r + n) % 4] +
               "', Experience = " + std::to_string((r * 37 + n * 17) % 31) +
               ");";
      }
    }
    MustOk(org::ExecuteRdl(rdl, &w->org()), "generate instances");
    std::mt19937 rng(static_cast<uint32_t>(spec_.world.seed));
    std::string pl;
    for (size_t s = 0; s < spec_.substitutions; ++s) {
      std::string role = policy::SyntheticWorkload::ResourceName(
          s % spec_.world.num_resources);
      pl += "Substitute " + role + " Where Location = '" +
            kLocations[rng() % 4] + "' By " + role + " Where Location = '" +
            kLocations[rng() % 4] + "' For " +
            policy::SyntheticWorkload::ActivityName(
                s % spec_.world.num_activities) +
            ";";
    }
    if (!pl.empty()) MustOk(w->store().AddPolicyText(pl), "generate substitutions");
    return w;
  }

  /// A random request whose resource type cycles through every type in
  /// turn, each on every shard: each run then asks for every fan-out width
  /// (1 to |R| types) equally often, whatever the seed.
  std::string NextText() {
    std::lock_guard<std::mutex> lock(rng_mu_);
    const policy::SyntheticWorkload* w =
        generator_ ? generator_.get() : generator_world_;
    rql::RqlQuery query = Must(w->RandomQuery(rng_), "generate query");
    query.select->from[0].name = policy::SyntheticWorkload::ResourceName(
        texts_drawn_++ / kShards % spec_.world.num_resources);
    return query.ToString();
  }

  /// Text for operation `k` of a client and its index into texts_ (or
  /// SIZE_MAX for a fresh text).
  std::pair<std::string, size_t> TextFor(int client, uint64_t k) {
    if (spec_.fresh_texts) return {NextText(), SIZE_MAX};
    size_t idx = (static_cast<size_t>(client) * texts_.size() / 2 + k) %
                 texts_.size();
    return {texts_[idx], idx};
  }

  /// One requirement policy, in the synthetic world's own shape.
  std::string NextPolicy() {
    std::lock_guard<std::mutex> lock(rng_mu_);
    std::uniform_int_distribution<size_t> res(0, spec_.world.num_resources - 1);
    std::uniform_int_distribution<size_t> act(0, spec_.world.num_activities - 1);
    std::uniform_int_distribution<int64_t> experience(0, 20);
    std::uniform_int_distribution<int64_t> lo(
        0, static_cast<int64_t>(spec_.world.c) * 100 - 100);
    size_t a = act(rng_);
    int64_t low = lo(rng_);
    std::string attr = "Act" + std::to_string(a) + "_p0";
    return "Require Role" + std::to_string(res(rng_)) +
           " Where Experience >= " + std::to_string(experience(rng_)) + " For Act" +
           std::to_string(a) + " With " + attr + " >= " +
           std::to_string(low) + " And " + attr +
           " <= " + std::to_string(low + 49) + ";";
  }

  // ---- Cluster lifecycle ----

  void OpenCluster() {
    shard::ShardClusterOptions options;
    options.num_shards = kShards;
    // The default flush policy (kInterval every 64 records) on every
    // side: primaries and standbys share this template.
    options.durable.rm_options.lease_duration_micros = 0;
    cluster_ = Must(shard::ShardCluster::Open(dir_, options), "open cluster");
    router_ = std::make_unique<shard::ShardRouter>(cluster_.get(), map_.get());
  }

  void Teardown() {
    if (router_) {
      router_retries_ += router_->retries();
      (void)router_->Drain();
    }
    router_.reset();
    cluster_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::vector<policy::StoreStatsSnapshot> ShardStats() const {
    std::vector<policy::StoreStatsSnapshot> out;
    for (shard::ShardId s = 0; s < kShards; ++s) {
      out.push_back(router_->ShardStats(s));
    }
    return out;
  }

  /// The shard primary's WAL offset; only read inside the count window.
  uint64_t WalOffset(shard::ShardId shard) const {
    return counting_ ? cluster_->Primary(shard)->wal_bytes() : 0;
  }

  // ---- Replication ----

  /// Counts one journaled record on `shard`; every kPumpEveryRecords the
  /// caller pumps that shard's standby link.
  void Journaled(shard::ShardId shard, uint64_t wal_before) {
    if (counting_) {
      ++window_.mutations;
      window_.wal_bytes += WalOffset(shard) - wal_before;
    }
    uint64_t n = ++records_[shard];
    if (n % kPumpEveryRecords != 0) return;
    m_.lag_records.Add(
        static_cast<double>(cluster_->StatusOf(shard).lag_records));
    double t0 = NowUs();
    Status st = cluster_->Pump(shard);
    m_.pump_us.Add(Busy(NowUs() - t0));
    acct_.Check(st.ok(), "pump: " + st.ToString());
  }

  /// Drains every standby, then checks it against its primary.
  void CatchUp(bool record) {
    double t0 = NowUs();
    Status first;
    for (shard::ShardId s = 0; s < kShards; ++s) {
      Status st = cluster_->Drain(s);
      if (!st.ok() && first.ok()) first = st;
    }
    double ms = Busy(NowUs() - t0) / 1e3;
    acct_.Check(first.ok(), "catch-up: " + first.ToString());
    if (record) m_.catchup_ms.Add(ms);
    for (shard::ShardId s = 0; s < kShards; ++s) {
      shard::ShardStatus status = cluster_->StatusOf(s);
      auto primary = cluster_->Primary(s);
      auto standby = cluster_->Standby(s);
      acct_.Check(!status.diverged && status.lag_records == 0 && standby &&
                      primary->StateFingerprint(false) ==
                          standby->StateFingerprint(false),
                  "standby of shard " + std::to_string(s) + " diverged");
    }
  }

  // ---- Oracle checks ----

  /// Single-client check: the same text on the shard's reference, whose
  /// allocations mirror the routed ones exactly.
  void CheckRead(shard::ShardId shard, const std::string& text,
                 const Result<core::QueryOutcome>& got) {
    auto want = refs_[shard].rm->Submit(text);
    bool ok = IsAnswer(got) && IsAnswer(want) &&
              got->status.code() == want->status.code() &&
              CandidateSet(*got) == CandidateSet(*want);
    acct_.Check(ok, "read mismatch on " + text + ": " +
                        (got.ok() ? got->status.ToString()
                                  : got.status().ToString()));
  }

  /// Two-client check: the answer may miss only resources some client
  /// held while it ran, and never offers the caller's own lease.
  void CheckConcurrentRead(size_t idx, const Result<core::QueryOutcome>& got,
                           const RefSet& may_be_held,
                           const org::ResourceRef* own) {
    const auto& want = static_answers_[idx];
    bool ok = IsAnswer(got) && IsAnswer(want);
    if (ok) {
      RefSet g = CandidateSet(*got), w = CandidateSet(*want);
      for (const auto& r : g) ok = ok && w.count(r) > 0 && !(own && r == *own);
      for (const auto& r : w) ok = ok && (g.count(r) > 0 || may_be_held.count(r) > 0);
      if (got->status.code() == StatusCode::kNoQualifiedResource) {
        ok = ok && want->status.code() == StatusCode::kNoQualifiedResource;
      }
    }
    acct_.Check(ok, "concurrent read mismatch on " + texts_[idx]);
  }

  /// Resources of `shard` any other client held at some point since
  /// `marks`. Waits out another client's acquire still being noted.
  RefSet HeldSince(int client, const std::vector<size_t>& marks,
                   shard::ShardId shard) {
    RefSet out;
    for (int c = 0; c < spec_.clients; ++c) {
      if (c == client) continue;
      std::lock_guard<std::mutex> noted(*acquire_mu_[c]);
      std::lock_guard<std::mutex> lock(held_mu_);
      const auto& g = grants_[c];
      for (size_t i = marks[c] == 0 ? 0 : marks[c] - 1; i < g.size(); ++i) {
        if (g[i].first == shard) out.insert(g[i].second);
      }
    }
    return out;
  }

  std::vector<size_t> GrantMarks() {
    std::lock_guard<std::mutex> lock(held_mu_);
    std::vector<size_t> marks;
    for (const auto& g : grants_) marks.push_back(g.size());
    return marks;
  }

  /// Leases are per shard: every shard holds its own copy of the world.
  void NoteGrant(int client, shard::ShardId shard, const org::ResourceRef& r) {
    std::lock_guard<std::mutex> lock(held_mu_);
    bool fresh = held_.insert({shard, r}).second;
    grants_[client].push_back({shard, r});
    acct_.Check(fresh, "two live leases on " + r.ToString());
  }

  void NoteRelease(shard::ShardId shard, const org::ResourceRef& r) {
    std::lock_guard<std::mutex> lock(held_mu_);
    held_.erase({shard, r});
  }

  /// Traced runs alternate blocks of kTraceBlock operations with and
  /// without layer replays; comparing the routed latency of the two is
  /// the tracing overhead. Every request still goes through the router.
  bool TracedBlock(uint64_t k) const {
    return tracer_->enabled() && !counting_ && (k / kTraceBlock) % 2 == 1;
  }
  bool Sampled(uint64_t k) const {
    return TracedBlock(k) && k % kTraceEvery == 0;
  }
  /// Routed latency of requests that were not themselves replayed, by
  /// block: the replays' effect on everyone else's requests.
  void NoteLookup(uint64_t k, double us, bool sampled) {
    if (!tracer_->enabled() || counting_ || sampled) return;
    (TracedBlock(k) ? m_.traced_lookup_us : m_.untraced_lookup_us).Add(us);
  }

  void CountOutcome(const Result<core::QueryOutcome>& r) {
    if (counting_) ++window_.requests;
    if (!counting_ || !r.ok()) return;
    ++window_.reads;
    window_.queries += r->primary_queries.size() + r->alternative_queries.size();
    window_.rows += r->resources.rows.size();
    window_.candidates += r->candidates.size();
    if (r->used_substitution) ++window_.substituted;
  }

  void NoteQueueDepth(shard::ShardId s) {
    uint64_t d = router_->queue_depth(s);
    uint64_t cur = m_.queue_depth_max.load();
    while (d > cur && !m_.queue_depth_max.compare_exchange_weak(cur, d)) {
    }
  }

  // ---- Layer replays (traced run) ----

  struct Interval {
    double start = 0, end = 0;
    double us() const { return end - start; }
  };

  /// Times ResourceManager::Submit of `text` on the shard's primary. For
  /// fresh-text workloads it runs on a shadow manager over the same org
  /// and policy store: its rewrite LRU has not seen the text, as the
  /// routed call's had not, while the store's shared caches are the live
  /// ones.
  Interval TimeSubmit(store::DurableResourceManager& primary,
                      const std::string& text) {
    std::optional<core::ResourceManager> shadow;
    const core::ResourceManager* rm = &primary.rm();
    if (spec_.fresh_texts) rm = &shadow.emplace(&primary.org(), &primary.store());
    Interval i{NowUs(), 0};
    (void)rm->Submit(text);
    i.end = NowUs();
    return i;
  }

  /// Times PolicyManager::EnforcePrimaryShared, on a shadow manager for
  /// fresh texts (see TimeSubmit).
  Interval TimeEnforce(store::DurableResourceManager& primary,
                       const rql::RqlQuery& query,
                       std::shared_ptr<const policy::EnforcedQueries>* out) {
    std::optional<policy::PolicyManager> shadow;
    const policy::PolicyManager* pm = &primary.rm().policy_manager();
    if (spec_.fresh_texts) pm = &shadow.emplace(&primary.org(), &primary.store());
    Interval i{NowUs(), 0};
    auto enforced = pm->EnforcePrimaryShared(query);
    i.end = NowUs();
    if (out != nullptr && enforced.ok()) *out = *enforced;
    return i;
  }

  struct Layers {
    Interval parse, enforce, execute, submit;
  };

  /// `text` one layer at a time on the shard's primary: parse and bind,
  /// enforce, execute the enforced queries, then the whole Submit.
  Layers TimeLayers(store::DurableResourceManager& primary,
                    const std::string& text) {
    Layers out;
    org::OrgModel& org = primary.org();
    out.parse.start = NowUs();
    auto query = rql::ParseAndBindRql(text, org);
    out.parse.end = NowUs();
    if (!query.ok()) return out;
    std::shared_ptr<const policy::EnforcedQueries> enforced;
    out.enforce = TimeEnforce(primary, *query, &enforced);
    if (enforced == nullptr) return out;
    // What ResourceManager::RunQueries does per enforced query, minus the
    // availability check: Id prepended, executed under the org read lock.
    out.execute.start = NowUs();
    {
      auto lock = org.ReadLock();
      rel::Executor exec(&org.db());
      for (const rql::RqlQuery& q : enforced->queries) {
        rel::SelectPtr select = q.select->Clone();
        rel::SelectItem id_item;
        id_item.expr = rel::MakeColumnRef("Id");
        id_item.alias = "Id";
        select->items.insert(select->items.begin(), std::move(id_item));
        (void)exec.Execute(*select, q.spec.AsParams());
      }
    }
    out.execute.end = NowUs();
    out.submit = TimeSubmit(primary, text);
    return out;
  }

  /// The policy layer alone, on a text the workload has not seen: what
  /// the routed call would pay after churn left the store's caches cold.
  /// Fresh-text workloads run it before the routed call, so every call
  /// after it sees the same warm store and each self-time difference is
  /// like for like.
  std::optional<Interval> FirstSightEnforce(store::DurableResourceManager& primary,
                                            const std::string& text) {
    if (!spec_.fresh_texts) return std::nullopt;
    auto query = rql::ParseAndBindRql(text, primary.org());
    if (!query.ok()) return std::nullopt;
    return TimeEnforce(primary, *query, nullptr);
  }

  /// Records a traced read's spans and self times.
  void RecordRead(const Interval& routed, const Layers& l,
                  const std::optional<Interval>& first_enforce) {
    const Interval& enforce = first_enforce ? *first_enforce : l.enforce;
    uint64_t req = tracer_->NewRequest();
    int64_t root = tracer_->Record(req, "shard.route", routed.start, routed.end, -1);
    int64_t sub = tracer_->Record(req, "core.submit", l.submit.start, l.submit.end, root);
    tracer_->Record(req, "rql.parse_bind", l.parse.start, l.parse.end, sub);
    tracer_->Record(req, "policy.enforce", enforce.start, enforce.end, sub);
    tracer_->Record(req, "rel.execute", l.execute.start, l.execute.end, sub);
    m_.route_us.Add(routed.us());
    m_.parse_us.Add(l.parse.us());
    m_.enforce_us.Add(enforce.us());
    m_.enforce_warm_us.Add(l.enforce.us());
    m_.execute_us.Add(l.execute.us());
    m_.route_self_us.Add(routed.us() - l.submit.us());
    m_.submit_self_us.Add(l.submit.us() - l.parse.us() - l.enforce.us() -
                          l.execute.us());
  }

  // ---- Operations ----

  /// Routed read of the workload's next text on `shard`.
  void Read(int client, uint64_t k, shard::ShardId shard) {
    auto [text, idx] = TextFor(client, k);
    const bool sampled = Sampled(k);
    std::shared_ptr<store::DurableResourceManager> primary;
    std::optional<Interval> first_enforce;
    if (sampled) {
      primary = cluster_->Primary(shard);
      first_enforce = FirstSightEnforce(*primary, text);
    }
    std::vector<size_t> marks;
    if (idx != SIZE_MAX && spec_.clients > 1) marks = GrantMarks();
    Interval routed{NowUs(), 0};
    auto r = router_->Enforce(keys_[shard], text);
    routed.end = NowUs();
    m_.lookup_us.Add(Busy(routed.us()));
    NoteLookup(k, routed.us(), sampled);
    CountOutcome(r);
    if (spec_.clients > 1) {
      CheckConcurrentRead(idx, r, HeldSince(client, marks, shard), nullptr);
    } else {
      CheckRead(shard, text, r);
    }
    if (sampled) RecordRead(routed, TimeLayers(*primary, text), first_enforce);
  }

  /// Acquire -> (Enforce of the same text) -> Release through the router.
  void AcquireRelease(int client, uint64_t k, bool with_read) {
    auto [text, idx] = TextFor(client, k);
    const shard::ShardId shard =
        idx == SIZE_MAX ? static_cast<shard::ShardId>(k % kShards)
                        : static_cast<shard::ShardId>(idx % kShards);
    const std::string& key = keys_[shard];
    const bool concurrent = spec_.clients > 1;
    const bool sampled = Sampled(k);
    std::vector<size_t> marks;
    if (concurrent) marks = GrantMarks();

    const uint64_t wal_acquire = WalOffset(shard);
    // Held from before the grant until it is noted, so a concurrent read
    // check never misses a lease that was already live.
    std::unique_lock<std::mutex> noting(*acquire_mu_[client]);
    Result<core::Lease> lease = Status::ExecutionError("not run");
    if (sampled) {
      // The durable layer's own Acquire, then Submit of the same text:
      // the difference is journal + lease claim. The router adds only key
      // resolution to a mutation; its self time is taken on reads.
      auto primary = cluster_->Primary(shard);
      if (spec_.fresh_texts) (void)TimeSubmit(*primary, text);  // See FirstSightEnforce.
      Interval acquired{NowUs(), 0};
      lease = primary->Acquire(text);
      acquired.end = NowUs();
      Interval submit = TimeSubmit(*primary, text);
      uint64_t req = tracer_->NewRequest();
      int64_t root = tracer_->Record(req, "store.acquire", acquired.start,
                                     acquired.end, -1);
      tracer_->Record(req, "core.submit", submit.start, submit.end, root);
      m_.acquire_self_us.Add(Busy(acquired.us()) - submit.us());
    } else {
      double t0 = NowUs();
      lease = router_->Acquire(key, text);
      m_.acquire_us.Add(Busy(NowUs() - t0));
    }
    NoteQueueDepth(shard);
    if (counting_) ++window_.requests;
    if (lease.ok()) Journaled(shard, wal_acquire);

    // Oracle: the grant must be a reference candidate.
    if (lease.ok()) {
      const org::ResourceRef& g = lease->resource;
      if (concurrent) {
        const auto& want = static_answers_[idx];
        acct_.Check(want.ok() && CandidateSet(*want).count(g) > 0,
                    "grant " + g.ToString() + " not a candidate of " + text);
      } else {
        auto want = refs_[shard].rm->Submit(text);
        acct_.Check(want.ok() && CandidateSet(*want).count(g) > 0,
                    "grant " + g.ToString() + " not a candidate of " + text);
        acct_.Check(refs_[shard].rm->AllocateLease(g).ok(),
                    "reference cannot mirror grant " + g.ToString());
      }
      NoteGrant(client, shard, g);
      noting.unlock();
    } else if (concurrent) {
      noting.unlock();
      const auto& want = static_answers_[idx];
      RefSet held = HeldSince(client, marks, shard);
      bool ok = lease.status().code() == StatusCode::kResourceUnavailable ||
                lease.status().code() == StatusCode::kNoQualifiedResource;
      if (ok && want.ok()) {
        for (const auto& r : CandidateSet(*want)) ok = ok && held.count(r) > 0;
      }
      acct_.Check(ok, "acquire failed: " + lease.status().ToString());
    } else {
      auto want = refs_[shard].rm->Submit(text);
      bool ok = want.ok() && lease.status().code() == want->status.code() &&
                want->candidates.empty();
      acct_.Check(ok, "acquire refused unlike the reference: " +
                          lease.status().ToString());
    }

    if (with_read) {
      const bool read_sampled = Sampled(k + kTraceEvery / 2);
      std::shared_ptr<store::DurableResourceManager> primary;
      std::optional<Interval> first_enforce;
      if (read_sampled) {
        primary = cluster_->Primary(shard);
        first_enforce = FirstSightEnforce(*primary, text);
      }
      std::vector<size_t> rmarks;
      if (concurrent) rmarks = GrantMarks();
      Interval routed{NowUs(), 0};
      auto r = router_->Enforce(key, text);
      routed.end = NowUs();
      m_.lookup_us.Add(Busy(routed.us()));
      NoteLookup(k, routed.us(), read_sampled);
      m_.main_ops.fetch_add(1, std::memory_order_relaxed);
      CountOutcome(r);
      if (concurrent) {
        const org::ResourceRef* own = lease.ok() ? &lease->resource : nullptr;
        RefSet held = HeldSince(client, rmarks, shard);
        if (own) held.insert(*own);
        CheckConcurrentRead(idx, r, held, own);
      } else {
        CheckRead(shard, text, r);
      }
      if (read_sampled) {
        RecordRead(routed, TimeLayers(*primary, text), first_enforce);
      }
    }

    if (lease.ok()) {
      NoteRelease(shard, lease->resource);
      const uint64_t wal_release = WalOffset(shard);
      double t2 = NowUs();
      Status st = router_->Release(key, *lease);
      m_.release_us.Add(Busy(NowUs() - t2));
      m_.main_ops.fetch_add(1, std::memory_order_relaxed);
      acct_.Check(st.ok(), "release: " + st.ToString());
      if (st.ok()) {
        Journaled(shard, wal_release);
        if (!concurrent) {
          acct_.Check(refs_[shard].rm->Release(lease->resource).ok(),
                      "reference cannot mirror release");
        }
      }
    }
    m_.main_ops.fetch_add(1, std::memory_order_relaxed);
  }

  /// EnforceBatch of kBatchItems texts across both shards; successive
  /// batches walk through all the fixed texts.
  void Batch(int client, uint64_t k) {
    std::vector<shard::BatchItem> items;
    std::vector<size_t> idxs;
    std::vector<shard::ShardId> homes;
    const uint64_t first = batches_++ * kBatchItems;
    for (size_t i = 0; i < kBatchItems; ++i) {
      auto [text, idx] = TextFor(client, first + i);
      shard::ShardId s = idx == SIZE_MAX ? static_cast<shard::ShardId>(i % kShards)
                                         : static_cast<shard::ShardId>(idx % kShards);
      items.push_back({keys_[s], text});
      idxs.push_back(idx);
      homes.push_back(s);
    }
    const bool sampled = Sampled(k + 1);
    std::vector<std::shared_ptr<store::DurableResourceManager>> primaries;
    if (sampled) {
      for (shard::ShardId s = 0; s < kShards; ++s) {
        primaries.push_back(cluster_->Primary(s));
      }
      if (spec_.fresh_texts) {  // See FirstSightEnforce.
        for (size_t i = 0; i < items.size(); ++i) {
          (void)TimeSubmit(*primaries[homes[i]], items[i].rql);
        }
      }
    }
    std::vector<size_t> marks;
    if (spec_.clients > 1) marks = GrantMarks();
    Interval batch{NowUs(), 0};
    auto results = router_->EnforceBatch(items);
    batch.end = NowUs();
    m_.batch_us.Add(Busy(batch.us()));
    bool shape = results.size() == items.size();
    acct_.Check(shape, "batch returned a different number of results");
    if (!shape) return;
    std::vector<RefSet> held(kShards);
    for (shard::ShardId s = 0; s < kShards && spec_.clients > 1; ++s) {
      held[s] = HeldSince(client, marks, s);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      acct_.Check(results[i].shard == homes[i],
                  "batch item answered by the wrong shard");
      CountOutcome(results[i].outcome);
      if (spec_.clients > 1) {
        CheckConcurrentRead(idxs[i], results[i].outcome, held[homes[i]],
                            nullptr);
      } else {
        CheckRead(homes[i], items[i].rql, results[i].outcome);
      }
    }
    if (!sampled) return;
    // Each shard's group submitted directly and serially; the slowest
    // group is what the scatter/gather waits for.
    uint64_t req = tracer_->NewRequest();
    int64_t root = tracer_->Record(req, "shard.batch", batch.start, batch.end, -1);
    std::vector<double> group(kShards, 0);
    for (size_t i = 0; i < items.size(); ++i) {
      Interval submit = TimeSubmit(*primaries[homes[i]], items[i].rql);
      tracer_->Record(req, "core.submit", submit.start, submit.end, root);
      group[homes[i]] += submit.us();
    }
    m_.batch_self_us.Add(batch.us() -
                         *std::max_element(group.begin(), group.end()));
  }

  /// Routed AddPolicyText of one requirement policy, mirrored into the
  /// shard's reference.
  void Update(uint64_t k) {
    const shard::ShardId shard = static_cast<shard::ShardId>(k % kShards);
    std::string text = NextPolicy();
    const uint64_t wal_before = WalOffset(shard);
    double t0 = NowUs();
    Status st = router_->AddPolicyText(keys_[shard], text);
    m_.update_us.Add(Busy(NowUs() - t0));
    acct_.Check(st.ok(), "policy update: " + st.ToString());
    if (!st.ok()) return;
    Journaled(shard, wal_before);
    acct_.Check(refs_[shard].world->store().AddPolicyText(text).ok(),
                "reference rejected " + text);
  }

  /// One operation of the main traffic.
  void MainOp(int client, uint64_t k) {
    if (spec_.name == "assign_warm") {
      if (client == 0 && k % 32 == 31) {
        Batch(client, k);
        m_.main_ops.fetch_add(1, std::memory_order_relaxed);
      }
      AcquireRelease(client, k, /*with_read=*/true);
      return;
    }
    // policy_churn.
    if (k % 50 == 49) {
      Update(k / 50);
    } else if (k % 8 == 7) {
      Batch(client, k);
    } else {
      Read(client, k, static_cast<shard::ShardId>(k % kShards));
    }
    m_.main_ops.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drain -> Open -> first routed answer from every shard. The caller's
  /// DurableResourceManager handles must all be gone before Drain: a
  /// handle kept alive keeps its home locked, and the reopen then fails
  /// with "home locked ... already open in this process".
  /// `fingerprints` holds the primaries' fingerprints when nothing has
  /// changed since they were taken (empty otherwise) and receives the
  /// reopened ones.
  void Restart(uint64_t k, bool record_catchup,
               std::vector<std::string>* fingerprints) {
    std::vector<std::string> before = std::move(*fingerprints);
    fingerprints->clear();
    for (shard::ShardId s = before.size(); s < kShards; ++s) {
      before.push_back(cluster_->Primary(s)->StateFingerprint(false));
    }
    std::vector<std::string> first_texts;
    for (shard::ShardId s = 0; s < kShards; ++s) {
      first_texts.push_back(TextFor(0, k + s).first);
    }
    if (counting_) AddStoreStats();
    double t0 = NowUs();
    router_retries_ += router_->retries();
    MustOk(router_->Drain(), "router drain");
    router_.reset();
    cluster_.reset();
    double t1 = NowUs();
    OpenCluster();
    double t2 = NowUs();
    if (counting_) stats_mark_ = ShardStats();
    std::vector<Result<core::QueryOutcome>> first;
    std::vector<double> first_us;
    for (shard::ShardId s = 0; s < kShards; ++s) {
      double a = NowUs();
      first.push_back(router_->Enforce(keys_[s], first_texts[s]));
      first_us.push_back(NowUs() - a);
    }
    double t3 = NowUs();
    m_.restart_ms.Add(Busy(t3 - t0) / 1e3);
    m_.drain_ms.Add((t1 - t0) / 1e3);
    m_.open_ms.Add((t2 - t1) / 1e3);
    if (tracer_->enabled()) {
      uint64_t req = tracer_->NewRequest();
      int64_t root = tracer_->Record(req, "restart", t0, t3, -1);
      tracer_->Record(req, "shard.drain", t0, t1, root);
      tracer_->Record(req, "store.open", t1, t2, root);
      tracer_->Record(req, "shard.first_answer", t2, t3, root);
    }
    uint64_t reads = 0, evictions = 0;
    for (shard::ShardId s = 0; s < kShards; ++s) {
      auto primary = cluster_->Primary(s);
      reads += primary->page_stats().pager.disk_reads;
      evictions += primary->page_stats().pager.evictions;
    }
    if (counting_) {
      window_.pager_reads += reads;
      window_.pager_evictions += evictions;
      ++window_.restarts;
    }
    for (shard::ShardId s = 0; s < kShards; ++s) {
      CountOutcome(first[s]);
      CheckRead(s, first_texts[s], first[s]);
      double a = NowUs();
      auto warm = router_->Enforce(keys_[s], first_texts[s]);
      m_.hydrate_ms.Add((first_us[s] - (NowUs() - a)) / 1e3);
      CheckRead(s, first_texts[s], warm);
      fingerprints->push_back(cluster_->Primary(s)->StateFingerprint(false));
      acct_.Check(fingerprints->back() == before[s],
                  "shard " + std::to_string(s) + " reopened to other state");
    }
    CatchUp(record_catchup);
  }

  /// restart_cold's cycle: traffic, checkpoint, a WAL tail, restart,
  /// catch-up.
  void RestartCycle() {
    uint64_t k = cycle_ops_;
    for (int i = 0; i < 100; ++i, ++k) AcquireRelease(0, k, /*with_read=*/false);
    for (int i = 0; i < 2; ++i, ++k) {
      Update(k);
      m_.main_ops.fetch_add(1, std::memory_order_relaxed);
    }
    for (shard::ShardId s = 0; s < kShards; ++s) {
      double t0 = NowUs();
      MustOk(cluster_->Checkpoint(s), "checkpoint");
      m_.checkpoint_ms.Add(Busy(NowUs() - t0) / 1e3);
    }
    for (int i = 0; i < 25; ++i, ++k) AcquireRelease(0, k, /*with_read=*/false);
    std::vector<std::string> fingerprints;
    Restart(k, /*record_catchup=*/true, &fingerprints);
    m_.main_ops.fetch_add(kShards, std::memory_order_relaxed);
    cycle_ops_ = k + kShards;
  }

  WorkloadSpec spec_;
  std::string dir_;
  Tracer* tracer_;
  Accounting acct_;
  Metrics m_;
  WindowCounts window_;
  std::vector<policy::StoreStatsSnapshot> stats_mark_;
  bool counting_ = false;
  Gate gate_;
  double deadline_us_ = 0;
  double busy_us_ = 0;
  uint64_t cycle_ops_ = 0;
  uint64_t batches_ = 0;
  uint64_t texts_drawn_ = 0;
  uint64_t router_retries_ = 0;

  std::mutex rng_mu_;
  std::mt19937 rng_;
  std::unique_ptr<policy::SyntheticWorkload> generator_;
  const policy::SyntheticWorkload* generator_world_ = nullptr;
  std::vector<std::string> texts_;
  std::vector<Reference> refs_;
  std::vector<Result<core::QueryOutcome>> static_answers_;

  std::unique_ptr<shard::ShardMap> map_;
  std::unique_ptr<shard::ShardCluster> cluster_;
  std::unique_ptr<shard::ShardRouter> router_;
  std::vector<std::string> keys_;
  std::atomic<uint64_t> records_[kShards] = {};

  std::mutex held_mu_;
  std::set<std::pair<shard::ShardId, org::ResourceRef>> held_;
  std::vector<std::vector<std::pair<shard::ShardId, org::ResourceRef>>> grants_;
  /// One per client; see AcquireRelease.
  std::vector<std::unique_ptr<std::mutex>> acquire_mu_;
};

// ---- Reporting ---------------------------------------------------------------

struct Reported {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--seed", "--seconds", "--dir"}) {
    if (!args.count(required)) Die(std::string("missing ") + required);
  }
  const std::string workload = args["--workload"];
  const uint64_t seed = std::stoull(args["--seed"]);
  const double seconds = std::stod(args["--seconds"]);
  const bool traced = args.count("--trace") && args["--trace"] == "1";
  const std::string dir = args["--dir"];

  WorkloadSpec spec = MakeSpec(workload, seed);
  Tracer tracer(traced);
  Bench bench(spec, &tracer);

  // Several full set-ups; each is followed by the single-client count
  // window, whose counts must repeat exactly across the set-ups.
  std::vector<double> setups;
  std::vector<WindowCounts> windows;
  double phase = NowUs();
  auto log_phase = [&](const std::string& name) {
    double now = NowUs();
    std::fprintf(stderr, "phase %-12s %8.2f s\n", name.c_str(),
                 (now - phase) / 1e6);
    phase = now;
  };
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(bench.Setup(dir + "/setup" + std::to_string(i)));
    log_phase("setup");
    bench.CountWindow();
    windows.push_back(bench.window());
    log_phase("window");
  }
  for (const WindowCounts& w : windows) {
    bench.acct().Check(w == windows[0], "count window did not repeat: " +
                                            w.ToString() + " vs " +
                                            windows[0].ToString());
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];

  bench.RunMain(seconds);
  log_phase("main");
  bench.Complement();
  log_phase("complement");
  bench.Finish();
  log_phase("finish");

  Metrics& m = bench.metrics();
  const WindowCounts& w = bench.window();
  std::vector<Reported> out;
  if (!traced) {
    out.push_back({"setup_s", setup_s, "s", setups.size()});
    out.push_back({"acquire_p50_us", m.acquire_us.Quantile(0.5), "us", m.acquire_us.size()});
    out.push_back({"acquire_p99_us", m.acquire_us.Quantile(0.99), "us", m.acquire_us.size()});
    out.push_back({"release_p50_us", m.release_us.Quantile(0.5), "us", m.release_us.size()});
    out.push_back({"lookup_p50_us", m.lookup_us.Quantile(0.5), "us", m.lookup_us.size()});
    out.push_back({"lookup_p99_us", m.lookup_us.Quantile(0.99), "us", m.lookup_us.size()});
    out.push_back({"batch_p50_us", m.batch_us.Quantile(0.5), "us", m.batch_us.size()});
    out.push_back({"batch_p99_us", m.batch_us.Quantile(0.99), "us", m.batch_us.size()});
    out.push_back({"policy_update_p50_us", m.update_us.Quantile(0.5), "us", m.update_us.size()});
    out.push_back({"ops_per_s", bench.ops_per_s(), "1/s", m.main_ops.load()});
    out.push_back({"repl_catchup_ms", m.catchup_ms.Quantile(0.5), "ms", m.catchup_ms.size()});
    out.push_back({"restart_ms", m.restart_ms.Quantile(0.5), "ms", m.restart_ms.size()});
  } else {
    const double p = m.parse_us.Quantile(0.5), e = m.enforce_us.Quantile(0.5),
                 x = m.execute_us.Quantile(0.5);
    const double core_self = m.submit_self_us.Quantile(0.5);
    const double route_self = m.route_self_us.Quantile(0.5);
    const double route = m.route_us.Quantile(0.5);
    const size_t n = m.route_us.size();
    out.push_back({"rql.parse_bind_us", p, "us", m.parse_us.size()});
    out.push_back({"policy.enforce_us", e, "us", m.enforce_us.size()});
    out.push_back({"policy.rewrite_hit_ratio", Ratio(w.rewrite_hits, w.rewrite_hits + w.rewrite_misses), "ratio", w.rewrite_hits + w.rewrite_misses});
    out.push_back({"policy.epoch_cache_hit_ratio", Ratio(w.epoch_hits, w.epoch_probes), "ratio", w.epoch_probes});
    out.push_back({"policy.compiled_builds_per_1k", 1000 * Ratio(w.compiled_builds, w.requests), "count", w.requests});
    out.push_back({"policy.candidate_rows_per_retrieval", Ratio(w.candidate_rows, w.retrievals), "count", w.retrievals});
    out.push_back({"rel.execute_us", x, "us", m.execute_us.size()});
    out.push_back({"rel.queries_per_request", Ratio(w.queries, w.reads), "count", w.reads});
    out.push_back({"rel.rows_per_request", Ratio(w.rows, w.reads), "count", w.reads});
    out.push_back({"core.submit_self_us", core_self, "us", m.submit_self_us.size()});
    out.push_back({"core.candidates_per_request", Ratio(w.candidates, w.reads), "count", w.reads});
    out.push_back({"core.substitution_ratio", Ratio(w.substituted, w.reads), "ratio", w.reads});
    out.push_back({"store.acquire_self_us", m.acquire_self_us.Quantile(0.5), "us", m.acquire_self_us.size()});
    out.push_back({"store.wal_bytes_per_mutation", Ratio(w.wal_bytes, w.mutations), "bytes", w.mutations});
    out.push_back({"store.repl_pump_p50_us", m.pump_us.Quantile(0.5), "us", m.pump_us.size()});
    out.push_back({"store.repl_pump_p99_us", m.pump_us.Quantile(0.99), "us", m.pump_us.size()});
    out.push_back({"store.repl_lag_records_max", m.lag_records.Max(), "count", m.lag_records.size()});
    out.push_back({"store.checkpoint_ms", m.checkpoint_ms.Quantile(0.5), "ms", m.checkpoint_ms.size()});
    out.push_back({"store.open_ms", m.open_ms.Quantile(0.5), "ms", m.open_ms.size()});
    out.push_back({"store.hydrate_ms", m.hydrate_ms.Quantile(0.5), "ms", m.hydrate_ms.size()});
    out.push_back({"store.pager_disk_reads_per_restart", Ratio(w.pager_reads, w.restarts), "count", w.restarts});
    out.push_back({"store.pager_evictions_per_restart", Ratio(w.pager_evictions, w.restarts), "count", w.restarts});
    out.push_back({"store.bloom_skip_ratio", Ratio(w.bloom_skips, w.bloom_probes), "ratio", w.bloom_probes});
    out.push_back({"shard.route_self_us", route_self, "us", m.route_self_us.size()});
    out.push_back({"shard.batch_self_us", m.batch_self_us.Quantile(0.5), "us", m.batch_self_us.size()});
    out.push_back({"shard.drain_ms", m.drain_ms.Quantile(0.5), "ms", m.drain_ms.size()});
    out.push_back({"shard.retries", static_cast<double>(bench.router_retries()), "count", 1});
    out.push_back({"shard.queue_depth_max", static_cast<double>(m.queue_depth_max.load()), "count", 1});
    out.push_back({"trace.unattributed_us", route - (p + m.enforce_warm_us.Quantile(0.5) + x + core_self + route_self), "us", n});
    const double untraced = m.untraced_lookup_us.Quantile(0.5);
    out.push_back({"trace.overhead_pct", untraced <= 0 ? 0 : 100 * (m.traced_lookup_us.Quantile(0.5) - untraced) / untraced, "%", m.traced_lookup_us.size()});
    out.push_back({"trace.lookup_p50_us", m.lookup_us.Quantile(0.5), "us", m.lookup_us.size()});
    out.push_back({"trace.ops_per_s", bench.ops_per_s(), "1/s", m.main_ops.load()});
  }

  Accounting& acct = bench.acct();
  const uint64_t attempted = std::max<uint64_t>(1, acct.attempted.load());
  const uint64_t failed = acct.failed.load();
  for (const std::string& e : acct.first_errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  for (const Reported& r : out) {
    std::printf("metric %-40s %14.4f %-6s samples=%zu\n", r.name.c_str(),
                r.value, r.unit.c_str(), r.samples);
  }
  std::printf("metric %-40s %14.6f %-6s samples=%llu\n", "error_rate",
              Ratio(failed, attempted), "ratio",
              static_cast<unsigned long long>(attempted));
  if (traced && args.count("--spans")) tracer.Write(args["--spans"]);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

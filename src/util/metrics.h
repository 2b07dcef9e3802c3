// Engine-wide metrics: a process-global registry of atomic counters, gauges,
// and fixed-bucket histograms.
//
// Design goals (see DESIGN.md "Engine-wide observability"):
//  - Hot-path updates are single relaxed atomic operations — no locks, no
//    allocation. Registration (name lookup) is mutex-guarded but happens once
//    per call site: instrumented components cache the returned pointers,
//    which stay valid for the registry's lifetime.
//  - Snapshots are taken while worker threads run; per-metric reads are
//    relaxed atomic loads, so a snapshot is a consistent-enough view for
//    monitoring (each individual value is exact at some instant).
//  - The whole subsystem compiles to no-ops under -DRELOPT_DISABLE_METRICS
//    (CMake option RELOPT_DISABLE_METRICS), for overhead A/B benchmarks.
//
// Rendering: RenderPrometheus() emits the Prometheus text exposition format
// for a future serving layer's /metrics endpoint; Snapshot() feeds the
// relopt_metrics() SQL table function; ToJson() backs benchmark dumps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace relopt {

/// Monotonically increasing count (relaxed atomic).
class MetricCounter {
 public:
  void Add(uint64_t n = 1) {
#ifndef RELOPT_DISABLE_METRICS
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level that can move both ways (queue depths, live objects).
class MetricGauge {
 public:
  void Add(int64_t n) {
#ifndef RELOPT_DISABLE_METRICS
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Sub(int64_t n) { Add(-n); }
  void Set(int64_t n) {
#ifndef RELOPT_DISABLE_METRICS
    v_.store(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Fixed-bucket histogram for latencies and sizes.
///
/// Bucket upper bounds are set at registration and never change; Observe()
/// does one binary search plus three relaxed atomic adds. Percentiles are
/// computed from a snapshot by linear interpolation inside the owning bucket;
/// samples above the last bound land in an overflow bucket whose percentile
/// reports the maximum observed value (tracked exactly).
class MetricHistogram {
 public:
  /// `bounds` must be strictly increasing upper bounds (at least one).
  explicit MetricHistogram(std::vector<double> bounds);

  void Observe(double value);

  /// Exponential defaults for microsecond latencies: 1us .. 10s.
  static std::vector<double> LatencyBucketsUs();
  /// Exponential defaults for row/byte counts: 1 .. 1e9.
  static std::vector<double> SizeBuckets();

  /// A point-in-time copy of the histogram state.
  struct Snapshot {
    std::vector<double> bounds;         ///< per-bucket upper bounds
    std::vector<uint64_t> counts;       ///< bounds.size() + 1 (last = overflow)
    uint64_t total_count = 0;
    double sum = 0;
    double max_value = 0;  ///< largest observation (0 when empty)

    /// Percentile in [0, 1]; 0 when the histogram is empty. Exact for the
    /// single-sample case (returns the mean of the owning bucket's range or
    /// max_value for the overflow bucket), monotone in q.
    double Percentile(double q) const;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  ///< bounds_.size() + 1
  std::atomic<uint64_t> total_count_{0};
  /// Sum and max stored as bit-cast doubles (CAS loops); values must be >= 0.
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> max_bits_{0};
};

/// One row of a registry snapshot (the relopt_metrics() row format).
struct MetricSample {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  double value = 0;  ///< counter/gauge value; histogram sum
  uint64_t count = 0;  ///< histogram observation count (0 otherwise)
  double p50 = 0, p95 = 0, p99 = 0;  ///< histograms only
};

/// \brief Name -> metric registry. Metric objects are never deleted, so the
/// pointers handed out are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. Names use dotted lower-case segments
  /// ("relopt.pool.hits"); RenderPrometheus maps '.' to '_'.
  MetricCounter* counter(const std::string& name);
  MetricGauge* gauge(const std::string& name);
  /// `bounds` applies only on first creation.
  MetricHistogram* histogram(const std::string& name, std::vector<double> bounds);

  /// Flat snapshot of every registered metric, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus text exposition format (# TYPE lines + samples; histograms
  /// as cumulative _bucket/_sum/_count series).
  std::string RenderPrometheus() const;

  /// JSON object {"name": {...}, ...} for benchmark snapshot dumps.
  std::string ToJson() const;

  /// The process-wide registry the engine instruments.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<MetricHistogram> histogram;
  };

  mutable std::mutex mu_;  ///< guards entries_ (not metric updates)
  // Sorted name -> entry; insertion-only.
  std::vector<std::pair<std::string, Entry>> entries_;

  Entry* FindLocked(const std::string& name);
};

/// \brief Cached pointers to the engine's standard instrumentation metrics in
/// the global registry. `Get()` resolves them once per process; hot paths pay
/// only the atomic bump.
struct EngineMetrics {
  // storage
  MetricCounter* disk_page_reads;
  MetricCounter* disk_page_writes;
  MetricCounter* disk_pages_allocated;
  MetricCounter* pool_hits;
  MetricCounter* pool_misses;
  MetricCounter* pool_evictions;
  MetricCounter* pool_dirty_writebacks;
  MetricCounter* pool_latch_waits;  ///< contended pool-mutex acquisitions
  // thread pool
  MetricCounter* threadpool_tasks_queued;
  MetricCounter* threadpool_tasks_run;
  MetricCounter* threadpool_busy_nanos;
  MetricGauge* threadpool_queue_depth;
  // optimizer
  MetricCounter* optimizer_optimizations;
  MetricCounter* optimizer_joins_costed;
  MetricCounter* optimizer_plans_kept;
  MetricCounter* optimizer_plan_cache_hits;
  MetricCounter* optimizer_plan_cache_misses;
  MetricCounter* optimizer_plan_cache_evictions;
  MetricCounter* optimizer_plan_cache_invalidations;
  MetricCounter* optimizer_feedback_records;        ///< actuals harvested into the store
  MetricCounter* optimizer_feedback_overrides;      ///< estimates replaced by observations
  MetricCounter* optimizer_feedback_invalidations;  ///< entries dropped (DDL/ANALYZE/DML)
  // join enumeration (bumped once per optimized join block; see
  // JoinEnumStats for the per-optimization counterparts)
  MetricCounter* join_enum_joins_costed;
  MetricCounter* join_enum_dp_entries;
  MetricCounter* join_enum_subsets_visited;
  MetricCounter* join_enum_csg_cmp_pairs;
  MetricCounter* join_enum_disconnected_skips;
  MetricCounter* join_enum_budget_fallbacks;
  /// One counter per JoinEnumAlgorithm value (same order as the enum),
  /// counting join blocks whose final plan that strategy produced.
  static constexpr size_t kJoinEnumStrategies = 8;
  MetricCounter* join_enum_strategy[kJoinEnumStrategies];
  // serving layer
  MetricCounter* engine_sessions_opened;
  MetricCounter* engine_statements_prepared;
  MetricCounter* engine_prepared_executions;
  MetricHistogram* optimizer_optimize_us;
  // executor / engine
  MetricCounter* exec_rows_produced;
  MetricCounter* exec_batches_produced;
  /// Always 0: every expression runs compiled kernels. Kept registered
  /// because perfbench reads it (`exec.fallback_rows`).
  MetricCounter* exec_batch_fallback_rows;
  MetricCounter* exec_statements_failed;
  MetricHistogram* engine_statement_us;
  MetricHistogram* engine_statement_rows;

  static const EngineMetrics& Get();
};

}  // namespace relopt

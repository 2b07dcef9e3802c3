#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "storage/page.h"

namespace relopt {

double CostModel::EstimatePages(double rows, double row_bytes) {
  if (rows <= 0) return 0;
  double per_page = std::max(1.0, std::floor(static_cast<double>(kPageSize) / row_bytes));
  return std::ceil(rows / per_page);
}

double CostModel::YaoPagesTouched(double k, double pages) {
  if (pages <= 0 || k <= 0) return 0;
  if (k >= pages * 32) return pages;  // saturated
  return pages * (1.0 - std::pow(1.0 - 1.0 / pages, k));
}

size_t CostModel::OperatorMemoryPages() const {
  return buffer_pages_ > 8 ? buffer_pages_ - 8 : 1;
}

size_t CostModel::MergeFanIn() const { return std::max<size_t>(2, OperatorMemoryPages() - 1); }

Cost CostModel::SeqScan(double rows, double pages) const { return Cost{pages, rows}; }

Cost CostModel::IndexScan(double matching_rows, double selected_frac, double table_rows,
                          double pages, int height, double leaf_pages, bool clustered) const {
  (void)table_rows;
  Cost c;
  c.page_ios = static_cast<double>(height);
  c.page_ios += std::max(1.0, selected_frac * leaf_pages);
  if (clustered) {
    c.page_ios += std::max(matching_rows > 0 ? 1.0 : 0.0, selected_frac * pages);
  } else {
    // Random heap fetches, capped by Yao's formula (re-fetches of a cached
    // page still cost a buffer hit, but distinct pages dominate at the scale
    // the model cares about).
    c.page_ios += YaoPagesTouched(matching_rows, pages);
  }
  c.cpu_tuples = matching_rows;
  return c;
}

Cost CostModel::Filter(double input_rows) const { return Cost{0, input_rows}; }
Cost CostModel::Project(double input_rows) const { return Cost{0, input_rows}; }

Cost CostModel::Aggregate(double input_rows, double groups) const {
  return Cost{0, input_rows + groups};
}

Cost CostModel::Sort(double rows, double pages, double* runs_out, double* passes_out) const {
  const double memory = static_cast<double>(OperatorMemoryPages());
  if (runs_out) *runs_out = 0;
  if (passes_out) *passes_out = 0;
  if (pages <= memory) {
    // In-memory: CPU only.
    double cmp = rows > 1 ? rows * std::log2(rows) : rows;
    return Cost{0, cmp};
  }
  double runs = std::ceil(pages / memory);
  const double fanin = static_cast<double>(MergeFanIn());
  double passes = 0;
  double r = runs;
  while (r > fanin) {
    r = std::ceil(r / fanin);
    passes += 1;
  }
  if (runs_out) *runs_out = runs;
  if (passes_out) *passes_out = passes;
  // Run generation: write all pages. Each intermediate pass: read + write.
  // Final merge: read. Total = 2*pages*(1 + passes).
  double ios = 2.0 * pages * (1.0 + passes);
  double cmp = rows > 1 ? rows * std::log2(rows) : rows;
  return Cost{ios, cmp + rows * passes};
}

Cost CostModel::NestedLoop(double outer_rows, Cost inner_rerun_cost, double inner_rows) const {
  Cost c;
  c.page_ios = outer_rows * inner_rerun_cost.page_ios;
  c.cpu_tuples = outer_rows * std::max(inner_rows, 1.0);
  return c;
}

Cost CostModel::BlockNestedLoop(double outer_rows, double outer_pages, Cost inner_rerun_cost,
                                double inner_rows) const {
  double block = std::max(1.0, static_cast<double>(OperatorMemoryPages()) - 2.0);
  double blocks = std::max(1.0, std::ceil(outer_pages / block));
  Cost c;
  c.page_ios = blocks * inner_rerun_cost.page_ios;
  c.cpu_tuples = outer_rows * std::max(inner_rows, 1.0);
  return c;
}

Cost CostModel::IndexNestedLoop(double outer_rows, int inner_index_height,
                                double matches_per_probe, double inner_pages, double inner_rows,
                                bool clustered) const {
  (void)inner_rows;
  Cost c;
  // Clustered: matching rows are contiguous; approximate one page per ~64
  // rows (typical fill), minimum one page when anything matches.
  double fetch_pages =
      clustered ? std::max(matches_per_probe > 0 ? 1.0 : 0.0, std::ceil(matches_per_probe / 64.0))
                : YaoPagesTouched(matches_per_probe, inner_pages);
  c.page_ios = outer_rows * (static_cast<double>(inner_index_height) + fetch_pages);
  c.cpu_tuples = outer_rows * std::max(matches_per_probe, 1.0);
  return c;
}

Cost CostModel::MergeJoin(double left_rows, double right_rows, double output_rows) const {
  return Cost{0, left_rows + right_rows + output_rows};
}

bool CostModel::HashBuildFits(double build_pages) const {
  return build_pages <= static_cast<double>(OperatorMemoryPages());
}

Cost CostModel::HashJoin(double build_rows, double build_pages, double probe_rows,
                         double probe_pages) const {
  Cost c;
  c.cpu_tuples = build_rows + probe_rows;
  if (!HashBuildFits(build_pages)) {
    // Grace: write both sides to partitions, read them back.
    c.page_ios += 2.0 * (build_pages + probe_pages);
    c.cpu_tuples += build_rows + probe_rows;
  }
  return c;
}

}  // namespace relopt

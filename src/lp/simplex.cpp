#include "lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::lp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotEps = 1e-8;

using util::mix64;

/// Dense simplex tableau. Row 0..m-1 are constraints; the objective is kept
/// as a separate reduced-cost vector updated by pivoting.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows), cols_(cols),
        cells_(static_cast<std::size_t>(rows) * cols, 0.0),
        rhs_(rows, 0.0), basis_(rows, -1) {}

  double& at(int r, int c) {
    return cells_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double at(int r, int c) const {
    return cells_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double& rhs(int r) { return rhs_[static_cast<std::size_t>(r)]; }
  double rhs(int r) const { return rhs_[static_cast<std::size_t>(r)]; }
  int& basis(int r) { return basis_[static_cast<std::size_t>(r)]; }
  int basis(int r) const { return basis_[static_cast<std::size_t>(r)]; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Pivot on (pivot_row, pivot_col): normalize the row and eliminate the
  /// column from all other rows and from the reduced costs.
  ///
  /// The arithmetic here — including the |factor| < kEps row skip, which
  /// also skips that row's rhs update — is replicated cell-for-cell by the
  /// warm-start replay in try_replay(); any change to one must be mirrored
  /// in the other or replayed solves stop being bit-identical.
  void pivot(int pivot_row, int pivot_col, std::vector<double>& reduced,
             double& objective_value) {
    const double pivot_value = at(pivot_row, pivot_col);
    RWC_CHECK(std::abs(pivot_value) > kPivotEps);
    const double inv = 1.0 / pivot_value;
    for (int c = 0; c < cols_; ++c) at(pivot_row, c) *= inv;
    rhs(pivot_row) *= inv;
    at(pivot_row, pivot_col) = 1.0;  // exact

    for (int r = 0; r < rows_; ++r) {
      if (r == pivot_row) continue;
      const double factor = at(r, pivot_col);
      if (std::abs(factor) < kEps) {
        at(r, pivot_col) = 0.0;
        continue;
      }
      for (int c = 0; c < cols_; ++c)
        at(r, c) -= factor * at(pivot_row, c);
      at(r, pivot_col) = 0.0;  // exact
      rhs(r) -= factor * rhs(pivot_row);
    }
    const double factor = reduced[static_cast<std::size_t>(pivot_col)];
    if (std::abs(factor) > 0.0) {
      for (int c = 0; c < cols_; ++c)
        reduced[static_cast<std::size_t>(c)] -= factor * at(pivot_row, c);
      reduced[static_cast<std::size_t>(pivot_col)] = 0.0;
      objective_value -= factor * rhs(pivot_row);
    }
    basis(pivot_row) = pivot_col;
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> cells_;
  std::vector<double> rhs_;
  std::vector<int> basis_;
};

enum class IterationOutcome { kOptimal, kUnbounded, kIterationLimit };

/// Runs simplex iterations minimizing the objective encoded in `reduced`.
/// `allowed_cols` marks columns eligible to enter the basis. Pivot count is
/// accumulated into `iterations_done` for the solver counters. When
/// `record` is non-null every pivot is appended to it tagged `kind`.
IterationOutcome iterate(Tableau& tableau, std::vector<double>& reduced,
                         double& objective_value,
                         const std::vector<bool>& allowed_cols,
                         int iteration_limit,
                         std::uint64_t& iterations_done,
                         std::vector<PivotRecording::Pivot>* record,
                         PivotRecording::PivotKind kind) {
  const int bland_after = iteration_limit / 2;
  for (int iteration = 0; iteration < iteration_limit;
       ++iteration, ++iterations_done) {
    const bool use_bland = iteration >= bland_after;

    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland, anti-cycling).
    int entering = -1;
    double best = -kEps;
    for (int c = 0; c < tableau.cols(); ++c) {
      if (!allowed_cols[static_cast<std::size_t>(c)]) continue;
      const double rc = reduced[static_cast<std::size_t>(c)];
      if (rc < best) {
        entering = c;
        best = rc;
        if (use_bland) break;
      }
    }
    if (entering < 0) return IterationOutcome::kOptimal;

    // Ratio test.
    int leaving = -1;
    double best_ratio = 0.0;
    for (int r = 0; r < tableau.rows(); ++r) {
      const double coeff = tableau.at(r, entering);
      if (coeff <= kPivotEps) continue;
      const double ratio = tableau.rhs(r) / coeff;
      if (leaving < 0 || ratio < best_ratio - kEps ||
          (use_bland && ratio < best_ratio + kEps &&
           tableau.basis(r) < tableau.basis(leaving))) {
        leaving = r;
        best_ratio = ratio;
      }
    }
    if (leaving < 0) return IterationOutcome::kUnbounded;

    if (record != nullptr)
      record->push_back(PivotRecording::Pivot{leaving, entering, kind});
    tableau.pivot(leaving, entering, reduced, objective_value);
  }
  return IterationOutcome::kIterationLimit;
}

/// Per-row normalization plan: sign flip for negative rhs, slack/surplus
/// and artificial column assignment.
struct RowPlan {
  double sign = 1.0;         // row multiplier to make rhs >= 0
  int slack_col = -1;        // slack/surplus column
  double slack_coeff = 0.0;  // +1 slack, -1 surplus (after sign flip)
  int artificial_col = -1;
};

/// The solve-time shape of a problem: materialized rows (upper bounds
/// lowered to `x_j <= ub`), per-row plans and the column layout
/// [structural n][slack/surplus][artificials]. Shared by the cold solve and
/// the warm-start replay so both build bit-identical tableaus.
struct Prepared {
  std::vector<LpProblem::Row> rows;
  std::vector<RowPlan> plan;
  int m = 0;
  int artificial_start = 0;
  int total_cols = 0;
  int iteration_limit = 0;
  bool has_artificials = false;
};

Prepared prepare(const std::vector<LpProblem::Row>& base_rows,
                 const std::vector<double>& upper_bounds, int n) {
  Prepared prep;

  // Materialize rows, lowering finite upper bounds to x_j <= ub.
  prep.rows = base_rows;
  for (int v = 0; v < n; ++v) {
    const double ub = upper_bounds[static_cast<std::size_t>(v)];
    if (std::isfinite(ub))
      prep.rows.push_back(
          LpProblem::Row{{Term{v, 1.0}}, Relation::kLessEqual, ub});
  }
  prep.m = static_cast<int>(prep.rows.size());

  // Normalize rhs >= 0 and decide which rows need artificials.
  prep.plan.resize(static_cast<std::size_t>(prep.m));
  int next_col = n;
  for (int r = 0; r < prep.m; ++r) {
    Relation rel = prep.rows[static_cast<std::size_t>(r)].relation;
    double rhs = prep.rows[static_cast<std::size_t>(r)].rhs;
    double sign = 1.0;
    if (rhs < 0.0) {
      sign = -1.0;
      rhs = -rhs;
      if (rel == Relation::kLessEqual)
        rel = Relation::kGreaterEqual;
      else if (rel == Relation::kGreaterEqual)
        rel = Relation::kLessEqual;
    }
    auto& p = prep.plan[static_cast<std::size_t>(r)];
    p.sign = sign;
    if (rel == Relation::kLessEqual) {
      p.slack_col = next_col++;
      p.slack_coeff = 1.0;
    } else if (rel == Relation::kGreaterEqual) {
      p.slack_col = next_col++;
      p.slack_coeff = -1.0;
    }
  }
  prep.artificial_start = next_col;
  for (int r = 0; r < prep.m; ++r) {
    auto& p = prep.plan[static_cast<std::size_t>(r)];
    // <= rows start basic on their slack; >= and = rows need an artificial.
    if (p.slack_coeff != 1.0) p.artificial_col = next_col++;
  }
  prep.total_cols = next_col;
  prep.has_artificials = prep.artificial_start < prep.total_cols;
  prep.iteration_limit = 200 * (prep.m + prep.total_cols) + 2000;
  return prep;
}

}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

LpWarmCache::LpWarmCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<const PivotRecording> LpWarmCache::find(
    std::uint64_t structural_fingerprint) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(structural_fingerprint);
  return it == entries_.end() ? nullptr : it->second;
}

void LpWarmCache::store(std::shared_ptr<const PivotRecording> recording) {
  RWC_EXPECTS(recording != nullptr && !recording->empty());
  const std::uint64_t key = recording->structural_fingerprint;
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = entries_.insert_or_assign(key,
                                                        std::move(recording));
  (void)it;
  if (inserted) insertion_order_.push_back(key);
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    const std::uint64_t victim = insertion_order_.front();
    insertion_order_.pop_front();
    entries_.erase(victim);
  }
}

std::size_t LpWarmCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

int LpProblem::add_variable(double objective_coefficient, double upper_bound,
                            std::string name) {
  RWC_EXPECTS(upper_bound >= 0.0);
  const int index = variable_count();
  objective_.push_back(objective_coefficient);
  upper_bounds_.push_back(upper_bound);
  if (name.empty()) name = "x" + std::to_string(index);
  names_.push_back(std::move(name));
  return index;
}

void LpProblem::add_constraint(std::vector<Term> terms, Relation relation,
                               double rhs) {
  for (const Term& t : terms)
    RWC_EXPECTS(t.variable >= 0 && t.variable < variable_count());
  rows_.push_back(Row{std::move(terms), relation, rhs});
}

const std::string& LpProblem::variable_name(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return names_[static_cast<std::size_t>(v)];
}

double LpProblem::objective_coefficient(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return objective_[static_cast<std::size_t>(v)];
}

double LpProblem::upper_bound(int v) const {
  RWC_EXPECTS(v >= 0 && v < variable_count());
  return upper_bounds_[static_cast<std::size_t>(v)];
}

LpFingerprints LpProblem::fingerprints() const {
  std::uint64_t exact = 0xcbf29ce484222325ULL;
  std::uint64_t structural = 0x9e3779b97f4a7c15ULL;
  const auto mix_both = [&](std::uint64_t value) {
    exact = mix64(exact, value);
    structural = mix64(structural, value);
  };
  mix_both(sense_ == Sense::kMinimize ? 0u : 1u);
  mix_both(static_cast<std::uint64_t>(variable_count()));
  mix_both(rows_.size());
  for (int v = 0; v < variable_count(); ++v) {
    mix_both(std::bit_cast<std::uint64_t>(
        objective_[static_cast<std::size_t>(v)]));
    // A finite upper bound becomes an `x_v <= ub` row at solve time:
    // finiteness is structure (the row exists, and ub >= 0 fixes its rhs
    // sign); the bound's value only ever reaches the rhs vector.
    const double ub = upper_bounds_[static_cast<std::size_t>(v)];
    mix_both(std::isfinite(ub) ? 1u : 0u);
    if (std::isfinite(ub))
      exact = mix64(exact, std::bit_cast<std::uint64_t>(ub));
  }
  for (const Row& row : rows_) {
    mix_both(static_cast<std::uint64_t>(row.relation));
    mix_both(row.terms.size());
    for (const Term& t : row.terms) {
      mix_both(static_cast<std::uint64_t>(t.variable));
      mix_both(std::bit_cast<std::uint64_t>(t.coefficient));
    }
    // The rhs SIGN is structural: a negative rhs flips the row's cells and
    // relation during normalization, so it changes the tableau everywhere,
    // not just in the rhs vector. The magnitude stays exact-only.
    mix_both(row.rhs < 0.0 ? 1u : 0u);
    exact = mix64(exact, std::bit_cast<std::uint64_t>(row.rhs));
  }
  // Reserve 0 as the "no recording" sentinel on both keys.
  return LpFingerprints{exact == 0 ? 1 : exact,
                        structural == 0 ? 1 : structural};
}

LpSolution LpProblem::solve() const { return solve_cold(nullptr); }

LpSolution LpProblem::solve(LpWarmCache* cache) const {
  if (cache == nullptr) return solve_cold(nullptr);
  static auto& memo_hits =
      obs::Registry::global().counter("lp.basis_reuse_memo_hits");
  static auto& hits = obs::Registry::global().counter("lp.basis_reuse_hits");
  static auto& rollbacks =
      obs::Registry::global().counter("lp.basis_reuse_rollbacks");
  static auto& misses =
      obs::Registry::global().counter("lp.basis_reuse_misses");

  const LpFingerprints prints = fingerprints();
  const auto cached = cache->find(prints.structural);
  if (cached != nullptr) {
    if (cached->exact_fingerprint == prints.exact) {
      // Whole-solution memo: the problem is bit-identical to the recorded
      // one. Still a solve for the lp.simplex.* counters (zero pivots).
      memo_hits.add();
      static auto& solves =
          obs::Registry::global().counter("lp.simplex.solves");
      solves.add();
      return cached->solution;
    }
    LpSolution replayed;
    if (try_replay(*cached, replayed)) {
      hits.add();
      return replayed;
    }
    rollbacks.add();
  } else {
    misses.add();
  }

  PivotRecording recording;
  LpSolution solution = solve_cold(&recording);
  if (solution.optimal()) {
    recording.exact_fingerprint = prints.exact;
    recording.structural_fingerprint = prints.structural;
    recording.solution = solution;
    cache->store(
        std::make_shared<const PivotRecording>(std::move(recording)));
  }
  return solution;
}

bool LpProblem::try_replay(const PivotRecording& rec, LpSolution& out) const {
  const int n = variable_count();
  const Prepared prep = prepare(rows_, upper_bounds_, n);
  const int m = prep.m;

  // Validate the recording against this structure up front: a fingerprint
  // collision must diverge cleanly, never index out of range.
  for (const PivotRecording::Pivot& p : rec.pivots) {
    if (p.row < 0 || p.row >= m || p.col < 0 || p.col >= prep.total_cols)
      return false;
  }

  // Pivot counters flushed on every exit path; a diverged replay counts
  // its pivots as work done but is not a completed solve (the cold
  // fallback will count that one).
  std::uint64_t iterations = 0;
  struct CounterFlush {
    const std::uint64_t& iterations;
    bool count_solve = false;
    ~CounterFlush() {
      static auto& solves =
          obs::Registry::global().counter("lp.simplex.solves");
      static auto& pivots =
          obs::Registry::global().counter("lp.simplex.iterations");
      if (count_solve) solves.add();
      pivots.add(iterations);
    }
  } flush{iterations};

  // Only the columns that ever pivot are materialized; everything else in
  // the dense tableau evolves rhs-independently and identically to the
  // recorded solve, so it never needs to be computed again.
  std::unordered_map<int, std::vector<double>> cols;
  for (const PivotRecording::Pivot& p : rec.pivots)
    cols.try_emplace(p.col, std::vector<double>(static_cast<std::size_t>(m),
                                                0.0));

  std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  for (int r = 0; r < m; ++r) {
    const Row& row = prep.rows[static_cast<std::size_t>(r)];
    const RowPlan& p = prep.plan[static_cast<std::size_t>(r)];
    for (const Term& t : row.terms) {
      const auto it = cols.find(t.variable);
      if (it != cols.end())
        it->second[static_cast<std::size_t>(r)] += p.sign * t.coefficient;
    }
    rhs[static_cast<std::size_t>(r)] = p.sign * row.rhs;
    if (p.slack_col >= 0) {
      const auto it = cols.find(p.slack_col);
      if (it != cols.end())
        it->second[static_cast<std::size_t>(r)] = p.slack_coeff;
    }
    if (p.artificial_col >= 0) {
      const auto it = cols.find(p.artificial_col);
      if (it != cols.end()) it->second[static_cast<std::size_t>(r)] = 1.0;
    }
    basis[static_cast<std::size_t>(r)] =
        p.artificial_col >= 0 ? p.artificial_col : p.slack_col;
  }

  // Tableau::pivot restricted to the tracked columns — replicated
  // cell-for-cell, including the |factor| < kEps row skip (which also
  // skips that row's rhs update) and the exact 1.0/0.0 assignments.
  const auto apply_pivot = [&](int pivot_row, int pivot_col) -> bool {
    const auto pit = cols.find(pivot_col);
    if (pit == cols.end()) return false;
    std::vector<double>& pcol = pit->second;
    const std::size_t pr = static_cast<std::size_t>(pivot_row);
    const double pivot_value = pcol[pr];
    // The cold path RWC_CHECKs this; with verified pivots it cannot fail,
    // but a collision-shaped recording must diverge, not abort.
    if (!(std::abs(pivot_value) > kPivotEps)) return false;
    const double inv = 1.0 / pivot_value;
    for (auto& kv : cols) kv.second[pr] *= inv;
    rhs[pr] *= inv;
    pcol[pr] = 1.0;  // exact
    for (int r = 0; r < m; ++r) {
      if (r == pivot_row) continue;
      const std::size_t sr = static_cast<std::size_t>(r);
      const double factor = pcol[sr];
      if (std::abs(factor) < kEps) {
        pcol[sr] = 0.0;
        continue;
      }
      for (auto& kv : cols) kv.second[sr] -= factor * kv.second[pr];
      pcol[sr] = 0.0;  // exact
      rhs[sr] -= factor * rhs[pr];
    }
    basis[pr] = pivot_col;
    return true;
  };

  // The exact ratio test from iterate(). Entering columns are not
  // re-derived: reduced costs evolve rhs-independently, so on a structural
  // match the recorded entering sequence is provably the one a cold solve
  // would choose. Only the leaving row can differ, and it is verified here
  // before every replayed pivot.
  const int bland_after = prep.iteration_limit / 2;
  const auto verify_leaving = [&](int entering, int phase_iteration) -> int {
    const std::vector<double>& col = cols.find(entering)->second;
    const bool use_bland = phase_iteration >= bland_after;
    int leaving = -1;
    double best_ratio = 0.0;
    for (int r = 0; r < m; ++r) {
      const std::size_t sr = static_cast<std::size_t>(r);
      const double coeff = col[sr];
      if (coeff <= kPivotEps) continue;
      const double ratio = rhs[sr] / coeff;
      if (leaving < 0 || ratio < best_ratio - kEps ||
          (use_bland && ratio < best_ratio + kEps &&
           basis[sr] < basis[static_cast<std::size_t>(leaving)])) {
        leaving = r;
        best_ratio = ratio;
      }
    }
    return leaving;
  };

  std::size_t idx = 0;

  // ---- Phase 1 pivots (ratio test verified per pivot). ----
  int phase1_iteration = 0;
  while (idx < rec.pivots.size() &&
         rec.pivots[idx].kind == PivotRecording::PivotKind::kPhase1) {
    const PivotRecording::Pivot& p = rec.pivots[idx];
    if (verify_leaving(p.col, phase1_iteration) != p.row) return false;
    if (!apply_pivot(p.row, p.col)) return false;
    ++iterations;
    ++phase1_iteration;
    ++idx;
  }

  if (prep.has_artificials) {
    // The same feasibility recheck as the cold path, on the perturbed rhs.
    double artificial_sum = 0.0;
    for (int r = 0; r < m; ++r) {
      const std::size_t sr = static_cast<std::size_t>(r);
      if (basis[sr] >= prep.artificial_start)
        artificial_sum += std::max(0.0, rhs[sr]);
    }
    if (artificial_sum > 1e-6) {
      // The perturbed rhs is infeasible. A cold solve would run the same
      // phase-1 pivots and stop exactly here, so this IS the solve.
      out = LpSolution{LpStatus::kInfeasible, 0.0, {}};
      flush.count_solve = true;
      return true;
    }

    // Drive-out pivots: the cold loop picks (row, replacement) from cells
    // and basis only, both rhs-independent, so these replay unverified.
    // The guards below catch collision-shaped recordings.
    while (idx < rec.pivots.size() &&
           rec.pivots[idx].kind ==
               PivotRecording::PivotKind::kDriveArtificial) {
      const PivotRecording::Pivot& p = rec.pivots[idx];
      if (basis[static_cast<std::size_t>(p.row)] < prep.artificial_start)
        return false;
      if (!apply_pivot(p.row, p.col)) return false;
      ++idx;
    }
  }

  // ---- Phase 2 pivots (ratio test verified per pivot). ----
  int phase2_iteration = 0;
  while (idx < rec.pivots.size()) {
    const PivotRecording::Pivot& p = rec.pivots[idx];
    if (p.kind != PivotRecording::PivotKind::kPhase2) return false;
    if (verify_leaving(p.col, phase2_iteration) != p.row) return false;
    if (!apply_pivot(p.row, p.col)) return false;
    ++iterations;
    ++phase2_iteration;
    ++idx;
  }

  // After the recorded pivots the reduced costs — identical to the
  // recorded solve's — admit no entering column, so the perturbed problem
  // is optimal at this basis.
  out.status = LpStatus::kOptimal;
  out.objective = 0.0;
  out.values.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    const std::size_t sr = static_cast<std::size_t>(r);
    const int b = basis[sr];
    if (b >= 0 && b < n)
      out.values[static_cast<std::size_t>(b)] = std::max(0.0, rhs[sr]);
  }
  for (int v = 0; v < n; ++v)
    out.objective += objective_[static_cast<std::size_t>(v)] *
                     out.values[static_cast<std::size_t>(v)];
  flush.count_solve = true;
  return true;
}

LpSolution LpProblem::solve_cold(PivotRecording* recording) const {
  // Pivot counter flushed to the registry on every exit path
  // (docs/OBSERVABILITY.md: lp.simplex.*).
  std::uint64_t iterations = 0;
  struct CounterFlush {
    const std::uint64_t& iterations;
    ~CounterFlush() {
      static auto& solves =
          obs::Registry::global().counter("lp.simplex.solves");
      static auto& pivots =
          obs::Registry::global().counter("lp.simplex.iterations");
      solves.add();
      pivots.add(iterations);
    }
  } flush{iterations};

  const int n = variable_count();
  const Prepared prep = prepare(rows_, upper_bounds_, n);
  const int m = prep.m;
  const int artificial_start = prep.artificial_start;
  const int total_cols = prep.total_cols;
  const int iteration_limit = prep.iteration_limit;
  std::vector<PivotRecording::Pivot>* record =
      recording == nullptr ? nullptr : &recording->pivots;

  Tableau tableau(m, total_cols);
  for (int r = 0; r < m; ++r) {
    const Row& row = prep.rows[static_cast<std::size_t>(r)];
    const RowPlan& p = prep.plan[static_cast<std::size_t>(r)];
    for (const Term& t : row.terms)
      tableau.at(r, t.variable) += p.sign * t.coefficient;
    tableau.rhs(r) = p.sign * row.rhs;
    if (p.slack_col >= 0) tableau.at(r, p.slack_col) = p.slack_coeff;
    if (p.artificial_col >= 0) tableau.at(r, p.artificial_col) = 1.0;
    tableau.basis(r) = p.artificial_col >= 0 ? p.artificial_col : p.slack_col;
  }

  // ---- Phase 1: minimize the sum of artificials. ----
  if (prep.has_artificials) {
    std::vector<double> reduced(static_cast<std::size_t>(total_cols), 0.0);
    double phase1_value = 0.0;
    // Objective: sum of artificial columns; express in terms of non-basics
    // by subtracting basic (artificial) rows.
    for (int c = artificial_start; c < total_cols; ++c)
      reduced[static_cast<std::size_t>(c)] = 1.0;
    for (int r = 0; r < m; ++r) {
      const int b = tableau.basis(r);
      if (b >= artificial_start) {
        for (int c = 0; c < total_cols; ++c)
          reduced[static_cast<std::size_t>(c)] -= tableau.at(r, c);
        phase1_value += tableau.rhs(r);
      }
    }
    std::vector<bool> allowed(static_cast<std::size_t>(total_cols), true);
    const auto outcome =
        iterate(tableau, reduced, phase1_value, allowed, iteration_limit,
                iterations, record, PivotRecording::PivotKind::kPhase1);
    if (outcome == IterationOutcome::kIterationLimit)
      return LpSolution{LpStatus::kIterationLimit, 0.0, {}};
    // Phase-1 objective is bounded below by 0, so kUnbounded cannot happen.
    // Recompute the artificial sum from the tableau (robust to the sign
    // convention of the incremental tracker).
    double artificial_sum = 0.0;
    for (int r = 0; r < m; ++r)
      if (tableau.basis(r) >= artificial_start)
        artificial_sum += std::max(0.0, tableau.rhs(r));
    if (artificial_sum > 1e-6)
      return LpSolution{LpStatus::kInfeasible, 0.0, {}};

    // Drive any residual artificial out of the basis (degenerate rows).
    for (int r = 0; r < m; ++r) {
      if (tableau.basis(r) < artificial_start) continue;
      int replacement = -1;
      for (int c = 0; c < artificial_start; ++c) {
        if (std::abs(tableau.at(r, c)) > kPivotEps) {
          replacement = c;
          break;
        }
      }
      if (replacement >= 0) {
        double dummy = 0.0;
        std::vector<double> zero(static_cast<std::size_t>(total_cols), 0.0);
        if (record != nullptr)
          record->push_back(PivotRecording::Pivot{
              r, replacement, PivotRecording::PivotKind::kDriveArtificial});
        tableau.pivot(r, replacement, zero, dummy);
      }
      // Otherwise the row is all-zero over structural columns (redundant
      // constraint); the artificial stays basic at value ~0, harmless.
    }
  }

  // ---- Phase 2: original objective over structural + slack columns. ----
  const double obj_sign = sense_ == Sense::kMinimize ? 1.0 : -1.0;
  std::vector<double> reduced(static_cast<std::size_t>(total_cols), 0.0);
  double objective_value = 0.0;
  for (int v = 0; v < n; ++v)
    reduced[static_cast<std::size_t>(v)] =
        obj_sign * objective_[static_cast<std::size_t>(v)];
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    const double cb = reduced[static_cast<std::size_t>(b)];
    if (std::abs(cb) < kEps) continue;
    for (int c = 0; c < total_cols; ++c)
      reduced[static_cast<std::size_t>(c)] -= cb * tableau.at(r, c);
    reduced[static_cast<std::size_t>(b)] = 0.0;
    objective_value -= cb * tableau.rhs(r);
  }
  std::vector<bool> allowed(static_cast<std::size_t>(total_cols), true);
  for (int c = artificial_start; c < total_cols; ++c)
    allowed[static_cast<std::size_t>(c)] = false;
  const auto outcome =
      iterate(tableau, reduced, objective_value, allowed, iteration_limit,
              iterations, record, PivotRecording::PivotKind::kPhase2);
  if (outcome == IterationOutcome::kIterationLimit)
    return LpSolution{LpStatus::kIterationLimit, 0.0, {}};
  if (outcome == IterationOutcome::kUnbounded)
    return LpSolution{LpStatus::kUnbounded, 0.0, {}};

  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.values.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    const int b = tableau.basis(r);
    if (b >= 0 && b < n)
      solution.values[static_cast<std::size_t>(b)] =
          std::max(0.0, tableau.rhs(r));
  }
  // Recompute the objective from the primal values (robust to the sign
  // convention of the incremental tracker used during pivoting).
  solution.objective = 0.0;
  for (int v = 0; v < n; ++v)
    solution.objective += objective_[static_cast<std::size_t>(v)] *
                          solution.values[static_cast<std::size_t>(v)];
  return solution;
}

}  // namespace rwc::lp

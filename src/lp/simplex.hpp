// A self-contained dense two-phase primal simplex LP solver.
//
// This is the "LP solver substrate" for the SWAN-style TE engine (path-based
// multi-commodity flow). It targets the small/medium instances WAN TE
// produces (hundreds of rows/columns); no sparsity or factorization tricks
// on the cold path.
//
// Model: optimize c'x subject to linear constraints, x >= 0. Finite upper
// bounds are lowered to explicit constraints at solve time.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace rwc::lp {

enum class Sense { kMinimize, kMaximize };
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(LpStatus status);

/// One term of a linear expression: coefficient * variable.
struct Term {
  int variable = -1;
  double coefficient = 0.0;
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // per variable, empty unless optimal

  bool optimal() const { return status == LpStatus::kOptimal; }
};

/// Linear program builder. Variables are implicitly >= 0.
class LpProblem {
 public:
  /// A stored constraint row (public so the solver's tableau-construction
  /// helper can read it).
  struct Row {
    std::vector<Term> terms;
    Relation relation = Relation::kLessEqual;
    double rhs = 0.0;
  };

  explicit LpProblem(Sense sense = Sense::kMinimize) : sense_(sense) {}

  /// Adds a variable with the given objective coefficient and optional
  /// finite upper bound; returns its index.
  int add_variable(double objective_coefficient,
                   double upper_bound = std::numeric_limits<double>::infinity(),
                   std::string name = {});

  /// Adds a constraint sum(terms) REL rhs. Terms may repeat a variable
  /// (coefficients are accumulated).
  void add_constraint(std::vector<Term> terms, Relation relation, double rhs);

  void set_sense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  int variable_count() const { return static_cast<int>(objective_.size()); }
  int constraint_count() const { return static_cast<int>(rows_.size()); }
  const std::string& variable_name(int v) const;
  const std::vector<Row>& rows() const { return rows_; }
  double objective_coefficient(int v) const;
  double upper_bound(int v) const;

  /// Solves with the two-phase primal simplex.
  LpSolution solve() const;

 private:
  Sense sense_;
  std::vector<double> objective_;
  std::vector<double> upper_bounds_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace rwc::lp

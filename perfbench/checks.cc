// The independent answer check behind ok_share. It runs outside the
// timed phase and trusts nothing the engines compute: witnesses are
// re-evaluated by the naive oracle (src/oracle), and definitive "no"
// answers of the complete zero-ary engine are cross-checked by the
// oracle's explicit path enumeration where the request fits its bounds.
// Session verdicts are checked by the traced run's probes (layers.cc).
#include <algorithm>
#include <cmath>
#include <string>

#include "perfbench/bench.h"
#include "src/logic/formula.h"
#include "src/oracle/oracle.h"

namespace perfbench {

namespace analysis = accltl::analysis;
namespace oracle = accltl::oracle;
namespace schema = accltl::schema;

namespace {

/// The oracle's bounds. A request fits them when the explicit sweep of
/// every path within them ends inside the path budget; a sweep cut by
/// the budget (kUnknown) makes no claim.
oracle::OracleOptions OracleBounds() {
  oracle::OracleOptions o;
  o.max_path_length = 2;
  o.max_response_facts = 2;
  o.num_fresh_values = 2;
  o.max_nodes = 2000;
  o.max_response_candidates = 256;
  return o;
}

/// Variables the naive evaluator binds at once along the deepest chain
/// of nested quantifiers of `f`.
size_t NestedVars(const accltl::logic::PosFormulaPtr& f) {
  size_t deepest = 0;
  for (const accltl::logic::PosFormulaPtr& c : f->children()) {
    deepest = std::max(deepest, NestedVars(c));
  }
  return f->bound_vars().size() + deepest;
}

}  // namespace

double NaiveEvalCost(const QuerySpec& q, const schema::AccessPath& path) {
  double domain = static_cast<double>(
      path.Configuration(q.schema, schema::Instance(q.schema))
          .ActiveDomain()
          .size() +
      4);
  double cost = 0;
  for (const auto& sentence : q.formula->AtomSentences()) {
    cost += std::pow(domain, static_cast<double>(NestedVars(sentence)));
  }
  return cost * static_cast<double>(path.size() + 1);
}

std::string CheckWitness(const QuerySpec& q, const schema::AccessPath& witness) {
  schema::Instance empty(q.schema);
  accltl::Status valid = witness.Validate(q.schema);
  if (!valid.ok()) {
    return "witness is not a valid access path: " + valid.ToString();
  }
  if (!oracle::NaiveEvalOnPath(q.formula, q.schema, witness, empty)) {
    return "witness does not satisfy the formula (naive evaluator)";
  }
  if (q.options.grounded && !witness.IsGrounded(q.schema, empty)) {
    return "witness of a grounded request is not grounded";
  }
  return "";
}

CheckReport CheckReferenceAnswers(const Workload& w) {
  CheckReport report;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QuerySpec& q = w.queries[i];
    const analysis::Decision& d = q.reference;
    std::string problem;
    if (d.satisfiable == analysis::Answer::kYes) {
      if (!d.has_witness) {
        // The Datalog pipeline certifies non-emptiness without a path.
        if (d.engine != "automata-datalog") problem = "kYes without witness";
      } else {
        ++report.witnesses_checked;
        problem = CheckWitness(q, d.witness);
      }
    } else if (d.satisfiable == analysis::Answer::kNo &&
               d.engine == "zero-ary" && !q.options.grounded) {
      // Grounded zero-ary answers are complete only relative to the
      // witness pool (DESIGN.md §1), so only ungrounded ones are swept.
      oracle::OracleResult o =
          oracle::OracleDecide(q.formula, q.schema, OracleBounds());
      report.oracle_checked += o.answer != oracle::OracleAnswer::kUnknown;
      if (o.answer == oracle::OracleAnswer::kSat) {
        problem = "zero-ary kNo but the oracle found a witness: " +
                  o.witness.ToString(q.schema);
      }
    }
    if (!problem.empty()) {
      report.bad_queries.push_back(i);
      report.problems.push_back(w.name + " query " + std::to_string(i) +
                                ": " + problem);
    }
  }
  return report;
}

}  // namespace perfbench

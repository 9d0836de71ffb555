#include "prover/superposition.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "gcl/analyze.hpp"

namespace cref::prover {

std::vector<gcl::Diagnostic> check_superposition(const gcl::SystemAst& wrapper,
                                                 const gcl::SystemAst* base,
                                                 const SuperpositionOptions& opts) {
  std::vector<gcl::Diagnostic> diags;

  if (base) {
    std::map<std::string, std::size_t> base_var;
    for (std::size_t v = 0; v < base->vars.size(); ++v)
      base_var[base->vars[v].name] = v;

    for (const gcl::VarDeclAst& wv : wrapper.vars) {
      auto it = base_var.find(wv.name);
      if (it != base_var.end() &&
          base->vars[it->second].cardinality != wv.cardinality)
        throw std::invalid_argument(
            "superposition: variable '" + wv.name + "' declared 0.." +
            std::to_string(wv.cardinality - 1) + " in the wrapper but 0.." +
            std::to_string(base->vars[it->second].cardinality - 1) + " in the base");
    }

    const gcl::ReadWriteReport base_rw = gcl::read_write_report(*base);
    for (const gcl::ActionAst& a : wrapper.actions) {
      if (a.process < 0) continue;  // unannotated wrapper action: no claim
      for (const gcl::AssignmentAst& asg : a.assignments) {
        auto it = base_var.find(asg.var);
        if (it == base_var.end()) continue;  // wrapper-local variable
        const std::vector<int>& owners = base_rw.vars[it->second].writer_processes;
        if (owners.empty()) continue;  // base claims no ownership
        if (std::find(owners.begin(), owners.end(), a.process) != owners.end())
          continue;
        std::ostringstream msg;
        msg << "wrapper action '" << a.name << "' @" << a.process << " writes '"
            << asg.var << "', owned by base process";
        for (std::size_t i = 0; i < owners.size(); ++i)
          msg << (i ? ", " : " ") << owners[i];
        diags.push_back({gcl::Rule::WrapperWritesForeignVar, gcl::Severity::Warning,
                         asg.loc, msg.str(),
                         "graybox superposition may read any base variable but write "
                         "only its own process's (Theorem 3)"});
      }
    }
  }

  if (!wrapper.init) {
    const ProveResult r = prove_termination(wrapper, opts.prove);
    std::string why = r.failures.empty() ? "no ranking found" : r.failures.front();
    // Never report an unvalidated proof.
    const bool proved = r.proved && validate_certificate(wrapper, nullptr, *r.certificate, &why);
    if (r.proved && !proved) why = "validator rejected the certificate: " + why;
    if (proved) {
      std::ostringstream msg;
      msg << "wrapper termination proved: ranking (";
      for (std::size_t i = 0; i < r.certificate->components.size(); ++i)
        msg << (i ? ", " : "") << r.certificate->components[i].pretty;
      msg << ")";
      diags.push_back({gcl::Rule::WrapperNonterminating, gcl::Severity::Note,
                       gcl::SourceLoc{}, msg.str(), ""});
    } else {
      diags.push_back({gcl::Rule::WrapperNonterminating, gcl::Severity::Warning,
                       gcl::SourceLoc{},
                       "wrapper computation is not provably finite: " + why,
                       "Theorem 3 requires the wrapper's own computation to "
                       "terminate; make every action decrease a ranking"});
    }
  }

  gcl::sort_diagnostics(diags);
  return diags;
}

}  // namespace cref::prover

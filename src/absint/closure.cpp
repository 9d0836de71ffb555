#include "absint/closure.hpp"

#include <stdexcept>
#include <utility>

#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"

namespace cref::absint {
namespace {

/// gamma(post) is inside B when the box fits under one of the region's
/// boxes, or when B itself abstractly evaluates to surely-true on it.
/// Both are sufficient conditions; neither subsumes the other (the
/// region test sees disjuncts, the predicate test sees congruences the
/// region boxes may have joined away).
bool post_covered(const AbsBox& post, const AbsRegion& region,
                  const gcl::Expr& predicate) {
  for (const AbsBox& b : region.boxes) {
    if (post.leq(b)) return true;
  }
  return abs_eval(predicate, post).surely_true();
}

}  // namespace

std::optional<ClosureCertificate> make_closure_certificate(const gcl::SystemAst& ast,
                                                           const gcl::Expr& predicate) {
  std::vector<int> cards = gcl::cardinalities(ast);
  ClosureCertificate cert;
  cert.predicate = gcl::print_expr(predicate);
  cert.region = region_from_predicate(ast, predicate);
  for (std::size_t bi = 0; bi < cert.region.boxes.size(); ++bi) {
    for (const auto& action : ast.actions) {
      ClosureObligation ob;
      ob.action = action.name;
      ob.box_index = bi;
      auto post = apply_action(cert.region.boxes[bi], action, cards);
      if (!post) {
        ob.vacuous = true;
      } else {
        if (!post_covered(*post, cert.region, predicate)) return std::nullopt;
        ob.post = std::move(*post);
      }
      cert.obligations.push_back(std::move(ob));
    }
  }
  return cert;
}

bool check_closure_certificate(const gcl::SystemAst& ast, const gcl::Expr& predicate,
                               const ClosureCertificate& cert) {
  std::vector<int> cards = gcl::cardinalities(ast);
  AbsRegion expect = region_from_predicate(ast, predicate);
  if (expect.boxes != cert.region.boxes) return false;
  if (cert.obligations.size() != cert.region.boxes.size() * ast.actions.size())
    return false;
  std::size_t oi = 0;
  for (std::size_t bi = 0; bi < cert.region.boxes.size(); ++bi) {
    for (const auto& action : ast.actions) {
      const ClosureObligation& ob = cert.obligations[oi++];
      if (ob.action != action.name || ob.box_index != bi) return false;
      auto post = apply_action(cert.region.boxes[bi], action, cards);
      if (ob.vacuous != !post.has_value()) return false;
      if (!post) continue;
      if (ob.post != *post) return false;
      if (!post_covered(*post, cert.region, predicate)) return false;
    }
  }
  return true;
}

ClosedRegionCertificate to_closed_region_certificate(const Space& space,
                                                     const AbsRegion& region) {
  ClosedRegionCertificate cert;
  const StateId n = space.size();
  cert.members.assign(n, 0);
  StateVec decoded;
  for (StateId s = 0; s < n; ++s) {
    space.decode_into(s, decoded);
    if (region.contains(decoded)) cert.members[s] = 1;
  }
  return cert;
}

std::optional<gcl::Expr> parse_predicate(const gcl::SystemAst& ast,
                                         const std::string& text, std::string* error) {
  // Reuse the full parser by wrapping the predicate as the init clause
  // of a synthetic system with the same variable declarations, so name
  // resolution and domain checks match the original program's.
  std::string source = "system predicate_wrapper {\n";
  for (const auto& v : ast.vars) {
    source += "  var " + v.name + " : 0.." + std::to_string(v.cardinality - 1) + ";\n";
  }
  source += "  init : (" + text + ");\n}\n";
  try {
    gcl::SystemAst wrapper = gcl::parse(source);
    if (!wrapper.init) {
      if (error) *error = "predicate parsed to no init clause";
      return std::nullopt;
    }
    return std::move(*wrapper.init);
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace cref::absint

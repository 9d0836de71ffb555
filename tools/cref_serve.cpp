// Line-delimited front end for the batch checking service: each request
// line names a relation and two GCL programs, each answer line carries
// the verdict plus cache/phase telemetry. Answers are BYTE-IDENTICAL
// between cold and warm runs — a warm answer is served from the cache
// only after its certificate re-proves the verdict against graphs
// rebuilt from the request (see src/service/service.hpp).
//
//   cref_serve < requests.txt                 # read requests from stdin
//   cref_serve --batch requests.txt           # ... or from a file
//   cref_serve --batch b.txt --cache-dir .cache --json
//   cref_serve --batch b.txt --cache-dir d --twice --assert-warm
//
// Request line:   <relation> <c-program.gcl> <a-program.gcl>
//   relation: refinement-init | everywhere | convergence | eventually |
//             stabilizing
//   paths are resolved relative to the batch file's directory (or the
//   working directory when reading stdin); '#' starts a comment line.
//
// A request whose file is missing or does not parse, or whose relation
// is unknown, is answered FAILS with reason "service: <error>"; the
// rest of the batch is still answered, and the run then exits 1.
//
// --twice re-answers the whole batch with a SECOND service instance
// sharing only the on-disk cache — an end-to-end disk round trip.
// --assert-warm then exits 1 unless every second-pass answer was a
// validated cache hit with bytes identical to the first pass (the
// tier-1 CI step runs exactly that).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gcl/diag.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

using namespace cref;

namespace {

int usage() {
  std::printf(
      "usage: cref_serve [options] < requests\n"
      "  request line: <relation> <c.gcl> <a.gcl>\n"
      "  --batch FILE     read requests from FILE instead of stdin\n"
      "  --cache-dir DIR  persist verified verdicts under DIR\n"
      "  --cache-size N   in-memory LRU capacity (default 1024)\n"
      "  --threads T      worker threads (0 = all hardware threads)\n"
      "  --json           machine-readable answer lines\n"
      "  --twice          answer the batch again via a fresh service\n"
      "                   instance sharing the cache dir\n"
      "  --assert-warm    with --twice: exit 1 unless the second pass is\n"
      "                   all validated cache hits, byte-identical\n");
  return 2;
}

struct Request {
  std::string relation, c_path, a_path;
};

/// The comparable answer content: everything except timings and
/// cache telemetry. --assert-warm requires these bytes to match
/// between the cold and warm passes.
std::string answer_body(const Request& req, const service::JobOutcome& o) {
  std::ostringstream out;
  out << req.relation << ' ' << req.c_path << ' ' << req.a_path << ' '
      << (o.result.holds ? "holds" : "FAILS");
  if (!o.result.reason.empty()) out << " reason=\"" << o.result.reason << '"';
  if (!o.result.witness.states.empty()) out << " witness=" << o.result.witness.format_ids();
  return out.str();
}

std::string answer_line(const Request& req, const service::JobOutcome& o, bool json) {
  std::ostringstream out;
  if (json) {
    out << "{\"relation\": \"" << gcl::json_escape(req.relation) << "\", \"c\": \""
        << gcl::json_escape(req.c_path) << "\", \"a\": \"" << gcl::json_escape(req.a_path)
        << "\", \"key\": \"" << o.key.hex() << "\", \"holds\": "
        << (o.result.holds ? "true" : "false") << ", \"reason\": \""
        << gcl::json_escape(o.result.reason) << "\", \"witness\": [";
    for (std::size_t i = 0; i < o.result.witness.states.size(); ++i)
      out << (i ? ", " : "") << o.result.witness.states[i];
    out << "], \"cache_hit\": " << (o.cache_hit ? "true" : "false")
        << ", \"revalidated\": " << (o.revalidated ? "true" : "false")
        << ", \"certificate_stored\": " << (o.certificate_stored ? "true" : "false")
        << ", \"hash_ms\": " << o.hash_ms << ", \"build_ms\": " << o.build_ms
        << ", \"check_ms\": " << o.check_ms << ", \"validate_ms\": " << o.validate_ms << "}";
  } else {
    out << answer_body(req, o) << "  [" << (o.cache_hit ? "hit" : "miss")
        << (o.revalidated ? ",revalidated" : "") << " hash=" << o.hash_ms
        << "ms build=" << o.build_ms << "ms check=" << o.check_ms
        << "ms validate=" << o.validate_ms << "ms]";
  }
  return out.str();
}

std::vector<Request> parse_requests(std::istream& in) {
  std::vector<Request> reqs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    Request r;
    if (!(ss >> r.relation >> r.c_path >> r.a_path))
      throw std::runtime_error("bad request line: " + line);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"json", "twice", "assert-warm", "help"});
  if (cli.has("help")) return usage();

  service::ServiceOptions opts;
  opts.engine.num_threads = resolve_thread_count(cli.get_size("threads", 0));
  opts.cache_capacity = cli.get_size("cache-size", 1024);
  opts.cache_dir = cli.get("cache-dir");
  const bool json = cli.has("json");
  const bool twice = cli.has("twice");

  try {
    std::vector<Request> reqs;
    std::filesystem::path base = ".";
    if (cli.has("batch")) {
      const std::filesystem::path batch = cli.get("batch");
      base = batch.has_parent_path() ? batch.parent_path() : ".";
      std::ifstream in(batch);
      if (!in) throw std::runtime_error("cannot open batch file " + batch.string());
      reqs = parse_requests(in);
    } else {
      reqs = parse_requests(std::cin);
    }

    // Each request loads on its own: one that cannot be loaded gets a
    // FAILS answer, worded as run_batch words a job that throws.
    std::vector<service::Job> jobs;
    std::vector<std::string> load_errors(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = reqs[i];
      try {
        jobs.push_back(service::Job::from_gcl(service::relation_from_string(r.relation),
                                              util::read_file(base / r.c_path),
                                              util::read_file(base / r.a_path)));
      } catch (const std::exception& e) {
        load_errors[i] = std::string("service: ") + e.what();
      }
    }
    auto answer = [&](service::CheckService& svc) {
      std::vector<service::JobOutcome> ran = svc.run_batch(jobs);
      std::vector<service::JobOutcome> out(reqs.size());
      for (std::size_t i = 0, j = 0; i < reqs.size(); ++i) {
        if (load_errors[i].empty())
          out[i] = std::move(ran[j++]);
        else
          out[i].result = CheckResult::fail(load_errors[i]);
      }
      return out;
    };

    service::CheckService svc(opts);
    std::vector<service::JobOutcome> first = answer(svc);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      std::cout << answer_line(reqs[i], first[i], json) << '\n';
    auto st = svc.stats();
    std::cerr << "pass 1: " << reqs.size() << " jobs, " << st.hits << " hits, " << st.misses
              << " misses, " << st.validation_failures << " validation failures\n";

    if (twice) {
      // A fresh instance: nothing survives but the on-disk store.
      service::CheckService warm(opts);
      std::vector<service::JobOutcome> second = answer(warm);
      for (std::size_t i = 0; i < reqs.size(); ++i)
        std::cout << answer_line(reqs[i], second[i], json) << '\n';
      auto wst = warm.stats();
      std::cerr << "pass 2: " << reqs.size() << " jobs, " << wst.hits << " hits, " << wst.misses
                << " misses, " << wst.validation_failures << " validation failures\n";
      if (cli.has("assert-warm")) {
        bool ok = true;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (!second[i].cache_hit || !second[i].revalidated) {
            std::cerr << "assert-warm: request " << i << " was not a validated hit\n";
            ok = false;
          }
          if (answer_body(reqs[i], first[i]) != answer_body(reqs[i], second[i])) {
            std::cerr << "assert-warm: request " << i << " answer differs between passes\n";
            ok = false;
          }
        }
        if (!ok) return 1;
        std::cerr << "assert-warm: all " << reqs.size()
                  << " warm answers validated and byte-identical\n";
      }
    }
    if (const std::size_t unloaded = reqs.size() - jobs.size()) {
      std::cerr << "cref_serve: " << unloaded << " request(s) could not be loaded\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "cref_serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

// gpm command-line tool: generate datasets, inspect them, and run any of
// the library's matchers from the shell.
//
//   gpm_cli generate --kind amazon --nodes 10000 --seed 7 --out data.g
//   gpm_cli stats data.g
//   gpm_cli extract --nodes 6 --seed 3 --graph data.g --out pattern.g
//   gpm_cli match --algo strong+ --pattern pattern.g --graph data.g
//   gpm_cli batch --patterns p1.g,p2.g --graph data.g --repeat 3
//   gpm_cli watch --pattern pattern.g --graph data.g --updates 20
//   gpm_cli minimize --pattern pattern.g
//
// Graphs use the text format of graph/graph_io.h.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/algo_names.h"
#include "api/engine.h"
#include "common/string_util.h"
#include "extensions/regex_pattern.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "graph/statistics.h"
#include "matching/query_minimization.h"
#include "quality/closeness.h"
#include "quality/workloads.h"
#include "serving/load_driver.h"

namespace gpm {
namespace {

// Minimal --flag value parser: flags[name] = value; positionals in order.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  static Args Parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) == 0 && i + 1 < argc) {
        args.flags[token.substr(2)] = argv[++i];
      } else {
        args.positional.push_back(std::move(token));
      }
    }
    return args;
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  gpm_cli generate --kind amazon|youtube|uniform --nodes N\n"
               "          [--seed S] [--labels L] [--alpha A] --out FILE\n"
               "  gpm_cli stats FILE\n"
               "  gpm_cli extract --graph FILE --nodes N [--seed S] --out FILE\n"
               "  gpm_cli match --algo %s\n"
               "          --pattern FILE --graph FILE\n"
               "          [--threads N] [--sites N] [--repeat R]\n"
               "          [--regex \"u-v:l{min,max}[+...][;...]\"]\n"
               "          (--regex runs regex-strong; l is an edge label\n"
               "           or '*', max may be '~' for unbounded)\n"
               "  gpm_cli batch --patterns FILE[,FILE...] --graph FILE\n"
               "          [--algo NAME] [--threads N] [--repeat R]\n"
               "  gpm_cli watch --pattern FILE --graph FILE [--updates N]\n"
               "          [--batch B] [--threads N] [--seed S]\n"
               "          (continuous query: random edge updates repair\n"
               "           only the affected balls; deltas are printed)\n"
               "  gpm_cli algos\n"
               "  gpm_cli minimize --pattern FILE [--out FILE]\n"
               "  gpm_cli loadgen [--graph FILE | --kind K --nodes N]\n"
               "          [--patterns FILE[,FILE...] | --npatterns P\n"
               "           --pnodes NQ] [--algo NAME] [--threads T]\n"
               "          [--duration SECONDS] [--qps PER_CLIENT]\n"
               "          [--churn EDITS_PER_S] [--batch B]\n"
               "          [--deadline-ms MS] [--rate TOKENS_PER_S]\n"
               "          [--burst B] [--seed S]\n"
               "          (serving load: T client threads against a\n"
               "           GpmServer; --churn adds a writer publishing\n"
               "           snapshot epochs; --rate throttles admission)\n",
               AlgoNameList().c_str());
  return 2;
}

// The algorithm menu, straight from the table the engine dispatches on.
int RunAlgos() {
  for (const AlgoSpec& spec : AlgorithmTable()) {
    std::printf("  %-12s %s [%s]\n", spec.name, spec.summary,
                ExecPolicyName(spec.policy));
  }
  return 0;
}

int RunGenerate(const Args& args) {
  const std::string kind = args.Get("kind", "uniform");
  auto nodes = ParseUint64(args.Get("nodes", "1000"));
  auto seed = ParseUint64(args.Get("seed", "1"));
  auto labels = ParseUint64(args.Get("labels", "200"));
  auto alpha = ParseDouble(args.Get("alpha", "1.2"));
  const std::string out = args.Get("out", "");
  if (!nodes.ok() || !seed.ok() || !labels.ok() || !alpha.ok())
    return Fail("bad numeric flag");
  if (out.empty()) return Fail("--out is required");

  Graph g;
  if (kind == "amazon") {
    g = MakeAmazonLike(static_cast<uint32_t>(*nodes), *seed,
                       static_cast<uint32_t>(*labels));
  } else if (kind == "youtube") {
    g = MakeYouTubeLike(static_cast<uint32_t>(*nodes), *seed,
                        static_cast<uint32_t>(*labels));
  } else if (kind == "uniform") {
    g = MakeUniform(static_cast<uint32_t>(*nodes), *alpha,
                    static_cast<uint32_t>(*labels), *seed);
  } else {
    return Fail("unknown --kind '" + kind + "'");
  }
  Status s = SaveGraph(g, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %zu nodes, %zu edges to %s\n", g.num_nodes(),
              g.num_edges(), out.c_str());
  return 0;
}

int RunStats(const Args& args) {
  if (args.positional.empty()) return Fail("stats needs a graph file");
  auto g = LoadGraph(args.positional[0]);
  if (!g.ok()) return Fail(g.status().ToString());
  std::printf("%s", RenderStatistics(ComputeStatistics(*g)).c_str());
  return 0;
}

int RunExtract(const Args& args) {
  auto nodes = ParseUint64(args.Get("nodes", "6"));
  auto seed = ParseUint64(args.Get("seed", "1"));
  const std::string graph_path = args.Get("graph", "");
  const std::string out = args.Get("out", "");
  if (!nodes.ok() || !seed.ok()) return Fail("bad numeric flag");
  if (graph_path.empty() || out.empty())
    return Fail("--graph and --out are required");
  auto g = LoadGraph(graph_path);
  if (!g.ok()) return Fail(g.status().ToString());
  Rng rng(*seed);
  auto q = ExtractPattern(*g, static_cast<uint32_t>(*nodes), &rng);
  if (!q.ok()) return Fail(q.status().ToString());
  Status s = SaveGraph(*q, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("extracted a %zu-node pattern to %s\n", q->num_nodes(),
              out.c_str());
  return 0;
}

// Two lines of cache telemetry after a repeated/batched run: the LRU
// hit ratios, then the cross-query reuse counters (isomorphic results
// served, containment-seeded filters, per-ball relations shared).
void PrintCacheStats(const Engine& engine) {
  const EngineCacheStats cache = engine.cache_stats();
  std::printf("caches: prepared %llu/%llu hits, filter %llu/%llu hits, "
              "regex filter %llu/%llu hits, results %llu/%llu hits, "
              "csr %llu/%llu hits, aux %llu/%llu hits\n",
              static_cast<unsigned long long>(cache.prepared.hits),
              static_cast<unsigned long long>(cache.prepared.lookups),
              static_cast<unsigned long long>(cache.filter.hits),
              static_cast<unsigned long long>(cache.filter.lookups),
              static_cast<unsigned long long>(cache.regex_filter.hits),
              static_cast<unsigned long long>(cache.regex_filter.lookups),
              static_cast<unsigned long long>(cache.results.hits),
              static_cast<unsigned long long>(cache.results.lookups),
              static_cast<unsigned long long>(cache.csr.hits),
              static_cast<unsigned long long>(cache.csr.lookups),
              static_cast<unsigned long long>(cache.aux.hits),
              static_cast<unsigned long long>(cache.aux.lookups));
  std::printf("cross-query: %llu equivalent results served, %llu filters "
              "seeded by containment, %llu ball relations shared, "
              "%zu patterns indexed\n",
              static_cast<unsigned long long>(cache.equivalent_result_hits),
              static_cast<unsigned long long>(cache.containment_filter_seeds),
              static_cast<unsigned long long>(cache.dual_relations_shared),
              cache.cross_query_entries);
}

// Parses the --regex spec ("u-v:l{min,max}[+atom...][;edge...]") against
// the loaded pattern graph. 'l' is a numeric edge label or '*' (any);
// max '~' means unbounded.
Result<RegexQuery> ParseRegexSpec(const Graph& pattern,
                                  const std::string& spec) {
  RegexQuery query(pattern);
  for (std::string_view edge_spec : SplitString(spec, ";")) {
    if (edge_spec.empty()) continue;
    const size_t dash = edge_spec.find('-');
    const size_t colon = edge_spec.find(':', dash);
    if (dash == std::string_view::npos || colon == std::string_view::npos) {
      return Status::InvalidArgument("bad --regex edge spec '" +
                                     std::string(edge_spec) + "'");
    }
    GPM_ASSIGN_OR_RETURN(uint64_t u,
                         ParseUint64(std::string(edge_spec.substr(0, dash))));
    GPM_ASSIGN_OR_RETURN(
        uint64_t v,
        ParseUint64(std::string(edge_spec.substr(dash + 1, colon - dash - 1))));
    RegexPath path;
    for (std::string_view atom_spec :
         SplitString(edge_spec.substr(colon + 1), "+")) {
      const size_t open = atom_spec.find('{');
      const size_t comma = atom_spec.find(',', open);
      const size_t close = atom_spec.find('}', comma);
      if (open == std::string_view::npos || comma == std::string_view::npos ||
          close == std::string_view::npos) {
        return Status::InvalidArgument("bad --regex atom '" +
                                       std::string(atom_spec) + "'");
      }
      RegexAtom atom;
      const std::string label(atom_spec.substr(0, open));
      if (label == "*") {
        atom.label = kAnyEdgeLabel;
      } else {
        GPM_ASSIGN_OR_RETURN(uint64_t parsed, ParseUint64(label));
        atom.label = static_cast<EdgeLabel>(parsed);
      }
      GPM_ASSIGN_OR_RETURN(
          uint64_t min_reps,
          ParseUint64(std::string(atom_spec.substr(open + 1, comma - open - 1))));
      atom.min_reps = static_cast<uint32_t>(min_reps);
      const std::string max(atom_spec.substr(comma + 1, close - comma - 1));
      if (max == "~") {
        atom.max_reps = kUnboundedReps;
      } else {
        GPM_ASSIGN_OR_RETURN(uint64_t parsed, ParseUint64(max));
        atom.max_reps = static_cast<uint32_t>(parsed);
      }
      path.push_back(atom);
    }
    GPM_RETURN_NOT_OK(query.SetConstraint(static_cast<NodeId>(u),
                                          static_cast<NodeId>(v),
                                          std::move(path)));
  }
  return query;
}

int RunMatch(const Args& args) {
  const std::string algo = args.Get("algo", "strong+");
  const std::string pattern_path = args.Get("pattern", "");
  const std::string graph_path = args.Get("graph", "");
  auto threads = ParseUint64(args.Get("threads", "0"));
  auto sites = ParseUint64(args.Get("sites", "0"));
  auto repeat = ParseUint64(args.Get("repeat", "1"));
  if (pattern_path.empty() || graph_path.empty())
    return Fail("--pattern and --graph are required");
  if (!threads.ok() || !sites.ok() || !repeat.ok() ||
      *repeat == 0)
    return Fail("bad numeric flag");
  auto q = LoadGraph(pattern_path);
  if (!q.ok()) return Fail(q.status().ToString());
  auto g = LoadGraph(graph_path);
  if (!g.ok()) return Fail(g.status().ToString());

  // One table drives the whole dispatch (shared with the examples); the
  // engine handles notion x policy uniformly. --threads / --sites select
  // the corresponding policy, not just its parameter. --regex wraps the
  // pattern in constraints and runs regex-strong under the same policies.
  auto request = RequestFromAlgoName(algo);
  if (!request.ok()) return Fail(request.status().ToString());
  if (*threads > 0 && *sites > 0)
    return Fail("--threads and --sites are mutually exclusive");
  if (*threads > 0) request->policy = ExecPolicy::Parallel(*threads);
  if (*sites > 0) {
    DistributedOptions options = request->policy.distributed;
    options.num_sites = static_cast<uint32_t>(*sites);
    request->policy = ExecPolicy::Distributed(options);
  }

  Engine engine;
  Result<PreparedQuery> prepared = Status::Internal("unset");
  const std::string regex_spec = args.Get("regex", "");
  if (!regex_spec.empty()) {
    auto query = ParseRegexSpec(*q, regex_spec);
    if (!query.ok()) return Fail(query.status().ToString());
    request->algo = Algo::kRegexStrong;
    prepared = engine.Prepare(std::move(*query));
  } else {
    prepared = engine.Prepare(*q);
  }
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  // --repeat exercises the serving path: iterations after the first are
  // served from the dual-filter memo (watch the cache line at the end).
  auto response = engine.Match(*prepared, *g, *request);
  if (!response.ok()) return Fail(response.status().ToString());
  for (uint64_t i = 1; i < *repeat; ++i) {
    response = engine.Match(*prepared, *g, *request);
    if (!response.ok()) return Fail(response.status().ToString());
  }

  if (response->relation.num_query_nodes() > 0) {
    std::printf("match %s: %zu pairs across %zu data nodes (%.3fs)\n",
                response->matched ? "succeeds" : "fails",
                response->relation.NumPairs(),
                MatchedNodes(response->relation).size(), response->seconds);
    return 0;
  }

  std::printf("%zu perfect subgraph(s) via %s policy (%.3fs)\n",
              response->subgraphs.size(),
              ExecPolicyName(request->policy.kind), response->seconds);
  for (const PerfectSubgraph& pg : response->subgraphs) {
    std::printf("  center %u: %zu nodes, %zu edges\n", pg.center,
                pg.nodes.size(), pg.edges.size());
  }
  if (*repeat > 1) PrintCacheStats(engine);
  return 0;
}

int RunBatch(const Args& args) {
  const std::string algo = args.Get("algo", "strong+");
  const std::string patterns_arg = args.Get("patterns", "");
  const std::string graph_path = args.Get("graph", "");
  auto threads = ParseUint64(args.Get("threads", "0"));
  auto repeat = ParseUint64(args.Get("repeat", "1"));
  if (patterns_arg.empty() || graph_path.empty())
    return Fail("--patterns and --graph are required");
  if (!threads.ok() || !repeat.ok() || *repeat == 0)
    return Fail("bad numeric flag");
  auto g = LoadGraph(graph_path);
  if (!g.ok()) return Fail(g.status().ToString());
  auto request = RequestFromAlgoName(algo);
  if (!request.ok()) return Fail(request.status().ToString());
  if (*threads > 0) request->policy = ExecPolicy::Parallel(*threads);

  // Every pattern is compiled through the prepared-query cache, then the
  // whole mix (repeated --repeat times) goes down as ONE MatchBatch —
  // duplicate (center, radius) balls are built once across the batch.
  Engine engine;
  std::vector<std::shared_ptr<const PreparedQuery>> prepared;
  std::vector<std::string> names;
  for (std::string_view path : SplitString(patterns_arg, ",")) {
    auto q = LoadGraph(std::string(path));
    if (!q.ok()) return Fail(q.status().ToString());
    auto pq = engine.PrepareCached(*q);
    if (!pq.ok())
      return Fail(std::string(path) + ": " + pq.status().ToString());
    prepared.push_back(*pq);
    names.emplace_back(path);
  }
  std::vector<BatchItem> items;
  for (uint64_t r = 0; r < *repeat; ++r) {
    for (const auto& pq : prepared) items.push_back({pq.get(), *request, {}});
  }

  auto responses = engine.MatchBatch(*g, items);
  double seconds = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const std::string& name = names[i % names.size()];
    if (!responses[i].ok()) {
      std::printf("  %-20s error: %s\n", name.c_str(),
                  responses[i].status().ToString().c_str());
      continue;
    }
    const MatchResponse& response = *responses[i];
    seconds = std::max(seconds, response.seconds);
    std::printf("  %-20s %zu perfect subgraph(s), %zu ball(s) shared\n",
                name.c_str(), response.subgraphs.size(),
                response.stats.balls_shared);
  }
  std::printf("%zu request(s) via %s policy (%.3fs)\n", items.size(),
              ExecPolicyName(request->policy.kind), seconds);
  PrintCacheStats(engine);
  return 0;
}

int RunWatch(const Args& args) {
  const std::string pattern_path = args.Get("pattern", "");
  const std::string graph_path = args.Get("graph", "");
  auto updates = ParseUint64(args.Get("updates", "20"));
  auto batch = ParseUint64(args.Get("batch", "0"));
  auto threads = ParseUint64(args.Get("threads", "0"));
  auto seed = ParseUint64(args.Get("seed", "1"));
  if (pattern_path.empty() || graph_path.empty())
    return Fail("--pattern and --graph are required");
  if (!updates.ok() || !batch.ok() || !threads.ok() || !seed.ok())
    return Fail("bad numeric flag");
  auto q = LoadGraph(pattern_path);
  if (!q.ok()) return Fail(q.status().ToString());
  auto g = LoadGraph(graph_path);
  if (!g.ok()) return Fail(g.status().ToString());

  Engine engine;
  auto prepared = engine.Prepare(*q);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  // Open the continuous query: random edge churn repairs only the balls
  // near each touched endpoint, and net Θ changes stream to the sink.
  size_t added = 0, removed = 0;
  IncrementalOptions options;
  if (*threads > 0) options.policy = ExecPolicy::Parallel(*threads);
  options.delta_sink = [&added, &removed](SubgraphDelta&& delta) {
    if (delta.kind == SubgraphDelta::Kind::kAdded) {
      ++added;
      std::printf("  + subgraph around node %u (%zu nodes)\n",
                  delta.subgraph.center, delta.subgraph.nodes.size());
    } else {
      ++removed;
      std::printf("  - subgraph on %zu nodes (smallest %u)\n",
                  delta.subgraph.nodes.size(), delta.subgraph.center);
    }
    return true;
  };
  auto session = engine.OpenIncremental(*prepared, *g, std::move(options));
  if (!session.ok()) return Fail(session.status().ToString());
  std::printf("watching %zu-node graph, %zu initial match(es), dQ = %u\n",
              g->num_nodes(), session->CurrentMatches().size(),
              session->radius());

  Rng rng(*seed);
  double total_seconds = 0;
  size_t applied = 0, affected = 0;
  std::vector<GraphEdit> pending;
  // Progress guarantee on degenerate graphs (few feasible pairs): give up
  // after a bounded number of rejected candidates instead of spinning.
  size_t rejected = 0;
  const size_t max_rejected = 200 * (*updates + 1);
  const auto flush = [&](bool force) -> Result<bool> {
    if (pending.empty() || (!force && pending.size() < *batch)) return false;
    Status s = session->ApplyBatch(pending);
    if (!s.ok()) return s;
    pending.clear();
    affected += session->last_update().affected_centers;
    total_seconds += session->last_update().seconds;
    return true;
  };
  while (applied < *updates && rejected < max_rejected) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(g->num_nodes()));
    const NodeId b = static_cast<NodeId>(rng.Uniform(g->num_nodes()));
    if (a == b) {
      ++rejected;
      continue;
    }
    const GraphEdit edit = rng.Bernoulli(0.7) ? GraphEdit::InsertEdge(a, b)
                                              : GraphEdit::RemoveEdge(a, b);
    if (*batch > 1) {
      // Validate against the live adjacency (and the edits already queued
      // for this batch) so the batch applies cleanly.
      const bool feasible =
          edit.kind == GraphEdit::Kind::kInsertEdge
              ? !session->data().HasEdge(a, b, 0)
              : session->data().HasEdge(a, b, 0);
      const bool conflicts = std::any_of(
          pending.begin(), pending.end(), [&](const GraphEdit& p) {
            return p.from == a && p.to == b;
          });
      if (!feasible || conflicts) {
        ++rejected;
        continue;
      }
      pending.push_back(edit);
      ++applied;
      auto flushed = flush(applied == *updates);
      if (!flushed.ok()) return Fail(flushed.status().ToString());
      continue;
    }
    const Status s = edit.kind == GraphEdit::Kind::kInsertEdge
                         ? session->InsertEdge(a, b)
                         : session->RemoveEdge(a, b);
    if (!s.ok()) {
      ++rejected;  // duplicate / absent edge: try another pair
      continue;
    }
    ++applied;
    affected += session->last_update().affected_centers;
    total_seconds += session->last_update().seconds;
  }
  if (auto flushed = flush(true); !flushed.ok()) {
    return Fail(flushed.status().ToString());
  }
  if (applied < *updates) {
    std::printf("stopped after %zu update(s): no more feasible edits\n",
                applied);
  }

  std::printf("%zu update(s) in %.2f ms (%.3f ms avg, %zu ball repairs, "
              "%.1f avg); deltas: +%zu -%zu; matches now: %zu\n",
              applied, total_seconds * 1e3,
              applied > 0 ? total_seconds * 1e3 / applied : 0, affected,
              applied > 0 ? static_cast<double>(affected) / applied : 0,
              added, removed, session->CurrentMatches().size());

  // Cross-check the maintained result against a from-scratch match of the
  // final snapshot — the invariant the differential suite locks down.
  // Both sides are canonical (min-center representative, center order), so
  // compare (center, content hash) pairs, not just counts.
  MatchRequest verify;
  verify.algo = Algo::kStrong;
  auto scratch = engine.Match(*prepared, *session->Snapshot(), verify);
  if (!scratch.ok()) return Fail(scratch.status().ToString());
  const auto maintained = session->CurrentMatches();
  bool identical = scratch->subgraphs.size() == maintained.size();
  for (size_t i = 0; identical && i < maintained.size(); ++i) {
    identical = scratch->subgraphs[i].center == maintained[i].center &&
                scratch->subgraphs[i].SameSubgraph(maintained[i]);
  }
  if (!identical) {
    return Fail("maintained result disagrees with from-scratch match");
  }
  std::printf("verified against from-scratch match (%zu subgraph(s))\n",
              maintained.size());
  return 0;
}

// Serving load generator: stands a GpmServer on a loaded or generated
// graph and drives it with the shared load harness (serving/load_driver.h)
// — N paced or closed-loop client threads, optional writer churn
// publishing snapshot epochs, optional token-bucket admission.
int RunLoadgen(const Args& args) {
  using serving::GpmServer;
  using serving::LoadOptions;
  using serving::LoadProgress;
  using serving::LoadReport;
  using serving::ServerOptions;
  const std::string graph_path = args.Get("graph", "");
  const std::string patterns_arg = args.Get("patterns", "");
  const std::string kind = args.Get("kind", "uniform");
  auto nodes = ParseUint64(args.Get("nodes", "2000"));
  auto labels = ParseUint64(args.Get("labels", "0"));
  auto alpha = ParseDouble(args.Get("alpha", "1.2"));
  auto seed = ParseUint64(args.Get("seed", "1"));
  auto npatterns = ParseUint64(args.Get("npatterns", "3"));
  auto pnodes = ParseUint64(args.Get("pnodes", "8"));
  auto threads = ParseUint64(args.Get("threads", "4"));
  auto duration = ParseDouble(args.Get("duration", "3"));
  auto qps = ParseDouble(args.Get("qps", "0"));
  auto churn = ParseDouble(args.Get("churn", "0"));
  auto batch = ParseUint64(args.Get("batch", "4"));
  auto deadline_ms = ParseDouble(args.Get("deadline-ms", "0"));
  auto rate = ParseDouble(args.Get("rate", "0"));
  auto burst = ParseDouble(args.Get("burst", "0"));
  if (!nodes.ok() || !labels.ok() || !alpha.ok() || !seed.ok() ||
      !npatterns.ok() || !pnodes.ok() || !threads.ok() || !duration.ok() ||
      !qps.ok() || !churn.ok() || !batch.ok() || !deadline_ms.ok() ||
      !rate.ok() || !burst.ok()) {
    return Fail("bad numeric flag");
  }
  auto request = RequestFromAlgoName(args.Get("algo", "strong+"));
  if (!request.ok()) return Fail(request.status().ToString());

  Graph g;
  if (!graph_path.empty()) {
    auto loaded = LoadGraph(graph_path);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    g = std::move(*loaded);
  } else {
    const uint32_t n = static_cast<uint32_t>(*nodes);
    const uint32_t l = *labels > 0 ? static_cast<uint32_t>(*labels)
                                   : ScaledLabelCount(n);
    if (kind == "amazon") {
      g = MakeAmazonLike(n, *seed, l);
    } else if (kind == "youtube") {
      g = MakeYouTubeLike(n, *seed, l);
    } else if (kind == "uniform") {
      g = MakeUniform(n, *alpha, l, *seed);
    } else {
      return Fail("unknown --kind '" + kind + "'");
    }
  }

  Engine engine;
  std::vector<std::shared_ptr<const PreparedQuery>> queries;
  if (!patterns_arg.empty()) {
    for (std::string_view path : SplitString(patterns_arg, ",")) {
      auto q = LoadGraph(std::string(path));
      if (!q.ok()) return Fail(q.status().ToString());
      auto pq = engine.PrepareCached(*q);
      if (!pq.ok())
        return Fail(std::string(path) + ": " + pq.status().ToString());
      queries.push_back(*pq);
    }
  } else {
    Rng rng(*seed * 31 + 7);
    for (uint64_t i = 0; i < *npatterns; ++i) {
      auto q = ExtractPattern(g, static_cast<uint32_t>(*pnodes), &rng);
      if (!q.ok()) return Fail(q.status().ToString());
      auto pq = engine.PrepareCached(*q);
      if (!pq.ok()) return Fail(pq.status().ToString());
      queries.push_back(*pq);
    }
  }
  if (queries.empty()) return Fail("no patterns to serve");

  ServerOptions server_options;
  server_options.admission_rate = *rate;
  server_options.admission_burst = *burst;
  server_options.deadline_seconds = *deadline_ms * 1e-3;
  server_options.max_clients = static_cast<size_t>(*threads) + 2;
  // The writer maintains the smallest-diameter query: the repair ball
  // radius is the pattern diameter, so this keeps per-batch repair local.
  for (size_t i = 1; i < queries.size(); ++i) {
    if (queries[i]->diameter() <
        queries[server_options.writer_query_index]->diameter()) {
      server_options.writer_query_index = i;
    }
  }
  auto server = GpmServer::Create(engine, queries, g, server_options);
  if (!server.ok()) return Fail(server.status().ToString());

  std::printf("serving %zu nodes, %zu edges | %zu queries | %zu client "
              "threads%s%s\n",
              g.num_nodes(), g.num_edges(), queries.size(),
              static_cast<size_t>(*threads),
              *churn > 0 ? ", writer churn on" : "",
              *rate > 0 ? ", admission on" : "");

  LoadOptions load;
  load.client_threads = static_cast<size_t>(*threads);
  load.duration_seconds = *duration;
  load.target_qps = *qps;
  load.churn_edits_per_second = *churn;
  load.churn_batch = static_cast<size_t>(*batch);
  load.request = *request;
  load.seed = *seed;
  load.progress = [](const LoadProgress& p) {
    std::printf("  t=%5.1fs  %llu served, %llu rejected | epoch %llu "
                "(lag %llu, %llu retiring)\n",
                p.elapsed_seconds,
                static_cast<unsigned long long>(p.served),
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.epoch),
                static_cast<unsigned long long>(p.epoch_lag),
                static_cast<unsigned long long>(p.retired_pending));
    std::fflush(stdout);
  };
  const LoadReport report = RunLoad(*server, load);
  std::printf("%s", serving::RenderReport(report).c_str());
  PrintCacheStats(server->engine());
  if (report.consistency_mismatches > 0 || report.groundtruth_mismatches > 0)
    return Fail("verification found mismatched responses");
  return 0;
}

int RunMinimize(const Args& args) {
  const std::string pattern_path = args.Get("pattern", "");
  if (pattern_path.empty()) return Fail("--pattern is required");
  auto q = LoadGraph(pattern_path);
  if (!q.ok()) return Fail(q.status().ToString());
  auto mq = MinimizeQuery(*q);
  if (!mq.ok()) return Fail(mq.status().ToString());
  std::printf("|Q| = %zu+%zu  ->  |Qm| = %zu+%zu\n", q->num_nodes(),
              q->num_edges(), mq->minimized.num_nodes(),
              mq->minimized.num_edges());
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    Status s = SaveGraph(mq->minimized, out);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("wrote minimized pattern to %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gpm

int main(int argc, char** argv) {
  if (argc < 2) return gpm::Usage();
  const std::string command = argv[1];
  const gpm::Args args = gpm::Args::Parse(argc, argv, 2);
  if (command == "generate") return gpm::RunGenerate(args);
  if (command == "stats") return gpm::RunStats(args);
  if (command == "extract") return gpm::RunExtract(args);
  if (command == "match") return gpm::RunMatch(args);
  if (command == "batch") return gpm::RunBatch(args);
  if (command == "watch") return gpm::RunWatch(args);
  if (command == "algos") return gpm::RunAlgos();
  if (command == "minimize") return gpm::RunMinimize(args);
  if (command == "loadgen") return gpm::RunLoadgen(args);
  return gpm::Usage();
}

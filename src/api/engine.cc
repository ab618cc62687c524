#include "api/engine.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/algo_names.h"
#include "matching/containment.h"
#include "common/logging.h"
#include "common/timer.h"
#include "extensions/regex_strong.h"
#include "graph/components.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/ball_executor.h"
#include "matching/bounded_simulation.h"
#include "matching/dual_simulation.h"
#include "matching/parallel_match.h"
#include "matching/simulation.h"
#include "matching/strong_simulation_internal.h"

namespace gpm {

/// The shared, thread-safe serving-path state behind every copy of one
/// Engine: the six LRU caches plus the data-version counter that keys
/// the data-dependent memos (see engine_cache.h for the invalidation
/// contract).
struct Engine::CacheState {
  CacheState(size_t prepared_capacity, size_t filter_capacity,
             size_t regex_filter_capacity, size_t result_capacity,
             size_t csr_capacity, size_t aux_capacity)
      : prepared(prepared_capacity),
        filter(filter_capacity),
        regex_filter(regex_filter_capacity),
        results(result_capacity),
        csr(csr_capacity),
        aux(aux_capacity) {}

  PreparedQueryCache prepared;
  DualFilterCache filter;
  RegexFilterCache regex_filter;
  MatchResultCache results;
  CsrSnapshotCache csr;
  AuxGraphCache aux;
  /// Roster of recently prepared patterns + the cross-query reuse
  /// counters (advisory; see CrossQueryIndex).
  CrossQueryIndex cross_query;
  std::atomic<uint64_t> data_version{0};
};

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options)
    : options_(options),
      caches_(std::make_shared<CacheState>(
          options.prepared_cache_capacity, options.filter_cache_capacity,
          options.regex_filter_cache_capacity, options.result_cache_capacity,
          options.csr_snapshot_cache_capacity,
          options.aux_graph_cache_capacity)) {}

void Engine::TickDataVersion() const {
  caches_->data_version.fetch_add(1, std::memory_order_acq_rel);
}

EngineCacheStats Engine::cache_stats() const {
  EngineCacheStats out;
  out.prepared = caches_->prepared.Stats();
  out.filter = caches_->filter.Stats();
  out.regex_filter = caches_->regex_filter.Stats();
  out.results = caches_->results.Stats();
  out.csr = caches_->csr.Stats();
  out.aux = caches_->aux.Stats();
  out.data_version = caches_->data_version.load(std::memory_order_acquire);
  out.equivalent_result_hits = caches_->cross_query.equivalent_result_hits.load(
      std::memory_order_relaxed);
  out.containment_filter_seeds =
      caches_->cross_query.containment_filter_seeds.load(
          std::memory_order_relaxed);
  out.dual_relations_shared = caches_->cross_query.dual_relations_shared.load(
      std::memory_order_relaxed);
  out.cross_query_entries = caches_->cross_query.size();
  return out;
}

const char* ExecPolicyName(ExecPolicy::Kind kind) {
  switch (kind) {
    case ExecPolicy::Kind::kSerial: return "serial";
    case ExecPolicy::Kind::kParallel: return "parallel";
    case ExecPolicy::Kind::kDistributed: return "distributed";
  }
  return "unknown";
}

const RegexQuery& PreparedQuery::regex() const {
  GPM_CHECK(regex_.has_value());
  return *regex_;
}

namespace {

bool IsRelationAlgo(Algo algo) {
  return algo == Algo::kSimulation || algo == Algo::kDualSimulation ||
         algo == Algo::kBoundedSimulation;
}

// The MatchOptions actually executed for a strong-family request (see
// MatchRequest::options for the kStrong / kStrongPlus contract).
MatchOptions EffectiveOptions(const MatchRequest& request) {
  if (request.algo == Algo::kStrongPlus) {
    MatchOptions options = MatchPlusOptions();
    options.dedup = request.options.dedup;
    options.radius_override = request.options.radius_override;
    return options;
  }
  return request.options;
}

// The MatchOptions a kRegexStrong request actually executes: `dedup` and
// `radius_override` are honored (same fields kStrongPlus honors); the
// §4.2 toggles are meaningless for the regex notion — the regex filter is
// always on and the minQ quotient is defined for plain patterns only — so
// a request that sets one gets a named error instead of a silent ignore.
// The returned options also key the result cache, so requests differing
// only in the always-on dual_filter flag share one entry.
Result<MatchOptions> EffectiveRegexOptions(const MatchRequest& request) {
  const MatchOptions& requested = request.options;
  if (requested.minimize_query) {
    return Status::InvalidArgument(
        "MatchOptions::minimize_query does not apply to Algo::kRegexStrong: "
        "the minQ quotient is defined for plain patterns only");
  }
  if (requested.connectivity_pruning) {
    return Status::InvalidArgument(
        "MatchOptions::connectivity_pruning does not apply to "
        "Algo::kRegexStrong: the virtual match graph has its own "
        "center-component extraction");
  }
  if (request.policy.kind == ExecPolicy::Kind::kDistributed &&
      !requested.dedup) {
    return Status::InvalidArgument(
        "MatchOptions::dedup=false is not supported by distributed "
        "Algo::kRegexStrong runs: sites dedup during reassembly; rerun "
        "under ExecPolicy::Serial or ExecPolicy::Parallel for the raw "
        "one-result-per-ball stream");
  }
  MatchOptions effective;
  effective.dedup = requested.dedup;
  effective.radius_override = requested.radius_override;
  return effective;
}

// Key of the materialized-result cache for one (query, options, policy,
// data graph) combination (the eligibility checks live at the call sites).
MatchResultKey MakeResultKey(uint64_t pattern_fingerprint,
                             const MatchOptions& options,
                             const ExecPolicy& policy, const Graph* g,
                             uint64_t data_version) {
  MatchResultKey key;
  key.pattern_fingerprint = pattern_fingerprint;
  key.minimize_query = options.minimize_query;
  key.dual_filter = options.dual_filter;
  key.connectivity_pruning = options.connectivity_pruning;
  key.dedup = options.dedup;
  key.radius_override = options.radius_override;
  key.policy_kind = static_cast<int>(policy.kind);
  key.num_threads =
      policy.kind == ExecPolicy::Kind::kParallel ? policy.num_threads : 0;
  key.data_graph_id = g->instance_id();
  key.data_version = data_version;
  return key;
}

// Drains an already-materialized result set into a sink, honoring its
// early-stop contract. Returns the number delivered.
size_t DrainToSink(std::vector<PerfectSubgraph>&& subgraphs,
                   const SubgraphSink& sink) {
  size_t delivered = 0;
  for (PerfectSubgraph& pg : subgraphs) {
    ++delivered;
    if (!sink(std::move(pg))) break;
  }
  return delivered;
}

}  // namespace

Result<PreparedQuery> Engine::Prepare(const Graph& pattern) const {
  if (!pattern.finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (pattern.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  PreparedQuery query;
  query.pattern_ = pattern;
  query.fingerprint_ = pattern.ContentHash();
  // Canonical identity: isomorphic copies of one pattern share a
  // fingerprint (and carry the node order that witnesses it), which is
  // what lets PrepareCached collapse permuted duplicates and Dispatch
  // serve a renamed pattern from an equivalent cached result. When the
  // permutation search gives up, identity degrades to the exact hash.
  std::vector<NodeId> canonical_order;
  if (CanonicalOrder(query.pattern_, &canonical_order)) {
    query.canonical_order_ = std::move(canonical_order);
    query.canonical_fingerprint_ =
        CanonicalFingerprint(query.pattern_, query.canonical_order_);
  } else {
    query.canonical_fingerprint_ = query.fingerprint_;
  }
  auto prep = PreparePattern(query.pattern_, options_.minimize_on_prepare);
  if (prep.ok()) {
    query.prep_ = std::move(prep).ValueOrDie();
  } else {
    // Disconnected pattern: the relation notions still work; record why
    // the strong family will not.
    query.strong_status_ = prep.status();
  }
  return query;
}

Result<PreparedQuery> Engine::Prepare(RegexQuery regex) const {
  if (!regex.pattern().finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (regex.pattern().num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  PreparedQuery query;
  query.pattern_ = regex.pattern();
  // The constraint-aware hash: regex cache entries (result cache,
  // regex-filter memo) must re-key when a constraint changes, and must
  // never collide with the plain pattern graph's entries.
  query.fingerprint_ = regex.ContentHash();
  // Regex queries keep exact identity: cross-query reuse is defined for
  // the plain dual filter only (a regex constraint set changes both the
  // filter semantics and the ball radius).
  query.canonical_fingerprint_ = query.fingerprint_;
  if (IsConnected(query.pattern_)) {
    query.regex_radius_ =
        DefaultRegexRadius(regex, options_.regex_unbounded_cap);
  } else {
    query.strong_status_ = Status::InvalidArgument(
        "pattern graph must be connected (paper §2.1)");
  }
  query.regex_ = std::move(regex);
  return query;
}

Result<std::shared_ptr<const PreparedQuery>> Engine::PrepareCached(
    const Graph& pattern) const {
  if (!pattern.finalized())
    return Status::InvalidArgument("pattern must be finalized");
  if (pattern.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  const uint64_t fingerprint = pattern.ContentHash();
  // Key on the canonical (isomorphism-class) fingerprint: structurally
  // identical patterns with permuted node ids land on one cache entry
  // instead of one each. When canonicalization gives up (permutation
  // budget), the key degrades to the exact content hash — the old
  // behavior.
  std::vector<NodeId> order;
  const uint64_t cache_key = CanonicalOrder(pattern, &order)
                                 ? CanonicalFingerprint(pattern, order)
                                 : fingerprint;
  if (auto cached = caches_->prepared.Get(cache_key)) {
    // Trust the 64-bit key only after a structural re-check: a hash
    // collision compiles uncached instead of serving the wrong query.
    if (cached->fingerprint() == fingerprint &&
        cached->pattern().StructurallyEqual(pattern,
                                            /*compare_edge_labels=*/true)) {
      return cached;
    }
    // Same isomorphism class under a different node numbering (or a
    // collision): compile fresh without occupying a second slot — the
    // resident entry already covers the class, and a compiled prep must
    // stay a function of its own pattern's numbering (the quotient and
    // the data-side memos are all indexed by it).
    GPM_ASSIGN_OR_RETURN(PreparedQuery fresh, Prepare(pattern));
    auto owned = std::make_shared<const PreparedQuery>(std::move(fresh));
    caches_->cross_query.Register(owned);
    return owned;
  }
  GPM_ASSIGN_OR_RETURN(PreparedQuery fresh, Prepare(pattern));
  auto stored = caches_->prepared.Put(cache_key, std::move(fresh));
  caches_->cross_query.Register(stored);
  return stored;
}

Status Engine::LookupFilter(const PreparedQuery& query, const Graph& g,
                            const MatchOptions& options, ExecPolicy::Kind kind,
                            FilterMemo* memo) const {
  // Memoization applies where the global filter runs in-process: the
  // Serial and Parallel executors. Distributed sites build their own
  // per-fragment state, and a run without the filter has nothing to memo.
  if (!options.dual_filter || kind == ExecPolicy::Kind::kDistributed ||
      caches_->filter.capacity() == 0) {
    return Status::OK();
  }
  DualFilterKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = options.minimize_query;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  memo->filter = caches_->filter.Get(key);
  if (memo->filter != nullptr) {
    memo->hit = true;
    return Status::OK();
  }
  // Miss: before paying the cold fixpoint, try to seed it from a cached
  // pattern that dual-contains this one (candidate sets start from the
  // container's survivors — byte-identical result, smaller worklist).
  DualFilterResult computed;
  if (TrySeedFilter(query, g, options.minimize_query, &computed)) {
    memo->seeded = true;
  } else {
    GPM_ASSIGN_OR_RETURN(computed,
                         ComputeDualFilter(query.pattern(), g,
                                           options.minimize_query,
                                           &query.prep()));
  }
  memo->filter = caches_->filter.Put(key, std::move(computed));
  memo->miss = true;
  // This pattern now has a resident filter memo — put it on the
  // cross-query roster so later queries can probe it as a donor.
  if (!caches_->cross_query.Contains(query.fingerprint())) {
    caches_->cross_query.Register(
        std::make_shared<const PreparedQuery>(query));
  }
  return Status::OK();
}

Status Engine::LookupRegexFilter(const PreparedQuery& query, const Graph& g,
                                 ExecPolicy::Kind kind,
                                 FilterMemo* memo) const {
  // Same scope as the dual-filter memo: in-process executors only —
  // Distributed sites build their own per-fragment state — and nothing to
  // do when the regex filter layer is disabled (the run then scans every
  // label-matching center, like a direct MatchStrongRegex).
  if (kind == ExecPolicy::Kind::kDistributed ||
      caches_->regex_filter.capacity() == 0) {
    return Status::OK();
  }
  DualFilterKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = false;  // regex runs never minimize
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  memo->filter = caches_->regex_filter.Get(key);
  if (memo->filter != nullptr) {
    memo->hit = true;
    return Status::OK();
  }
  GPM_ASSIGN_OR_RETURN(DualFilterResult computed,
                       ComputeRegexFilter(query.regex(), g));
  memo->filter = caches_->regex_filter.Put(key, std::move(computed));
  memo->miss = true;
  return Status::OK();
}

bool Engine::TrySeedFilter(const PreparedQuery& query, const Graph& g,
                           bool minimize_query, DualFilterResult* out) const {
  if (query.has_regex()) return false;
  // Resolve the effective pattern the filter will run on, mirroring
  // ComputeDualFilter. When the request minimizes but the prep carries no
  // quotient (minimize_on_prepare off), decline rather than re-minimize
  // here — the cold path handles it.
  const Graph* qeff = &query.pattern();
  if (minimize_query) {
    if (!query.prep().has_minimized) return false;
    qeff = &query.prep().minimized;
  }
  const uint64_t version =
      caches_->data_version.load(std::memory_order_acquire);
  const auto roster = caches_->cross_query.Snapshot();
  // Newest donors first, a bounded number of them: the roster is
  // advisory and the containment check is cheap but not free.
  constexpr size_t kMaxDonors = 8;
  size_t examined = 0;
  for (auto it = roster.rbegin();
       it != roster.rend() && examined < kMaxDonors; ++it) {
    const CrossQueryIndex::Entry& entry = *it;
    if (entry.query == nullptr || entry.query->has_regex()) continue;
    if (entry.fingerprint == query.fingerprint()) continue;
    ++examined;
    // A donor is usable under either minimize flag — the composition
    // lemma only needs its survivor sets, whichever quotient they are
    // indexed by. Try the caller's flag first (the likelier resident).
    for (const bool donor_min : {minimize_query, !minimize_query}) {
      const Graph* donor_qeff = &entry.query->pattern();
      if (donor_min) {
        if (!entry.query->prep().has_minimized) continue;
        donor_qeff = &entry.query->prep().minimized;
      }
      DualFilterKey donor_key;
      donor_key.pattern_fingerprint = entry.fingerprint;
      donor_key.minimize_query = donor_min;
      donor_key.data_graph_id = g.instance_id();
      donor_key.data_version = version;
      const auto donor_filter = caches_->filter.Peek(donor_key);
      if (donor_filter == nullptr) continue;
      const ContainmentWitness witness =
          CheckDualContainment(*donor_qeff, *qeff);
      if (!witness.contained) continue;
      if (donor_filter->proven_empty) {
        // Emptiness transfers: the donor pattern is connected, so its
        // non-total relation cascaded to all-empty survivor sets, and
        // every covered node of ours (containment guarantees at least
        // one) is bounded by an empty set.
        *out = DualFilterResult{};
        out->proven_empty = true;
        caches_->cross_query.containment_filter_seeds.fetch_add(
            1, std::memory_order_relaxed);
        return true;
      }
      if (donor_filter->bits.size() != donor_qeff->num_nodes()) continue;
      // Initial candidates: the donor's survivors for witnessed nodes
      // (already label-consistent — both dual simulations preserve
      // labels), whole label classes for uncovered ones. Both are
      // supersets of the maximum relation, which is all the seeded
      // fixpoint needs to land on the exact cold-run result.
      std::vector<std::vector<NodeId>> initial(qeff->num_nodes());
      for (NodeId u = 0; u < qeff->num_nodes(); ++u) {
        if (witness.map[u] != kInvalidNode) {
          const DynamicBitset& survivors = donor_filter->bits[witness.map[u]];
          const Label want = qeff->label(u);
          survivors.ForEach([&](size_t v) {
            if (g.label(static_cast<NodeId>(v)) == want) {
              initial[u].push_back(static_cast<NodeId>(v));
            }
          });
        } else {
          const auto cls = g.NodesWithLabel(qeff->label(u));
          initial[u].assign(cls.begin(), cls.end());
        }
      }
      auto seeded = ComputeDualFilterSeeded(query.pattern(), g,
                                            minimize_query, &query.prep(),
                                            initial);
      if (!seeded.ok()) continue;
      *out = std::move(seeded).ValueOrDie();
      caches_->cross_query.containment_filter_seeds.fetch_add(
          1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Engine::TryServeEquivalentResult(const PreparedQuery& query,
                                      const Graph& g,
                                      const MatchOptions& options,
                                      const MatchRequest& request,
                                      MatchResponse* response) const {
  if (query.has_regex() || query.canonical_order().empty()) return false;
  if (caches_->results.capacity() == 0) return false;
  const uint64_t version =
      caches_->data_version.load(std::memory_order_acquire);
  const size_t n = query.pattern().num_nodes();
  const auto roster = caches_->cross_query.Snapshot();
  for (auto it = roster.rbegin(); it != roster.rend(); ++it) {
    const CrossQueryIndex::Entry& entry = *it;
    if (entry.query == nullptr || entry.query->has_regex()) continue;
    if (entry.canonical_fingerprint != query.canonical_fingerprint())
      continue;
    if (entry.fingerprint == query.fingerprint()) continue;
    if (entry.query->canonical_order().empty()) continue;
    const MatchResultKey donor_key =
        MakeResultKey(entry.fingerprint, options, request.policy, &g, version);
    const auto donor = caches_->results.Peek(donor_key);
    if (donor == nullptr) continue;
    // The canonical orders imply a renaming phi : ours -> donor's; verify
    // it is a labeled isomorphism (fingerprint collisions must fall
    // through to execution, never to a wrong answer).
    const auto phi = WitnessFromCanonicalOrders(
        query.pattern(), query.canonical_order(), entry.query->pattern(),
        entry.query->canonical_order());
    if (!phi.has_value()) continue;
    bool shapes_ok = true;
    for (const PerfectSubgraph& pg : donor->subgraphs) {
      if (pg.relation.sim.size() != n) {
        shapes_ok = false;
        break;
      }
    }
    if (!shapes_ok) continue;
    // Serve through the renaming. A perfect subgraph's nodes, edges,
    // center, and radius are data-graph facts, identical for isomorphic
    // patterns (so the (center, content-hash) canonical order is too);
    // only the relation is indexed by pattern node, so only it is
    // translated: our node u matched what the donor's phi[u] matched.
    response->subgraphs = donor->subgraphs;
    for (PerfectSubgraph& pg : response->subgraphs) {
      MatchRelation renamed(n);
      for (NodeId u = 0; u < n; ++u) {
        renamed.sim[u] = std::move(pg.relation.sim[(*phi)[u]]);
      }
      pg.relation = std::move(renamed);
    }
    response->stats = donor->stats;
    response->stats.result_cache_hits = 1;
    response->stats.result_cache_misses = 0;
    response->stats.filter_cache_hits = 0;
    response->stats.filter_cache_misses = 0;
    response->stats.filter_seeded_containment = 0;
    response->stats.result_served_equivalent = 1;
    response->subgraphs_delivered = response->subgraphs.size();
    response->matched = !response->subgraphs.empty();
    caches_->cross_query.equivalent_result_hits.fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::shared_ptr<const CsrGraph> Engine::LookupCsr(const Graph& g) const {
  if (caches_->csr.capacity() == 0) return nullptr;
  CsrSnapshotKey key;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  if (auto hit = caches_->csr.Get(key)) return hit;
  return caches_->csr.Put(key, CsrGraph::FromGraph(g));
}

std::shared_ptr<const AuxGraphResult> Engine::LookupAux(
    const PreparedQuery& query, const Graph& g, bool minimize_query,
    uint32_t radius, const CsrGraph& csr, const DualFilterResult& filter,
    bool* aux_miss) const {
  if (caches_->aux.capacity() == 0) return nullptr;
  AuxGraphKey key;
  key.pattern_fingerprint = query.fingerprint();
  key.minimize_query = minimize_query;
  key.radius = radius;
  key.data_graph_id = g.instance_id();
  key.data_version = caches_->data_version.load(std::memory_order_acquire);
  if (auto hit = caches_->aux.Get(key)) return hit;
  *aux_miss = true;
  return caches_->aux.Put(
      key, query.has_regex()
               ? BuildRegexAuxGraph(query.regex(), csr, filter, radius)
               : BuildAuxGraph(csr, filter, radius));
}

Result<MatchResponse> Engine::Match(const PreparedQuery& query, const Graph& g,
                                    const MatchRequest& request) const {
  return Dispatch(query, g, request, nullptr);
}

Result<MatchResponse> Engine::Match(const Graph& pattern, const Graph& g,
                                    const MatchRequest& request) const {
  GPM_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(pattern));
  return Dispatch(query, g, request, nullptr);
}

Result<MatchResponse> Engine::Match(const PreparedQuery& query, const Graph& g,
                                    const MatchRequest& request,
                                    const SubgraphSink& sink) const {
  return Dispatch(query, g, request, &sink);
}

Result<MatchResponse> Engine::Dispatch(const PreparedQuery& query,
                                       const Graph& g,
                                       const MatchRequest& request,
                                       const SubgraphSink* sink) const {
  if (!g.finalized())
    return Status::InvalidArgument("data graph must be finalized");
  if (query.has_regex() && request.algo != Algo::kRegexStrong) {
    return Status::InvalidArgument(
        "query was prepared with regex constraints; request "
        "Algo::kRegexStrong");
  }
  if (!query.has_regex() && request.algo == Algo::kRegexStrong) {
    return Status::InvalidArgument(
        "Algo::kRegexStrong needs a query prepared from a RegexQuery");
  }
  if (sink != nullptr && IsRelationAlgo(request.algo)) {
    return Status::InvalidArgument(
        "streaming applies to the strong-simulation family; relation "
        "notions produce one relation, not a subgraph stream");
  }

  Timer timer;
  MatchResponse response;

  if (IsRelationAlgo(request.algo)) {
    // Single-worklist algorithms: Parallel runs them serially (call-shape
    // uniformity); Distributed is impossible without locality (Example 7).
    if (request.policy.kind == ExecPolicy::Kind::kDistributed) {
      return Status::NotImplemented(
          std::string("algorithm '") + AlgoName(request.algo) +
          "' has no distributed executor: relation notions have no data "
          "locality (Example 7); rerun it under ExecPolicy::Serial or "
          "ExecPolicy::Parallel, or pick a strong-family algorithm for "
          "ExecPolicy::Distributed");
    }
    switch (request.algo) {
      case Algo::kSimulation:
        response.relation = ComputeSimulation(query.pattern(), g);
        break;
      case Algo::kDualSimulation:
        response.relation = ComputeDualSimulation(query.pattern(), g);
        break;
      case Algo::kBoundedSimulation:
        response.relation = ComputeBoundedSimulation(query.pattern(), g);
        break;
      default:
        // A future Algo value must be routed explicitly, not silently
        // evaluated under the wrong notion.
        return Status::InvalidArgument(
            "algorithm has no relation executor");
    }
    response.matched = response.relation.IsTotal();
    response.seconds = timer.Seconds();
    return response;
  }

  if (request.algo == Algo::kRegexStrong) {
    if (!query.strong_status().ok()) return query.strong_status();
    // Same serving path as the plain strong family: result cache for
    // exact repeats (keyed on the *effective* regex options — dedup and
    // radius_override; the §4.2 toggles are named errors above, so
    // requests differing only in normalized-away knobs share one entry),
    // regex-filter memo for warm starts.
    GPM_ASSIGN_OR_RETURN(const MatchOptions regex_options,
                         EffectiveRegexOptions(request));
    std::optional<MatchResultKey> result_key;
    if (sink == nullptr &&
        request.policy.kind != ExecPolicy::Kind::kDistributed &&
        caches_->results.capacity() > 0) {
      result_key = MakeResultKey(
          query.fingerprint(), regex_options, request.policy, &g,
          caches_->data_version.load(std::memory_order_acquire));
      if (auto hit = caches_->results.Get(*result_key)) {
        response.subgraphs = hit->subgraphs;
        response.stats = hit->stats;
        response.stats.result_cache_hits = 1;
        response.stats.result_cache_misses = 0;
        response.stats.filter_cache_hits = 0;
        response.stats.filter_cache_misses = 0;
        response.stats.filter_seeded_containment = 0;
        response.stats.result_served_equivalent = 0;
        response.subgraphs_delivered = response.subgraphs.size();
        response.matched = !response.subgraphs.empty();
        response.seconds = timer.Seconds();
        response.stats.total_seconds = response.seconds;
        return response;
      }
    }
    FilterMemo memo;
    GPM_RETURN_NOT_OK(
        LookupRegexFilter(query, g, request.policy.kind, &memo));
    const DualFilterResult* filter = memo.filter.get();
    // Memoized CSR snapshot for the in-process ball builders (null when
    // disabled or Distributed — sites hold fragment-local graphs).
    const std::shared_ptr<const CsrGraph> csr_keepalive =
        request.policy.kind != ExecPolicy::Kind::kDistributed ? LookupCsr(g)
                                                              : nullptr;
    const CsrGraph* csr = csr_keepalive.get();
    // Memoized pruned auxiliary graph + landmark center index for the
    // in-process executors (they build one locally when null — the aux
    // cache is off, or the filter was bypassed/proved Θ empty).
    const uint32_t radius = regex_options.radius_override != 0
                                ? regex_options.radius_override
                                : query.regex_radius();
    std::shared_ptr<const AuxGraphResult> aux_keepalive;
    bool aux_miss = false;
    if (memo.filter != nullptr && !memo.filter->proven_empty &&
        csr != nullptr) {
      aux_keepalive = LookupAux(query, g, /*minimize_query=*/false, radius,
                                *csr, *memo.filter, &aux_miss);
    }
    const AuxGraphResult* aux = aux_keepalive.get();
    const auto annotate = [&memo, &aux_keepalive, aux_miss](MatchStats* stats) {
      stats->filter_cache_hits = memo.hit ? 1 : 0;
      stats->filter_cache_misses = memo.miss ? 1 : 0;
      // A miss paid the global regex fixpoint while filling the cache;
      // put that cost back on this call's ledger (see LookupFilter). Same
      // for the aux build LookupAux paid on its miss.
      if (memo.miss) {
        stats->global_filter_seconds += memo.filter->seconds;
        stats->total_seconds += memo.filter->seconds;
      }
      if (aux_miss) {
        stats->global_filter_seconds += aux_keepalive->seconds;
        stats->total_seconds += aux_keepalive->seconds;
      }
    };
    switch (request.policy.kind) {
      case ExecPolicy::Kind::kSerial: {
        if (sink != nullptr) {
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongRegexStream(query.regex(), g, radius, *sink,
                                     &response.stats, filter, csr, aux,
                                     regex_options.dedup));
          annotate(&response.stats);
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(response.subgraphs,
                             MatchStrongRegex(query.regex(), g, radius,
                                              &response.stats, filter, csr,
                                              aux, regex_options.dedup));
        break;
      }
      case ExecPolicy::Kind::kParallel: {
        if (sink != nullptr) {
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongRegexParallelStream(query.regex(), g, radius,
                                             request.policy.num_threads,
                                             *sink, &response.stats, filter,
                                             csr, aux, regex_options.dedup));
          annotate(&response.stats);
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(
            response.subgraphs,
            MatchStrongRegexParallel(query.regex(), g, radius,
                                     request.policy.num_threads,
                                     &response.stats, filter, csr, aux,
                                     regex_options.dedup));
        break;
      }
      case ExecPolicy::Kind::kDistributed: {
        if (sink != nullptr) {
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongRegexDistributedStream(query.regex(), g, radius,
                                                request.policy.distributed,
                                                *sink,
                                                &response.distributed));
          response.stats.seconds_to_first_subgraph =
              response.distributed.seconds_to_first_result;
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(
            response.subgraphs,
            MatchStrongRegexDistributed(query.regex(), g, radius,
                                        request.policy.distributed,
                                        &response.distributed));
        break;
      }
    }
    annotate(&response.stats);
    if (result_key.has_value()) {
      response.stats.result_cache_misses = 1;
      caches_->results.Put(*result_key,
                           {response.subgraphs, response.stats});
    }
  } else {
    if (!query.strong_status().ok()) return query.strong_status();
    const MatchOptions options = EffectiveOptions(request);
    // Serving-path result cache: an exactly repeated request (see
    // MatchResultKey) is answered from memory — no filter, no balls.
    // Streaming calls and Distributed runs always execute.
    std::optional<MatchResultKey> result_key;
    if (sink == nullptr &&
        request.policy.kind != ExecPolicy::Kind::kDistributed &&
        caches_->results.capacity() > 0) {
      result_key = MakeResultKey(
          query.fingerprint(), options, request.policy, &g,
          caches_->data_version.load(std::memory_order_acquire));
      if (auto hit = caches_->results.Get(*result_key)) {
        response.subgraphs = hit->subgraphs;
        response.stats = hit->stats;
        response.stats.result_cache_hits = 1;
        response.stats.result_cache_misses = 0;
        response.stats.filter_cache_hits = 0;
        response.stats.filter_cache_misses = 0;
        response.stats.filter_seeded_containment = 0;
        response.stats.result_served_equivalent = 0;
        response.subgraphs_delivered = response.subgraphs.size();
        response.matched = !response.subgraphs.empty();
        response.seconds = timer.Seconds();
        response.stats.total_seconds = response.seconds;
        return response;
      }
      // Exact miss: a cached result for an *isomorphic* pattern (same
      // canonical fingerprint, different node numbering) still answers
      // this request — serve it through the witness renaming.
      if (TryServeEquivalentResult(query, g, options, request, &response)) {
        response.seconds = timer.Seconds();
        response.stats.total_seconds = response.seconds;
        return response;
      }
    }
    // Serving-path memoization: reuse (or fill) the per-(pattern, data)
    // global dual filter so a repeat call skips the §4.2 fixpoint.
    FilterMemo memo;
    GPM_RETURN_NOT_OK(
        LookupFilter(query, g, options, request.policy.kind, &memo));
    const DualFilterResult* filter = memo.filter.get();
    // Memoized CSR snapshot for the in-process ball builders (null when
    // disabled or Distributed — sites hold fragment-local graphs).
    const std::shared_ptr<const CsrGraph> csr_keepalive =
        request.policy.kind != ExecPolicy::Kind::kDistributed ? LookupCsr(g)
                                                              : nullptr;
    const CsrGraph* csr = csr_keepalive.get();
    // Memoized pruned auxiliary graph + landmark center index for
    // dual-filtered in-process runs (the executors build one locally when
    // null and the dual filter is on; non-filtered runs never use one).
    std::shared_ptr<const AuxGraphResult> aux_keepalive;
    bool aux_miss = false;
    if (options.dual_filter && memo.filter != nullptr &&
        !memo.filter->proven_empty && csr != nullptr) {
      const uint32_t radius = options.radius_override != 0
                                  ? options.radius_override
                                  : query.diameter();
      aux_keepalive = LookupAux(query, g, options.minimize_query, radius,
                                *csr, *memo.filter, &aux_miss);
    }
    const AuxGraphResult* aux = aux_keepalive.get();
    const auto annotate = [&memo, &aux_keepalive, aux_miss](MatchStats* stats) {
      stats->filter_cache_hits = memo.hit ? 1 : 0;
      stats->filter_cache_misses = memo.miss ? 1 : 0;
      stats->filter_seeded_containment = memo.seeded ? 1 : 0;
      // The miss paid the fixpoint while filling the cache, outside the
      // matcher's own timer; put its cost back on this call's ledger —
      // both fields, preserving total_seconds >= global_filter_seconds.
      // A hit's cost is ~0. Same for the aux build LookupAux paid on its
      // miss.
      if (memo.miss) {
        stats->global_filter_seconds += memo.filter->seconds;
        stats->total_seconds += memo.filter->seconds;
      }
      if (aux_miss) {
        stats->global_filter_seconds += aux_keepalive->seconds;
        stats->total_seconds += aux_keepalive->seconds;
      }
    };
    switch (request.policy.kind) {
      case ExecPolicy::Kind::kSerial: {
        if (sink != nullptr) {
          // True streaming: subgraphs flow out as balls complete.
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongStream(query.pattern(), g, options, *sink,
                                &response.stats, &query.prep(), filter, csr,
                                aux));
          annotate(&response.stats);
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(response.subgraphs,
                             MatchStrong(query.pattern(), g, options,
                                         &response.stats, &query.prep(),
                                         filter, csr, aux));
        break;
      }
      case ExecPolicy::Kind::kParallel: {
        if (sink != nullptr) {
          // Streaming: ball workers hand completed subgraphs to the sink
          // through a bounded queue as they finish.
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongParallelStream(query.pattern(), g, options,
                                        request.policy.num_threads, *sink,
                                        &response.stats, &query.prep(),
                                        filter, csr, aux));
          annotate(&response.stats);
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(
            response.subgraphs,
            MatchStrongParallel(query.pattern(), g, options,
                                request.policy.num_threads, &response.stats,
                                &query.prep(), filter, csr, aux));
        break;
      }
      case ExecPolicy::Kind::kDistributed: {
        if (sink != nullptr) {
          // Streaming: fragment sites ship per-ball results over the
          // MessageBus; the coordinator forwards each to the sink.
          GPM_ASSIGN_OR_RETURN(
              response.subgraphs_delivered,
              MatchStrongDistributedStream(query.pattern(), g,
                                           request.policy.distributed, *sink,
                                           &response.distributed));
          response.stats.seconds_to_first_subgraph =
              response.distributed.seconds_to_first_result;
          response.matched = response.subgraphs_delivered > 0;
          response.seconds = timer.Seconds();
          return response;
        }
        GPM_ASSIGN_OR_RETURN(
            response.subgraphs,
            MatchStrongDistributed(query.pattern(), g,
                                   request.policy.distributed,
                                   &response.distributed));
        break;
      }
    }
    annotate(&response.stats);
    if (result_key.has_value()) {
      response.stats.result_cache_misses = 1;
      caches_->results.Put(*result_key,
                           {response.subgraphs, response.stats});
      // A freshly materialized result makes this pattern a donor for
      // later isomorphic (renamed) queries.
      if (!caches_->cross_query.Contains(query.fingerprint())) {
        caches_->cross_query.Register(
            std::make_shared<const PreparedQuery>(query));
      }
    }
  }

  if (sink != nullptr) {
    response.subgraphs_delivered =
        DrainToSink(std::move(response.subgraphs), *sink);
    response.subgraphs.clear();
  } else {
    response.subgraphs_delivered = response.subgraphs.size();
  }
  response.matched = response.subgraphs_delivered > 0;
  response.seconds = timer.Seconds();
  return response;
}

namespace {

// Per-request state of one batched strong-family item: its run state
// (centers, radius, memoized filter), the ball program the shared loop
// runs for it, and the accumulators that program delivers into. Lives at
// a stable address once BuildRunState ran (the run states are
// self-referential). Plain strong and regex items differ only in which
// run state is built and which context their program carries — the
// shared ball loop treats them uniformly, so a regex item whose weighted
// radius equals a plain item's diameter shares its balls.
struct BatchPlan {
  size_t index = 0;  // position in the batch / output vector
  const PreparedQuery* query = nullptr;
  MatchOptions options;
  std::optional<MatchResultKey> result_key;  // set => populate on finalize
  std::shared_ptr<const DualFilterResult> memo;  // keepalive for run state
  bool memo_hit = false;
  bool memo_miss = false;
  bool memo_seeded = false;
  bool dead = false;  // BuildRunState failed; response already written
  bool is_regex = false;
  internal::RunState state;
  internal::RegexRunState regex_state;
  // The pruned auxiliary graph program.aux points at (null for
  // non-dual-filtered plain plans): the engine memo when the aux cache
  // hit, `aux_storage` when the plan built its own. Only its
  // landmark-filtered center list feeds the shared loop unconditionally;
  // its adjacency is used iff the whole radius group shares one aux (see
  // MatchBatch).
  std::shared_ptr<const AuxGraphResult> aux_keepalive;
  AuxGraphResult aux_storage;
  bool aux_miss = false;
  // The per-ball half: context, centers, aux graph and wanted centers;
  // its ball counters land in response.stats.
  internal::BallProgram program;
  bool parallel = false;
  size_t threads = 0;
  std::vector<PerfectSubgraph> raw;
  MatchResponse response;
  // Streaming state (sink != nullptr): subgraphs flow out from inside the
  // shared ball loop instead of accumulating into `raw`; a sink that
  // returns false stops the program, so it wants no further balls.
  const SubgraphSink* sink = nullptr;
  internal::StreamDelivery stream;

  // Hands one completed subgraph to this plan. Single-threaded by
  // construction: called on the ball loop's draining thread only.
  void Deliver(PerfectSubgraph&& pg, const Timer& batch_timer) {
    if (sink == nullptr) {
      if (raw.empty()) {
        response.stats.seconds_to_first_subgraph = batch_timer.Seconds();
      }
      raw.push_back(std::move(pg));
      return;
    }
    if (program.stopped->load(std::memory_order_relaxed)) return;
    // First-arrival dedup, like the lone streaming Match (regex plans
    // carry their effective options — EffectiveRegexOptions — so a
    // dedup=false regex item streams raw, matching the lone regex
    // stream).
    if (!stream.Deliver(std::move(pg), *sink, batch_timer, &response.stats)) {
      program.stopped->store(true, std::memory_order_relaxed);
    }
  }
};

// Whether two batch plans run the identical per-ball pipeline — same
// effective pattern, same refinement inputs — so their Process on one
// shared ball returns the identical (subgraph, stats delta) and the
// refined per-ball dual relation can be computed once and reused. Plain
// plans match by structural pattern equality (edge labels included);
// regex plans only by prepared-query identity (the NFA product is not
// canonicalized).
bool SamePerBallPipeline(const BatchPlan& a, const BatchPlan& b) {
  if (a.is_regex != b.is_regex) return false;
  if (a.options.minimize_query != b.options.minimize_query ||
      a.options.dual_filter != b.options.dual_filter ||
      a.options.connectivity_pruning != b.options.connectivity_pruning) {
    return false;
  }
  if (a.query == b.query) return true;
  if (a.is_regex) return false;
  return a.query != nullptr && b.query != nullptr &&
         a.query->fingerprint() == b.query->fingerprint() &&
         a.query->pattern().StructurallyEqual(b.query->pattern(),
                                              /*compare_edge_labels=*/true);
}

// For each plan, the lowest-indexed group member with the same per-ball
// pipeline (itself when unique). The root member evaluates each shared
// ball once; the others reuse its refined relation.
std::vector<size_t> ComputeShareRoots(const std::vector<BatchPlan*>& group) {
  std::vector<size_t> root(group.size());
  for (size_t p = 0; p < group.size(); ++p) {
    root[p] = p;
    for (size_t q = 0; q < p; ++q) {
      if (root[q] == q && SamePerBallPipeline(*group[q], *group[p])) {
        root[p] = q;
        break;
      }
    }
  }
  return root;
}

}  // namespace

Result<IncrementalSession> Engine::OpenIncremental(
    const PreparedQuery& query, const Graph& g,
    IncrementalOptions options) const {
  if (!g.finalized())
    return Status::InvalidArgument("data graph must be finalized");
  if (query.has_regex()) {
    return Status::NotImplemented(
        "incremental maintenance serves plain strong simulation; regex "
        "queries have no incremental executor yet");
  }
  if (!query.strong_status().ok()) return query.strong_status();
  size_t threads = 1;
  switch (options.policy.kind) {
    case ExecPolicy::Kind::kSerial:
      break;
    case ExecPolicy::Kind::kParallel:
      // 0 keeps its ExecPolicy meaning: CreateWithRadius resolves it to
      // hardware concurrency (the one place that rule lives).
      threads = options.policy.num_threads;
      break;
    case ExecPolicy::Kind::kDistributed:
      return Status::NotImplemented(
          "incremental maintenance has no distributed executor: the "
          "maintained state lives in one process; open the session under "
          "ExecPolicy::Serial or ExecPolicy::Parallel");
  }
  // Reuse the prepared compilation: the session's ball radius is the
  // query's precomputed diameter dQ, not a fresh Diameter() pass.
  GPM_ASSIGN_OR_RETURN(
      IncrementalMatcher matcher,
      IncrementalMatcher::CreateWithRadius(query.pattern(), query.diameter(),
                                           g, threads));
  return IncrementalSession(std::move(matcher),
                            std::move(options.delta_sink));
}

std::vector<Result<MatchResponse>> Engine::MatchBatch(
    const Graph& g, std::span<const BatchItem> items) const {
  std::vector<Result<MatchResponse>> out;
  out.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) out.emplace_back(MatchResponse{});

  if (!g.finalized()) {
    const Status bad =
        Status::InvalidArgument("data graph must be finalized");
    for (auto& response : out) response = bad;
    return out;
  }

  Timer batch_timer;
  std::vector<BatchPlan> plans;
  plans.reserve(items.size());

  // Split the batch: strong-family Serial/Parallel items — plain and
  // regex alike — join the shared ball loop; everything else (relation
  // notions, Distributed, invalid combinations) runs exactly as a lone
  // Match would — Theorem 1 keeps the answers identical either way.
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    if (item.query == nullptr) {
      out[i] = Status::InvalidArgument("BatchItem::query is null");
      continue;
    }
    const MatchRequest& request = item.request;
    const bool plain_strong =
        (request.algo == Algo::kStrong || request.algo == Algo::kStrongPlus) &&
        !item.query->has_regex();
    const bool regex_strong =
        request.algo == Algo::kRegexStrong && item.query->has_regex();
    const bool batchable =
        (plain_strong || regex_strong) && item.query->strong_status().ok() &&
        request.policy.kind != ExecPolicy::Kind::kDistributed;
    if (!batchable) {
      out[i] = Dispatch(*item.query, g, request,
                        item.sink ? &item.sink : nullptr);
      continue;
    }
    BatchPlan plan;
    plan.index = i;
    plan.query = item.query;
    plan.is_regex = regex_strong;
    if (item.sink) plan.sink = &item.sink;
    // Effective options — the same normalization as lone Dispatch, so the
    // result-cache key below matches the lone Match's. A regex item with
    // unsupported §4.2 toggles gets the same named error a lone Match
    // would.
    if (regex_strong) {
      Result<MatchOptions> regex_options = EffectiveRegexOptions(request);
      if (!regex_options.ok()) {
        out[i] = regex_options.status();
        continue;
      }
      plan.options = std::move(regex_options).ValueOrDie();
    } else {
      plan.options = EffectiveOptions(request);
    }
    plan.stream.dedup = plan.options.dedup;
    // An exactly repeated request is served from the result cache — same
    // contract as a lone Match (batch items are non-distributed by the
    // batchable definition above; streaming items always execute, like a
    // lone streaming Match).
    if (plan.sink == nullptr && caches_->results.capacity() > 0) {
      plan.result_key = MakeResultKey(
          item.query->fingerprint(), plan.options, request.policy, &g,
          caches_->data_version.load(std::memory_order_acquire));
      if (auto hit = caches_->results.Get(*plan.result_key)) {
        MatchResponse served;
        served.subgraphs = hit->subgraphs;
        served.stats = hit->stats;
        served.stats.result_cache_hits = 1;
        served.stats.result_cache_misses = 0;
        served.stats.filter_cache_hits = 0;
        served.stats.filter_cache_misses = 0;
        served.stats.filter_seeded_containment = 0;
        served.stats.result_served_equivalent = 0;
        served.subgraphs_delivered = served.subgraphs.size();
        served.matched = !served.subgraphs.empty();
        served.seconds = batch_timer.Seconds();
        served.stats.total_seconds = served.seconds;
        out[i] = std::move(served);
        continue;
      }
      // Same fallback as lone Dispatch: an isomorphic donor's cached
      // result answers this item through the witness renaming.
      MatchResponse served;
      if (TryServeEquivalentResult(*item.query, g, plan.options, request,
                                   &served)) {
        served.seconds = batch_timer.Seconds();
        served.stats.total_seconds = served.seconds;
        out[i] = std::move(served);
        continue;
      }
    }
    FilterMemo memo;
    const Status looked =
        plan.is_regex
            ? LookupRegexFilter(*item.query, g, request.policy.kind, &memo)
            : LookupFilter(*item.query, g, plan.options, request.policy.kind,
                           &memo);
    if (!looked.ok()) {
      out[i] = looked;
      continue;
    }
    plan.memo = std::move(memo.filter);
    plan.memo_hit = memo.hit;
    plan.memo_miss = memo.miss;
    plan.memo_seeded = memo.seeded;
    if (request.policy.kind == ExecPolicy::Kind::kParallel) {
      plan.parallel = true;
      plan.threads = request.policy.num_threads;
    }
    plans.push_back(std::move(plan));
  }

  // One CSR snapshot serves every group (memoized across calls when the
  // snapshot cache is on). Resolved before the run states so the per-plan
  // aux graphs below can be built from it.
  std::shared_ptr<const CsrGraph> csr_keepalive;
  CsrGraph local_csr;
  const CsrGraph* csr = nullptr;
  if (!plans.empty()) {
    csr_keepalive = LookupCsr(g);
    if (csr_keepalive != nullptr) {
      csr = csr_keepalive.get();
    } else {
      local_csr = CsrGraph::FromGraph(g);
      csr = &local_csr;
    }
  }

  // Build run states at the plans' final addresses and group by radius —
  // balls are shareable exactly within one (center, radius) space, so a
  // regex plan lands in the same group as plain plans whose diameter
  // equals its weighted radius.
  std::map<uint32_t, std::vector<BatchPlan*>> by_radius;
  for (BatchPlan& plan : plans) {
    const BatchItem& item = items[plan.index];
    uint32_t plan_radius = 0;
    if (plan.is_regex) {
      const uint32_t requested_radius = plan.options.radius_override != 0
                                            ? plan.options.radius_override
                                            : item.query->regex_radius();
      const Status built = internal::BuildRegexRunState(
          item.query->regex(), g, requested_radius, plan.memo.get(),
          &plan.regex_state, &plan.response.stats);
      if (!built.ok()) {
        out[plan.index] = built;
        plan.dead = true;
        continue;
      }
      if (plan.regex_state.proven_empty) continue;  // finalized below
      plan_radius = plan.regex_state.context.radius;
      plan.program.context = plan.regex_state.context;
      plan.program.centers = plan.regex_state.centers;
    } else {
      const Status built = internal::BuildRunState(
          item.query->pattern(), g, plan.options, item.query->prep(),
          &plan.state, &plan.response.stats, plan.memo.get());
      if (!built.ok()) {
        out[plan.index] = built;
        plan.dead = true;
        continue;
      }
      if (plan.state.proven_empty) continue;  // finalized below, no balls
      plan_radius = plan.state.radius;
      plan.program.context = plan.state.context;
      plan.program.centers = plan.state.centers;
    }
    // Attach the pruned auxiliary graph + landmark center index (the
    // engine memo when the aux cache is on, a local build otherwise) —
    // same eligibility as lone Dispatch: regex plans always, plain plans
    // when the dual filter ran. Identical repeated queries get the same
    // shared memo, which is what lets a whole radius group run over one
    // pruned adjacency below.
    const DualFilterResult* aux_filter = nullptr;
    if (plan.is_regex) {
      aux_filter = plan.memo != nullptr ? plan.memo.get()
                                        : &plan.regex_state.filter_storage;
    } else if (plan.state.global_bits != nullptr) {
      aux_filter =
          plan.memo != nullptr ? plan.memo.get() : &plan.state.filter_storage;
    }
    if (aux_filter != nullptr) {
      plan.aux_keepalive =
          LookupAux(*item.query, g, plan.options.minimize_query, plan_radius,
                    *csr, *aux_filter, &plan.aux_miss);
      if (plan.aux_keepalive != nullptr) {
        plan.program.aux = plan.aux_keepalive.get();
      } else {
        plan.aux_storage =
            plan.is_regex
                ? BuildRegexAuxGraph(item.query->regex(), *csr, *aux_filter,
                                     plan_radius)
                : BuildAuxGraph(*csr, *aux_filter, plan_radius);
        plan.program.aux = &plan.aux_storage;
        plan.aux_miss = true;
      }
      plan.response.stats.balls_skipped_index =
          plan.program.aux->centers_skipped_index;
    }
    plan.program.stats = &plan.response.stats;
    plan.program.wants = DynamicBitset(g.num_nodes());
    for (NodeId center : plan.program.Centers()) {
      plan.program.wants.Set(center);
    }
    by_radius[plan_radius].push_back(&plan);
  }

  for (auto& [radius, group] : by_radius) {
    // Distinct centers of the group, ascending (each plan's own subset
    // keeps its serial center order).
    std::vector<NodeId> merged;
    size_t total = 0;
    for (const BatchPlan* plan : group) {
      total += plan->program.Centers().size();
    }
    merged.reserve(total);
    for (const BatchPlan* plan : group) {
      merged.insert(merged.end(), plan->program.Centers().begin(),
                    plan->program.Centers().end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

    // The group's shared balls come from the pruned adjacency only when
    // every member runs over the *same* aux graph (identical repeated
    // queries sharing one engine memo — the common serving shape): a
    // ball's kept-node rule is per-pattern, so mixed groups build full
    // balls instead and let each plan's refinement discard the rest —
    // byte-identical either way (the per-ball fixpoint kills
    // non-survivors the pruned builder would have omitted).
    const AuxGraphResult* group_aux = group.front()->program.aux;
    for (const BatchPlan* plan : group) {
      if (plan->program.aux != group_aux) {
        group_aux = nullptr;
        break;
      }
    }

    // The group runs multi-threaded iff any member asked for it, with the
    // largest requested worker count (0 = hardware concurrency).
    size_t threads = 1;
    std::vector<internal::BallProgram*> programs;
    programs.reserve(group.size());
    for (BatchPlan* plan : group) {
      programs.push_back(&plan->program);
      if (plan->parallel) {
        threads = std::max(threads, internal::ResolveThreads(plan->threads));
      }
    }
    // Identical-pipeline members of the group evaluate each shared ball
    // once (the root refines, the rest reuse its relation). Serial groups
    // visit the merged centers ascending, so each plan sees exactly the
    // center sequence of its lone serial Match — which is what lets
    // streaming plans deliver with first-arrival dedup and match the lone
    // stream byte for byte.
    internal::RunBallPrograms(
        *csr, group_aux, radius, merged, programs, ComputeShareRoots(group),
        threads, [&](size_t p, PerfectSubgraph&& pg) {
          group[p]->Deliver(std::move(pg), batch_timer);
          return true;
        });
  }

  // Finalize every batched plan into its response slot: deterministic
  // batch form (min-center dedup representative, (center, content-hash)
  // order) — byte-identical to the lone-Match output.
  for (BatchPlan& plan : plans) {
    if (plan.dead) continue;
    MatchResponse& response = plan.response;
    if (plan.sink != nullptr) {
      // Streaming plan: everything already went to the sink (dedup'd
      // first-arrival); only the counters are materialized.
      response.stats.subgraphs_found = plan.stream.delivered;
      response.subgraphs_delivered = plan.stream.delivered;
      response.matched = plan.stream.delivered > 0;
    } else {
      ScopedSecondsAccumulator emit_stage(&response.stats.emit_seconds);
      response.stats.duplicates_removed +=
          CanonicalizeSubgraphs(plan.options.dedup, &plan.raw);
      response.stats.subgraphs_found = plan.raw.size();
      response.subgraphs = std::move(plan.raw);
      response.subgraphs_delivered = response.subgraphs.size();
      response.matched = !response.subgraphs.empty();
    }
    response.stats.filter_cache_hits = plan.memo_hit ? 1 : 0;
    response.stats.filter_cache_misses = plan.memo_miss ? 1 : 0;
    response.stats.filter_seeded_containment = plan.memo_seeded ? 1 : 0;
    if (response.stats.dual_relations_shared > 0) {
      caches_->cross_query.dual_relations_shared.fetch_add(
          response.stats.dual_relations_shared, std::memory_order_relaxed);
    }
    if (plan.memo_miss) {
      response.stats.global_filter_seconds += plan.memo->seconds;
    }
    // An aux-cache miss (or a local build when the cache is off) paid the
    // pruned-adjacency + landmark-index construction on this plan's
    // behalf; put it on the same ledger as the filter it derives from.
    if (plan.aux_miss) {
      response.stats.global_filter_seconds += plan.program.aux->seconds;
    }
    response.stats.total_seconds = batch_timer.Seconds();
    response.seconds = batch_timer.Seconds();
    if (plan.result_key.has_value()) {
      response.stats.result_cache_misses = 1;
      caches_->results.Put(*plan.result_key,
                           {response.subgraphs, response.stats});
      if (!caches_->cross_query.Contains(plan.query->fingerprint())) {
        caches_->cross_query.Register(
            std::make_shared<const PreparedQuery>(*plan.query));
      }
    }
    out[plan.index] = std::move(response);
  }
  return out;
}

}  // namespace gpm

#include "util/deadlock.h"

#if defined(RW_DEADLOCK_CHECK) && RW_DEADLOCK_CHECK

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>  // rw-lint: allow(RW001) the checker cannot use the wrapper it instruments
#include <set>
#include <unordered_set>
#include <vector>

#include "util/lock_rank.h"

namespace rw::deadlock {
namespace {

struct Held {
  const void* mu;
  const char* name;  // nullptr = unnamed
  int rank;
  const char* file;
  unsigned line;
};

struct Edge {
  std::string from_site;
  std::string to_site;
};

// The global acquisition graph, keyed by lock name. Guarded by its own
// plain std::mutex: the checker is below every rw::Mutex by construction
// (it never calls back into one), so it cannot participate in the cycles
// it hunts.
struct Graph {
  std::mutex mu;  // rw-lint: allow(RW001) the checker cannot use the wrapper it instruments
  std::map<std::pair<std::string, std::string>, Edge> edges;
  std::map<std::string, std::set<std::string>> adjacent;
  // Bumped by reset_for_test() so per-thread caches notice staleness.
  std::atomic<std::uint64_t> generation{0};
};

Graph& graph() {
  static Graph* g = new Graph;  // leaked: outlives late-exiting threads
  return *g;
}

std::atomic<bool> g_enabled{true};

// Per-thread checker state. It is destroyed before the thread_local
// objects constructed ahead of it and, on the main thread, before every
// static destructor, and those may still lock (the function-local static
// default WorkerPool stops its loops at exit). t_state_gone is trivially
// destructible, so it stays readable to the end: the hooks leave such late
// locks unchecked instead of touching destroyed containers.
thread_local bool t_state_gone = false;

struct ThreadState {
  std::vector<Held> held;
  std::unordered_set<std::uint64_t> seen_edges;
  std::uint64_t generation = 0;
  ~ThreadState() { t_state_gone = true; }
};

thread_local ThreadState t_state;

std::uint64_t edge_hash(const char* from, const char* to) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over both names
  for (const char* p = from; *p; ++p) h = (h ^ std::uint64_t(*p)) * 1099511628211ull;
  h = (h ^ std::uint64_t('\x1f')) * 1099511628211ull;
  for (const char* p = to; *p; ++p) h = (h ^ std::uint64_t(*p)) * 1099511628211ull;
  return h;
}

std::string site_str(const char* file, unsigned line) {
  return std::string(file) + ":" + std::to_string(line);
}

void print_held_stack() {
  std::fprintf(stderr, "  held stack (outermost first):\n");
  for (const Held& h : t_state.held) {
    std::fprintf(stderr, "    \"%s\" (rank %d) acquired at %s:%u\n",
                 h.name ? h.name : "<unnamed>", h.rank, h.file, h.line);
  }
}

[[noreturn]] void die() {
  std::fprintf(stderr,
               "rw::deadlock: aborting; see src/util/lock_rank.h and "
               "docs/static_analysis.md for the declared order\n");
  std::fflush(stderr);
  std::abort();
}

/// Finds a path to -> ... -> from in the graph (the existing ordering the
/// new edge from -> to would contradict). Returns the node sequence, empty
/// if none. Caller holds graph().mu.
std::vector<std::string> find_path(const Graph& g, const std::string& start,
                                   const std::string& goal) {
  std::map<std::string, std::string> parent;
  std::vector<std::string> frontier{start};
  parent[start] = start;
  while (!frontier.empty()) {
    std::string node = frontier.back();
    frontier.pop_back();
    if (node == goal) {
      std::vector<std::string> path{goal};
      while (path.back() != start) path.push_back(parent[path.back()]);
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto it = g.adjacent.find(node);
    if (it == g.adjacent.end()) continue;
    for (const std::string& next : it->second) {
      if (parent.emplace(next, node).second) frontier.push_back(next);
    }
  }
  return {};
}

void record_edge(const Held& outer, const char* name,
                 const std::source_location& site) {
  const std::uint64_t key = edge_hash(outer.name, name);
  Graph& g = graph();
  const std::uint64_t gen = g.generation.load(std::memory_order_acquire);
  if (t_state.generation != gen) {
    t_state.seen_edges.clear();
    t_state.generation = gen;
  }
  if (t_state.seen_edges.contains(key)) return;  // steady state: no global lock

  std::lock_guard<std::mutex> lk(g.mu);  // rw-lint: allow(RW001) checker internals
  const std::pair<std::string, std::string> edge_key(outer.name, name);
  if (!g.edges.contains(edge_key)) {
    // Would from -> to close a cycle? Look for an existing to ~> from path.
    const std::vector<std::string> path = find_path(g, name, outer.name);
    if (!path.empty()) {
      std::fprintf(stderr,
                   "rw::deadlock: LOCK ORDER CYCLE (ABBA)\n"
                   "  new edge: \"%s\" -> \"%s\"\n"
                   "    \"%s\" held since %s:%u\n"
                   "    \"%s\" being acquired at %s:%u\n"
                   "  conflicts with the established order:\n",
                   outer.name, name, outer.name, outer.file, outer.line, name,
                   site.file_name(), site.line());
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Edge& e = g.edges.at({path[i], path[i + 1]});
        std::fprintf(stderr,
                     "    \"%s\" (acquired at %s) -> \"%s\" (acquired at %s)\n",
                     path[i].c_str(), e.from_site.c_str(), path[i + 1].c_str(),
                     e.to_site.c_str());
      }
      print_held_stack();
      die();
    }
    g.edges.emplace(edge_key,
                    Edge{site_str(outer.file, outer.line),
                         site_str(site.file_name(), site.line())});
    g.adjacent[outer.name].insert(name);
  }
  t_state.seen_edges.insert(key);
}

}  // namespace

void pre_lock(const void* mu, const char* name, int rank,
              const std::source_location& site) {
  if (!g_enabled.load(std::memory_order_relaxed) || t_state_gone) return;

  const Held* worst = nullptr;  // highest-ranked lock already held
  for (const Held& h : t_state.held) {
    if (h.mu == mu) {
      std::fprintf(stderr,
                   "rw::deadlock: REENTRANT ACQUIRE (self-deadlock)\n"
                   "  \"%s\" (rank %d)\n"
                   "    first acquired at %s:%u\n"
                   "    acquired again at %s:%u\n",
                   name ? name : "<unnamed>", rank, h.file, h.line,
                   site.file_name(), site.line());
      print_held_stack();
      die();
    }
    if (h.rank != lockrank::kUnranked && (!worst || h.rank > worst->rank)) {
      worst = &h;
    }
  }

  if (rank != lockrank::kUnranked && worst && worst->rank >= rank) {
    std::fprintf(stderr,
                 "rw::deadlock: RANK %s\n"
                 "  acquiring \"%s\" (rank %d) at %s:%u\n"
                 "  while holding \"%s\" (rank %d) acquired at %s:%u\n",
                 worst->rank == rank ? "TIE (unordered same-rank pair)"
                                     : "INVERSION",
                 name ? name : "<unnamed>", rank, site.file_name(),
                 site.line(), worst->name ? worst->name : "<unnamed>",
                 worst->rank, worst->file, worst->line);
    print_held_stack();
    die();
  }

  // Acquisition-order edge from the innermost *named* held lock. Direct
  // edges are enough: transitivity is recovered by the cycle search.
  if (name) {
    for (auto it = t_state.held.rbegin(); it != t_state.held.rend(); ++it) {
      if (it->name) {
        record_edge(*it, name, site);
        break;
      }
    }
  }

  t_state.held.push_back(Held{mu, name, rank, site.file_name(), site.line()});
}

void post_acquire(const void* mu, const char* name, int rank,
                  const std::source_location& site) {
  if (!g_enabled.load(std::memory_order_relaxed) || t_state_gone) return;
  t_state.held.push_back(Held{mu, name, rank, site.file_name(), site.line()});
}

void post_unlock(const void* mu) {
  if (!g_enabled.load(std::memory_order_relaxed) || t_state_gone) return;
  // Split-scope protocols may release out of LIFO order: search from the top.
  for (auto it = t_state.held.rbegin(); it != t_state.held.rend(); ++it) {
    if (it->mu == mu) {
      t_state.held.erase(std::next(it).base());
      return;
    }
  }
  // Not found: the lock was acquired while the checker was disabled. Fine.
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<EdgeInfo> edges_snapshot() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lk(g.mu);  // rw-lint: allow(RW001) checker internals
  std::vector<EdgeInfo> out;
  out.reserve(g.edges.size());
  for (const auto& [key, edge] : g.edges) {
    out.push_back(EdgeInfo{key.first, key.second, edge.from_site, edge.to_site});
  }
  return out;
}

void reset_for_test() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lk(g.mu);  // rw-lint: allow(RW001) checker internals
  g.edges.clear();
  g.adjacent.clear();
  g.generation.fetch_add(1, std::memory_order_acq_rel);
  t_state.seen_edges.clear();
  t_state.held.clear();
}

std::size_t held_count() { return t_state.held.size(); }

}  // namespace rw::deadlock

#endif  // RW_DEADLOCK_CHECK

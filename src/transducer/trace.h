#ifndef VADA_TRANSDUCER_TRACE_H_
#define VADA_TRANSDUCER_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vada {

/// One orchestration step: which transducers were eligible, which ran,
/// and what it did to the knowledge base.
struct TraceEvent {
  size_t step = 0;
  std::string transducer;
  std::string activity;
  /// Name of the scheduling policy that made the choice.
  std::string policy;
  /// Transducers whose dependency held and whose read-set key had moved
  /// (or that had none yet, or were on probation), in registration
  /// order; a transducer whose key still held is absent even when its
  /// dependency held (DESIGN.md §5n).
  std::vector<std::string> eligible;
  uint64_t version_before = 0;
  uint64_t version_after = 0;
  bool changed_kb = false;
  /// KB delta attributed to this step (Replace counts remove+add, so
  /// these are upper bounds on the logical change).
  uint64_t facts_added = 0;
  uint64_t facts_removed = 0;
  /// Step start on the monotonic clock (obs::MonotonicNanos time base;
  /// lets exporters place the step on a shared timeline with spans).
  uint64_t start_ns = 0;
  double duration_ms = 0.0;
  /// Execute() attempts consumed by this step (> 1 means retries).
  size_t attempts = 1;
  /// Whether any attempt's partial writes were rolled back (WriteGuard).
  bool rolled_back = false;
  std::string note;

  std::string ToString() const;
};

/// The "browsable trace information that shows what transducers are being
/// orchestrated, their inputs and results" the demonstration promises
/// (paper §3).
class ExecutionTrace {
 public:
  ExecutionTrace() = default;

  void Add(TraceEvent event);
  void Append(const ExecutionTrace& other);

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Executions per transducer name.
  std::map<std::string, size_t> ExecutionCounts() const;

  /// Steps that actually changed the knowledge base.
  size_t EffectiveSteps() const;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

  /// GitHub-flavoured markdown table (for reports / issue comments).
  std::string ToMarkdown() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace vada

#endif  // VADA_TRANSDUCER_TRACE_H_

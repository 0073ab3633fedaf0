#ifndef VADA_TRANSDUCER_TRANSDUCER_H_
#define VADA_TRANSDUCER_TRANSDUCER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "kb/knowledge_base.h"
#include "transducer/execution_context.h"

namespace vada {

/// A wrangling component (paper §2): "a software component with input and
/// output dependencies defined as Datalog queries over the knowledge
/// base". The orchestrator evaluates `input_dependency()` — a Vadalog
/// program that must define the goal predicate `ready` — against the
/// knowledge base (plus the sys_* control relations it materialises);
/// the transducer becomes executable when `ready` derives a fact.
///
/// Contract for Execute():
///  * read/write the knowledge base only through its API, and make the
///    writes a function of what was read through it. The orchestrator
///    runs a transducer again only once a relation (or catalog role) its
///    last step read or wrote has moved (DESIGN.md §5n), so an input kept
///    outside the KB is never noticed to change. In-memory state is
///    allowed only as a cache keyed on KB versions (ReadSetKey) or as
///    the transducer's own memo;
///  * touch the knowledge base from the calling thread only: the KB
///    records accesses in an unsynchronised log while the step runs. A
///    body that fans work out over a pool looks up all its KB inputs
///    (snapshot-cache reads included) before the fan-out, hands the
///    tasks plain data, and writes after the fan-out, in task order
///    (DESIGN.md §5e);
///  * be idempotent — re-running on unchanged inputs must not change the
///    KB (use ReplaceRelationIfChanged). The orchestrator does not re-run
///    a step to check this; tests audit it (tests/fixpoint_auditor.h);
///  * on failure, return a non-OK Status and rely on the orchestrator's
///    write-guard to roll partial writes back — never half-repair the KB;
///  * long-running bodies should poll ExecutionContext::CheckContinue()
///    at natural checkpoints and return its error to honour the
///    cooperative soft deadline (see execution_context.h).
class Transducer {
 public:
  Transducer(std::string name, std::string activity,
             std::string input_dependency)
      : name_(std::move(name)),
        activity_(std::move(activity)),
        input_dependency_(std::move(input_dependency)) {}
  virtual ~Transducer() = default;

  Transducer(const Transducer&) = delete;
  Transducer& operator=(const Transducer&) = delete;

  const std::string& name() const { return name_; }
  /// Functionality family, e.g. "matching", "mapping", "quality";
  /// scheduling policies prioritise by activity (paper §2.4).
  const std::string& activity() const { return activity_; }
  const std::string& input_dependency() const { return input_dependency_; }

  /// The Vadalog program the transducer's logic is written in, when it
  /// has one (VadalogTransducer); nullptr for native transducers. Lets
  /// registration-time static analysis cover the program without RTTI.
  virtual const std::string* vadalog_program() const { return nullptr; }

  virtual Status Execute(KnowledgeBase* kb) = 0;

  /// Context-aware entry point the orchestrator calls. The default
  /// ignores the context, so existing transducers keep working; override
  /// to cooperate with deadlines/cancellation or to observe the attempt
  /// number (fault-injection wrappers do).
  virtual Status Execute(KnowledgeBase* kb, ExecutionContext* ctx) {
    (void)ctx;
    return Execute(kb);
  }

 private:
  std::string name_;
  std::string activity_;
  std::string input_dependency_;
};

/// A transducer wrapping an arbitrary callable — the "wrapping external
/// systems" implementation route (§2.3).
class FunctionTransducer : public Transducer {
 public:
  using Body = std::function<Status(KnowledgeBase*)>;
  /// Context-aware body; `ctx` may be null when invoked outside an
  /// orchestrated step (e.g. directly in tests).
  using ContextBody = std::function<Status(KnowledgeBase*, ExecutionContext*)>;

  FunctionTransducer(std::string name, std::string activity,
                     std::string input_dependency, Body body)
      : Transducer(std::move(name), std::move(activity),
                   std::move(input_dependency)),
        body_([b = std::move(body)](KnowledgeBase* kb, ExecutionContext*) {
          return b(kb);
        }) {}

  FunctionTransducer(std::string name, std::string activity,
                     std::string input_dependency, ContextBody body)
      : Transducer(std::move(name), std::move(activity),
                   std::move(input_dependency)),
        body_(std::move(body)) {}

  Status Execute(KnowledgeBase* kb) override { return body_(kb, nullptr); }
  Status Execute(KnowledgeBase* kb, ExecutionContext* ctx) override {
    return body_(kb, ctx);
  }

 private:
  ContextBody body_;
};

/// A transducer implemented *in Vadalog* (§2.3: "transducers can be
/// implemented in Vadalog"): evaluates `program_text` over a snapshot of
/// the knowledge base and asserts the derived facts of each predicate in
/// `output_predicates` back into same-named KB relations (created with
/// attributes c0..cN when absent).
class VadalogTransducer : public Transducer {
 public:
  VadalogTransducer(std::string name, std::string activity,
                    std::string input_dependency, std::string program_text,
                    std::vector<std::string> output_predicates);

  Status Execute(KnowledgeBase* kb) override;
  /// Honours the cooperative soft deadline around the (uninterruptible)
  /// reasoning fixpoint: checked before evaluation and before asserting
  /// derived facts back into the KB.
  Status Execute(KnowledgeBase* kb, ExecutionContext* ctx) override;

  const std::string& program_text() const { return program_text_; }
  const std::string* vadalog_program() const override {
    return &program_text_;
  }

 private:
  std::string program_text_;
  std::vector<std::string> output_predicates_;
};

/// Owns the registered transducers of a wrangling deployment. "The
/// architecture is not tied to a specific or fixed set of transducers" —
/// anything implementing Transducer can be added at any time.
class TransducerRegistry {
 public:
  using Decorator =
      std::function<std::unique_ptr<Transducer>(std::unique_ptr<Transducer>)>;

  TransducerRegistry() = default;

  /// Every subsequently Add()ed transducer is passed through `decorator`
  /// first (nullptr clears). This is how cross-cutting wrappers — fault
  /// injection, tracing shims — cover the standard suite and custom
  /// transducers uniformly. Decorators must preserve name/activity/
  /// input_dependency (wrap, don't re-identify).
  void SetDecorator(Decorator decorator) {
    decorator_ = std::move(decorator);
  }

  /// Fails with kAlreadyExists on duplicate names.
  Status Add(std::unique_ptr<Transducer> transducer);

  Transducer* Find(const std::string& name) const;
  const std::vector<std::unique_ptr<Transducer>>& transducers() const {
    return transducers_;
  }
  std::vector<std::string> Names() const;
  size_t size() const { return transducers_.size(); }

 private:
  std::vector<std::unique_ptr<Transducer>> transducers_;
  Decorator decorator_;
};

}  // namespace vada

#endif  // VADA_TRANSDUCER_TRANSDUCER_H_

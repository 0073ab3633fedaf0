#ifndef VADA_WRANGLER_STANDARD_TRANSDUCERS_H_
#define VADA_WRANGLER_STANDARD_TRANSDUCERS_H_

#include "common/status.h"
#include "quality/metrics.h"
#include "transducer/transducer.h"
#include "wrangler/config.h"

namespace vada {

/// Registers the standard VADA transducer suite against `state`:
///
/// | name                 | activity  | input dependency (summary)        |
/// |----------------------|-----------|-----------------------------------|
/// | schema_matching      | matching  | source + target schemas exist     |
/// | instance_matching    | matching  | source instances + data context   |
/// | match_combination    | matching  | per-matcher match facts exist     |
/// | mapping_generation   | mapping   | match facts exist                 |
/// | mapping_execution    | execution | mapping facts exist               |
/// | cfd_learning         | quality   | data-context instances exist      |
/// | mapping_repair       | repair    | CFD relation + mappings exist     |
/// | quality_metrics      | quality   | some mapping result non-empty     |
/// | mapping_selection    | selection | mappings + quality metrics exist  |
/// | fusion               | fusion    | selected mappings exist           |
/// | feedback_propagation | feedback  | feedback + mappings exist         |
///
/// This realises Table 1 of the paper (and extends it to the full
/// lifecycle); each row's dependency is a literal Vadalog program over
/// the knowledge base's control relations.
///
/// `state` must outlive the registry.
Status RegisterStandardTransducers(TransducerRegistry* registry,
                                   WranglingState* state);

/// The data-context bindings decoded from `kb`'s data_context relation
/// (none before the first AddDataContext).
Result<DataContext> ReadDataContext(const KnowledgeBase& kb);

/// The quality context compiled from `kb`'s data context: the CFDs learned
/// from its `data_context` relation and the reference and master relations
/// it binds, compiled into one checker. Served from `state->learned_cfds`
/// while the versions of those relations hold, and relearned, recompiled
/// (counted in `state->quality_context_compiles`) and re-cached otherwise;
/// either way the reads land in an attached access log.
Result<const LearnedCfds*> LearnedCfdsOf(WranglingState* state,
                                         const KnowledgeBase& kb);

/// The estimator that scores results against `kb`'s data context:
/// accuracy against the first reference binding with instances,
/// consistency through the compiled checker of LearnedCfdsOf, relevance
/// against the first master binding with instances. quality_metrics
/// scores every mapping result with it, and
/// WranglingSession::EstimateResultQuality the wrangled result. It borrows
/// the checker from `state->learned_cfds`, so use it before the next
/// LearnedCfdsOf call, which may recompile that checker. Adds every
/// relation it looked up to `reads`, when given.
Result<QualityEstimator> ResultQualityEstimator(WranglingState* state,
                                                const KnowledgeBase& kb,
                                                ReadSet* reads = nullptr);

}  // namespace vada

#endif  // VADA_WRANGLER_STANDARD_TRANSDUCERS_H_

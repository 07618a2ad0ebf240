#include "explore/replay.hpp"

#include "support/diagnostics.hpp"
#include "trace/hb_graph.hpp"

namespace lazyhb::explore {

int FixedScheduler::pick(runtime::Execution& exec) {
  const support::ThreadSet enabled = exec.enabled();
  if (step_ < choices_.size()) {
    const int tid = choices_[step_++];
    if (tid < 0 || tid >= support::kMaxThreads || !enabled.contains(tid)) {
      return kAbandon;
    }
    return tid;
  }
  return enabled.first();
}

ReplayResult replaySchedule(const Program& program, const std::vector<int>& choices,
                            const RunOptions& options,
                            std::optional<trace::Relation> render) {
  trace::TraceRecorder recorder(
      trace::TraceRecorder::Options{render.has_value(), options.detectRaces});
  runtime::StackPool pool;
  runtime::Config config;
  config.maxEventsPerSchedule = options.maxEventsPerSchedule;
  config.memoryModel = options.memoryModel;
  runtime::Execution exec(config, pool, &recorder);
  FixedScheduler scheduler(choices);

  ReplayResult result;
  result.outcome = exec.run(program, scheduler);
  result.violationMessage = exec.violation().message;
  result.hbrFingerprint = recorder.fingerprint(trace::Relation::Full);
  result.lazyFingerprint = recorder.fingerprint(trace::Relation::Lazy);
  result.stateFingerprint = exec.stateFingerprint();
  result.eventCount = recorder.eventCount();
  result.races = recorder.races();
  if (render) result.renderedTrace = trace::renderSchedule(recorder, *render);
  return result;
}

}  // namespace lazyhb::explore

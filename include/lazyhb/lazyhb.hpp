// lazyhb/lazyhb.hpp — the public umbrella header.
//
// Everything an embedding application needs, in one include:
//
//   * the programming interface for code under test — lazyhb::Shared<T>,
//     Mutex, LockGuard, CondVar, Semaphore, spawn/yield/checkAlways,
//     InlineVec (runtime/api.hpp);
//   * scenario registration — LAZYHB_SCENARIO, lazyhb::scenarios()
//     (lazyhb/scenario.hpp);
//   * the run knobs, each with its one default — lazyhb::RunOptions,
//     SupervisorOptions, MemoryModel (lazyhb/options.hpp);
//   * the exploration facade — lazyhb::Session, TestReport, traceSchedule
//     (lazyhb/session.hpp);
//   * the batch-campaign facade — lazyhb::Suite, SuiteReport, with
//     checkpointed resume and shard/merge support (lazyhb/suite.hpp);
//   * the progress-event surface both facades share — lazyhb::ProgressEvent
//     (lazyhb/progress.hpp).
//
// Link against the exported `lazyhb::lazyhb` CMake target:
//
//   find_package(lazyhb REQUIRED)
//   target_link_libraries(my_tests PRIVATE lazyhb::lazyhb)
//
// See docs/embedding.md for the ten-line walkthrough.

#pragma once

#include "runtime/api.hpp"

#include "lazyhb/options.hpp"
#include "lazyhb/progress.hpp"
#include "lazyhb/scenario.hpp"
#include "lazyhb/session.hpp"
#include "lazyhb/suite.hpp"

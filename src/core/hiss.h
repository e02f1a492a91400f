/**
 * @file
 * Umbrella header for the HISS library.
 *
 * HISS (Host Interference from GPU System Services) reproduces the
 * system of "Interference from GPU System Service Requests"
 * (IISWC 2018): a simulated heterogeneous SoC in which a GPU's
 * system service requests (demand page faults, signals) are handled
 * by the host OS, interfering with unrelated CPU applications — plus
 * the paper's mitigations (interrupt steering, coalescing,
 * monolithic bottom half) and backpressure-based CPU QoS governor.
 *
 * Typical usage (three repetitions, seeds 1..3, averaged):
 * @code
 *   hiss::ExperimentCell cell{"x264", "ubench", {},
 *                             hiss::MeasureMode::CpuPrimary, 3};
 *   auto result = hiss::ExperimentBatch().run({cell}).front();
 * @endcode
 */

#ifndef HISS_CORE_HISS_H_
#define HISS_CORE_HISS_H_

#include "campaign/result_cache.h"
#include "core/cell_key.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/experiment_batch.h"
#include "core/metrics.h"
#include "core/system.h"
#include "workloads/gpu_suite.h"
#include "workloads/parsec.h"

#endif // HISS_CORE_HISS_H_

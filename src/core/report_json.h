// JSON rendering of verification results, for the REST-API integration path
// (§6: "for low-risk changes which are executed automatically, Hoyan is
// integrated in the automation and receives verification requests via our
// REST API" — the automation consumes machine-readable verdicts).
#pragma once

#include <string>

#include "core/hoyan.h"

namespace hoyan {

// Renders a verification result as a JSON object:
// {
//   "plan": "...", "satisfied": true/false,
//   "commandErrors": [...],
//   "routeSim": {"seconds":..., "inputRoutes":..., "installedRoutes":...},
//   "trafficSim": {...},
//   "rcl": [{"spec":..., "satisfied":..., "violations":[{"context":...,
//            "message":..., "examples":[...]}]}],
//   "pathViolations": [...], "loadViolations": [...],
//   "metrics": {"counters":...,"gauges":...,"histograms":...}  // optional
// }
// The "metrics" member is present when `metrics` is non-null: a snapshot of
// the run's registry (queue depth, store bytes, retries, ...), so the REST
// consumer gets operational numbers alongside the verdict.
std::string toJson(const std::string& planName, const ChangeVerificationResult& result,
                   const obs::MetricsRegistry* metrics = nullptr);

}  // namespace hoyan

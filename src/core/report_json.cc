#include "core/report_json.h"

#include <cstdio>

#include "obs/json.h"

namespace hoyan {
namespace {

using obs::jsonEscape;

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

std::string toJson(const std::string& planName, const ChangeVerificationResult& result,
                   const obs::MetricsRegistry* metrics) {
  std::string out = "{";
  out += "\"plan\":\"" + jsonEscape(planName) + "\",";
  out += std::string("\"satisfied\":") + (result.satisfied() ? "true" : "false") + ",";

  out += "\"commandErrors\":[";
  for (size_t i = 0; i < result.commandErrors.size(); ++i) {
    if (i) out += ",";
    out += "\"" + jsonEscape(result.commandErrors[i].str()) + "\"";
  }
  out += "],";

  out += "\"routeSim\":{";
  out += "\"seconds\":" + number(result.routeSimSeconds) + ",";
  out += "\"inputRoutes\":" + std::to_string(result.routeStats.inputRoutes) + ",";
  out += "\"simulatedInputs\":" + std::to_string(result.routeStats.simulatedInputs) + ",";
  out += "\"installedRoutes\":" + std::to_string(result.routeStats.installedRoutes) + ",";
  out += std::string("\"converged\":") + (result.routeStats.converged ? "true" : "false");
  out += "},";

  out += "\"trafficSim\":{";
  out += "\"seconds\":" + number(result.trafficSimSeconds) + ",";
  out += "\"inputFlows\":" + std::to_string(result.trafficStats.inputFlows) + ",";
  out += "\"simulatedFlows\":" + std::to_string(result.trafficStats.simulatedFlows);
  out += "},";

  out += "\"rcl\":[";
  for (size_t i = 0; i < result.rclOutcomes.size(); ++i) {
    const RclOutcome& outcome = result.rclOutcomes[i];
    if (i) out += ",";
    out += "{\"spec\":\"" + jsonEscape(outcome.specification) + "\",";
    out += std::string("\"satisfied\":") +
           (outcome.result.satisfied ? "true" : "false") + ",";
    out += "\"seconds\":" + number(outcome.result.seconds) + ",";
    out += "\"violations\":[";
    for (size_t v = 0; v < outcome.result.violations.size(); ++v) {
      const rcl::Violation& violation = outcome.result.violations[v];
      if (v) out += ",";
      out += "{\"context\":\"" + jsonEscape(violation.context) + "\",";
      out += "\"message\":\"" + jsonEscape(violation.message) + "\",";
      out += "\"examples\":[";
      for (size_t e = 0; e < violation.exampleRows.size(); ++e) {
        if (e) out += ",";
        out += "\"" + jsonEscape(violation.exampleRows[e]) + "\"";
      }
      out += "]";
      // Raw embed: explainJson renders valid JSON (or "{}" for no events).
      if (!violation.provenanceJson.empty())
        out += ",\"provenance\":" + violation.provenanceJson;
      out += "}";
    }
    out += "]}";
  }
  out += "],";

  out += "\"pathViolations\":[";
  for (size_t i = 0; i < result.pathViolations.size(); ++i) {
    if (i) out += ",";
    out += "{\"flow\":\"" + jsonEscape(result.pathViolations[i].flow.str()) + "\",";
    out += "\"reason\":\"" + jsonEscape(result.pathViolations[i].reason) + "\"}";
  }
  out += "],";

  out += "\"loadViolations\":[";
  for (size_t i = 0; i < result.loadViolations.size(); ++i) {
    const LoadViolation& violation = result.loadViolations[i];
    if (i) out += ",";
    out += "{\"from\":\"" + jsonEscape(Names::str(violation.from)) + "\",";
    out += "\"to\":\"" + jsonEscape(Names::str(violation.to)) + "\",";
    out += "\"loadBps\":" + number(violation.loadBps) + ",";
    out += "\"bandwidthBps\":" + number(violation.bandwidthBps) + ",";
    out += "\"utilization\":" + number(violation.utilization()) + "}";
  }
  out += "]";
  if (metrics) out += ",\"metrics\":" + metrics->toJson();
  out += "}";
  return out;
}

}  // namespace hoyan

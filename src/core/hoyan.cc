#include "core/hoyan.h"

#include <chrono>
#include <stdexcept>

#include "incr/fingerprint.h"
#include "rcl/parser.h"

namespace hoyan {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fingerprint of everything that shapes how a run executes — stamped on the
// journal's run_begin so journals from differently-configured runs are never
// diffed silently.
// Worker count is deliberately left out: it is pure scheduling — results and
// the canonical journal are identical for any worker count — so cold/warm
// journals from differently-threaded hosts still diff cleanly.
uint64_t distOptionsFingerprint(const DistSimOptions& options) {
  incr::Fnv1a h;
  h.mix(static_cast<uint64_t>(options.routeSubtasks))
      .mix(static_cast<uint64_t>(options.trafficSubtasks))
      .mix(static_cast<uint64_t>(options.strategy))
      .mix(static_cast<uint64_t>(options.loadAllRibs ? 1 : 0))
      .mix(static_cast<uint64_t>(options.maxAttempts))
      .mix(options.failureSeed)
      .mix(incr::fingerprintRouteOptions(options.routeOptions))
      .mix(incr::fingerprintTrafficOptions(options.trafficOptions));
  return h.digest();
}

}  // namespace

std::vector<ParseError> applyChangeCommands(Topology& topology, NetworkConfig& configs,
                                            const std::string& commands) {
  std::vector<ParseError> errors;
  // Split into per-device sections on `device <name>` headers.
  std::string currentDevice;
  std::string section;
  int sectionStartLine = 1;
  int lineNo = 0;
  const auto flush = [&] {
    if (currentDevice.empty() || section.empty()) return;
    const NameId deviceId = Names::id(currentDevice);
    if (!configs.devices().contains(deviceId) && !topology.findDevice(deviceId)) {
      errors.push_back({sectionStartLine,
                        "change plan targets unknown device '" + currentDevice + "'",
                        "device " + currentDevice});
      return;
    }
    DeviceConfig& config = configs.device(deviceId);
    if (config.hostname == kInvalidName) config.hostname = deviceId;
    Device* device = topology.findDevice(deviceId);
    auto sectionErrors = applyDeviceCommands(config, device, section);
    for (ParseError& error : sectionErrors) {
      error.line += sectionStartLine;
      errors.push_back(std::move(error));
    }
  };
  size_t pos = 0;
  while (pos <= commands.size()) {
    const size_t eol = commands.find('\n', pos);
    const std::string line = eol == std::string::npos ? commands.substr(pos)
                                                      : commands.substr(pos, eol - pos);
    ++lineNo;
    const auto tokens = tokenizeConfigLine(line);
    if (tokens.size() == 2 && tokens[0] == "device") {
      flush();
      currentDevice = tokens[1];
      section.clear();
      sectionStartLine = lineNo;
    } else if (!tokens.empty() && currentDevice.empty()) {
      errors.push_back({lineNo, "command outside a 'device <name>' section", line});
    } else {
      section += line;
      section += '\n';
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  flush();
  return errors;
}

Hoyan::Hoyan(Topology topology, NetworkConfig configs) {
  baseModel_ = std::make_unique<NetworkModel>(
      NetworkModel::build(std::move(topology), std::move(configs)));
  distOptions_.workers = 4;
  distOptions_.routeSubtasks = 32;
  distOptions_.trafficSubtasks = 32;
}

Hoyan Hoyan::fromConfigTexts(Topology topology,
                             const std::vector<std::string>& configTexts) {
  NetworkConfig configs;
  for (const std::string& text : configTexts) {
    ParseResult parsed = parseDeviceConfig(text);
    const NameId hostname = parsed.config.hostname;
    if (hostname == kInvalidName)
      throw std::invalid_argument("config text without hostname");
    // Merge parsed interfaces into the topology device (which carries the
    // inventory view: loopback, role, links).
    if (Device* device = topology.findDevice(hostname)) {
      for (const Interface& itf : parsed.device.interfaces)
        if (!device->findInterface(itf.name)) device->interfaces.push_back(itf);
    }
    configs.mutableDevices().emplace(hostname, std::move(parsed.config));
  }
  return Hoyan(std::move(topology), std::move(configs));
}

void Hoyan::configureTelemetry(const obs::TelemetryOptions& options) {
  ownedTelemetry_ = std::make_unique<obs::Telemetry>(options);
  telemetry_ = ownedTelemetry_.get();
}

void Hoyan::setTelemetry(obs::Telemetry* telemetry) {
  ownedTelemetry_.reset();
  telemetry_ = telemetry;
}

std::string Hoyan::explain(const std::string& device, const Prefix& prefix,
                           size_t maxDepth) const {
  const obs::ProvenanceRecorder* recorder = context().provenance();
  if (!recorder) return "{}";
  return recorder->explainJson(Names::id(device), prefix, maxDepth);
}

void Hoyan::enableIncremental(incr::IncrementalOptions options) {
  incremental_ = std::make_unique<incr::IncrementalEngine>(options);
  if (preprocessed_) incremental_->setBaseModel(*baseModel_);
}

void Hoyan::setInputRoutes(std::vector<InputRoute> inputs) {
  inputRoutes_ = std::move(inputs);
  preprocessed_ = false;
}

void Hoyan::setInputFlows(std::vector<Flow> flows) {
  inputFlows_ = std::move(flows);
  preprocessed_ = false;
}

void Hoyan::preprocess() {
  obs::Telemetry& tel = context();
  obs::Span span = tel.tracer().span("core.preprocess", "core");
  obs::RunJournal& journal = tel.journal();
  journal.runBegin("preprocess", distOptionsFingerprint(distOptions_));
  DistSimOptions runOptions = distOptions_;
  runOptions.telemetry = &tel;
  if (incremental_) {
    // The base run seeds the cache: its subtask results are what later clean
    // subtasks hit.
    incremental_->setBaseModel(*baseModel_);
    incremental_->beginRun(*baseModel_, runOptions);
  }
  DistributedSimulator simulator(*baseModel_, runOptions);
  DistRouteResult routes = simulator.runRouteSimulation(inputRoutes_);
  if (!routes.succeeded) throw std::runtime_error("base route simulation failed");
  baseRibs_ = std::move(routes.ribs);
  baseRibs_.buildForwardingIndex();
  if (!inputFlows_.empty()) {
    DistTrafficResult traffic = simulator.runTrafficSimulation(inputFlows_);
    if (!traffic.succeeded) throw std::runtime_error("base traffic simulation failed");
    baseLoads_ = std::move(traffic.linkLoads);
  } else {
    baseLoads_ = {};
  }
  if (incremental_) {
    // Build (and seed the fragment cache for) the base global RIB before
    // endRun, while the run's result blobs are still resident.
    baseGlobal_ = incremental_->buildGlobalRib(baseRibs_, simulator.routeResultKeys());
    incremental_->endRun();
  } else {
    baseGlobal_ = std::make_shared<const rcl::GlobalRib>(
        rcl::GlobalRib::fromNetworkRibs(baseRibs_));
  }
  preprocessed_ = true;
  span.finish();
  journal.runEnd("preprocess", span.seconds());
  tel.log().info("core.preprocess.done",
                 {{"seconds", std::to_string(span.seconds())},
                  {"routes", std::to_string(baseRibs_.routeCount())}});
}

void Hoyan::requirePreprocessed() const {
  if (!preprocessed_)
    throw std::logic_error("Hoyan::preprocess() must run before verification");
}

NetworkModel Hoyan::buildUpdatedModel(const ChangePlan& plan,
                                      std::vector<ParseError>* errors) const {
  NetworkModel updated;
  updated.topology = baseModel_->topology;
  updated.configs = baseModel_->configs;
  plan.topologyChange.applyTo(updated.topology);
  auto commandErrors = applyChangeCommands(updated.topology, updated.configs, plan.commands);
  if (errors) *errors = std::move(commandErrors);
  updated.rebuildDerived();
  return updated;
}

ChangeVerificationResult Hoyan::verifyChange(const ChangePlan& plan,
                                             const IntentSet& intents) {
  requirePreprocessed();
  obs::Telemetry& tel = context();
  obs::Span taskSpan = tel.tracer().span("core.verify_change", "core");
  taskSpan.arg("plan", plan.name);
  obs::RunJournal& journal = tel.journal();
  journal.runBegin(plan.name, distOptionsFingerprint(distOptions_));
  tel.metrics().counter("core.changes_verified").add(1);
  // Fresh provenance log per verification: the explain chains and violation
  // attachments below must describe *this* change's simulation.
  obs::ProvenanceRecorder* provenance = tel.provenance();
  if (provenance) provenance->clear();
  ChangeVerificationResult result;

  // 1. Updated network model (incremental: base model + parsed commands).
  journal.phaseBegin("model_build");
  obs::Span modelSpan = tel.tracer().span("core.build_updated_model", "core");
  NetworkModel updated = buildUpdatedModel(plan, &result.commandErrors);
  modelSpan.finish();
  journal.phaseEnd("model_build", modelSpan.seconds());

  // 2. Updated input set.
  std::vector<InputRoute> updatedInputs = inputRoutes_;
  for (const Prefix& withdrawn : plan.withdrawnPrefixes)
    std::erase_if(updatedInputs, [&](const InputRoute& input) {
      return input.route.prefix == withdrawn;
    });
  for (const auto& [device, withdrawn] : plan.withdrawnInputs)
    std::erase_if(updatedInputs, [&, device = device](const InputRoute& input) {
      return input.device == device && input.route.prefix == withdrawn;
    });
  updatedInputs.insert(updatedInputs.end(), plan.newInputRoutes.begin(),
                       plan.newInputRoutes.end());

  // 3. Distributed route + traffic simulation on the updated model. With the
  // incremental engine enabled, subtasks unaffected by the plan are served
  // from the content-addressed result cache.
  DistSimOptions runOptions = distOptions_;
  runOptions.telemetry = &tel;
  if (incremental_) {
    const incr::ChangeImpact& impact = incremental_->beginRun(updated, runOptions);
    result.incrementalUsed = true;
    result.impactSummary = impact.str();
  }
  obs::Span routeSpan = tel.tracer().span("core.route_sim", "core");
  DistributedSimulator simulator(updated, runOptions);
  DistRouteResult routes = simulator.runRouteSimulation(updatedInputs);
  result.routeStats = routes.stats;
  result.routeSubtaskCacheHits = routes.cacheHits;
  result.routeSubtaskCount = routes.subtasks.size();
  routeSpan.finish();
  result.routeSimSeconds = routeSpan.seconds();
  NetworkRibs updatedRibs = std::move(routes.ribs);
  updatedRibs.buildForwardingIndex();

  LinkLoadMap updatedLoads;
  if (!inputFlows_.empty() &&
      (intents.maxLinkUtilization || !intents.pathIntents.empty())) {
    obs::Span trafficSpan = tel.tracer().span("core.traffic_sim", "core");
    DistTrafficResult traffic = simulator.runTrafficSimulation(inputFlows_);
    result.trafficStats = traffic.stats;
    result.trafficSubtaskCacheHits = traffic.cacheHits;
    result.trafficSubtaskCount = traffic.subtasks.size();
    trafficSpan.finish();
    result.trafficSimSeconds = trafficSpan.seconds();
    updatedLoads = std::move(traffic.linkLoads);
  }
  // 4. Intent verification. The engine's endRun waits until after it: the
  // fragment fast path reads this run's result blobs out of the store.
  journal.phaseBegin("intent_verify");
  obs::Span intentSpan = tel.tracer().span("core.check_intents", "core");
  const auto verifyStart = Clock::now();
  if (!intents.rclIntents.empty()) {
    // Skipped entirely when no RCL intents ask for it — building the global
    // RIB is pure rendering work with no other consumer.
    std::shared_ptr<const rcl::GlobalRib> updatedGlobal;
    if (incremental_) {
      updatedGlobal =
          incremental_->buildGlobalRib(updatedRibs, simulator.routeResultKeys());
    } else {
      updatedGlobal = std::make_shared<const rcl::GlobalRib>(
          rcl::GlobalRib::fromNetworkRibs(updatedRibs));
    }
    for (const std::string& specification : intents.rclIntents) {
      RclOutcome outcome;
      outcome.specification = specification;
      outcome.result =
          rcl::checkIntentText(specification, *baseGlobal_, *updatedGlobal, provenance);
      result.rclOutcomes.push_back(std::move(outcome));
    }
  }
  for (const PathChangeIntent& intent : intents.pathIntents) {
    auto violations = checkPathChange(*baseModel_, baseRibs_, updated, updatedRibs,
                                      inputFlows_, intent);
    result.pathViolations.insert(result.pathViolations.end(), violations.begin(),
                                 violations.end());
  }
  if (intents.maxLinkUtilization) {
    result.loadViolations =
        checkLinkLoads(updated.topology, updatedLoads, *intents.maxLinkUtilization);
  }
  intentSpan.finish();
  journal.phaseEnd("intent_verify", intentSpan.seconds());
  result.verifySeconds = secondsSince(verifyStart);
  if (incremental_) incremental_->endRun();
  result.updatedRibs = std::move(updatedRibs);
  result.updatedLinkLoads = std::move(updatedLoads);
  taskSpan.finish();
  journal.runEnd(plan.name, taskSpan.seconds());
  if (!result.satisfied()) tel.metrics().counter("core.changes_violated").add(1);
  tel.log().info("core.verify_change.done",
                 {{"plan", plan.name},
                  {"satisfied", result.satisfied() ? "true" : "false"},
                  {"seconds", std::to_string(taskSpan.seconds())}});
  return result;
}

std::vector<ChangeVerificationResult> Hoyan::verifyChangeBatch(
    std::span<const ChangePlan> plans, const IntentSet& intents) {
  std::vector<ChangeVerificationResult> results;
  results.reserve(plans.size());
  for (const ChangePlan& plan : plans) results.push_back(verifyChange(plan, intents));
  return results;
}

std::vector<RclOutcome> Hoyan::runAuditTasks(const std::vector<std::string>& auditSpecs) {
  requirePreprocessed();
  obs::Telemetry& tel = context();
  obs::Span span = tel.tracer().span("core.audit", "core");
  span.arg("tasks", std::to_string(auditSpecs.size()));
  std::vector<RclOutcome> outcomes;
  for (const std::string& specification : auditSpecs) {
    RclOutcome outcome;
    outcome.specification = specification;
    outcome.result =
        rcl::checkIntentText(specification, *baseGlobal_, *baseGlobal_, tel.provenance());
    tel.metrics().counter("core.audit_tasks").add(1);
    if (!outcome.result.satisfied) tel.metrics().counter("core.audit_violations").add(1);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

KFailureResult Hoyan::checkFaultTolerance(const NetworkProperty& property,
                                          const KFailureOptions& options,
                                          const sweep::SweepHints& hints) {
  return sweepFaultTolerance(property, options, hints).result;
}

KFailureResult Hoyan::checkFaultToleranceSerial(
    const NetworkProperty& property, const KFailureOptions& options) const {
  requirePreprocessed();
  return checkKFailures(*baseModel_, inputRoutes_, property, options);
}

sweep::SweepResult Hoyan::sweepFaultTolerance(const NetworkProperty& property,
                                              const KFailureOptions& options,
                                              const sweep::SweepHints& hints) {
  requirePreprocessed();
  obs::Telemetry& tel = context();
  obs::RunJournal& journal = tel.journal();
  obs::Span taskSpan = tel.tracer().span("core.fault_sweep", "core");
  taskSpan.arg("k", std::to_string(options.k));
  // The run fingerprint covers everything that shapes the committed result;
  // worker count is scheduling only (the commit cursor makes results
  // identical for any count), matching distOptionsFingerprint's rationale.
  incr::Fnv1a runFp;
  runFp.mix(static_cast<uint64_t>(options.k))
      .mix(static_cast<uint64_t>(options.includeDeviceFailures ? 1 : 0))
      .mix(static_cast<uint64_t>(options.maxCounterexamples))
      .mix(static_cast<uint64_t>(options.focusDevices.size()))
      .mix(hints.cacheId)
      .mix(static_cast<uint64_t>(hints.relevantPrefixes.size()))
      .mix(static_cast<uint64_t>(hints.relevantDevices.size()));
  for (const NameId device : options.focusDevices)
    runFp.mix(static_cast<uint64_t>(device));
  for (const Prefix& prefix : hints.relevantPrefixes) runFp.mix(prefix);
  for (const NameId device : hints.relevantDevices)
    runFp.mix(static_cast<uint64_t>(device));
  journal.runBegin("fault-sweep", runFp.digest());

  sweep::SweepOptions sweepOptions;
  sweepOptions.failure = options;
  sweepOptions.workers = distOptions_.workers;
  sweepOptions.maxAttempts = distOptions_.maxAttempts;
  sweepOptions.telemetry = &tel;
  sweepOptions.incremental = incremental_.get();
  sweep::SweepResult result;
  try {
    result = sweep::sweepKFailures(*baseModel_, inputRoutes_, property,
                                   sweepOptions, hints);
  } catch (...) {
    taskSpan.finish();
    journal.runEnd("fault-sweep", taskSpan.seconds());
    throw;
  }
  taskSpan.finish();
  journal.runEnd("fault-sweep", taskSpan.seconds());
  tel.log().info(
      "core.fault_sweep.done",
      {{"k", std::to_string(options.k)},
       {"scenarios", std::to_string(result.result.scenariosChecked)},
       {"counterexamples", std::to_string(result.result.counterexamples.size())},
       {"seconds", std::to_string(taskSpan.seconds())}});
  return result;
}

sweep::SweepResult Hoyan::sweepIntentFaultTolerance(const std::string& rclSpec,
                                                    const KFailureOptions& options) {
  requirePreprocessed();
  const rcl::ParseOutcome outcome = rcl::parseIntent(rclSpec);
  if (!outcome.ok())
    throw std::invalid_argument("sweepIntentFaultTolerance: parse error: " +
                                outcome.error);
  const sweep::DeriveResult derived =
      sweep::deriveHints(*outcome.intent, *baseModel_, inputRoutes_);
  obs::Telemetry& tel = context();
  if (derived.scoped) {
    tel.metrics().counter("core.sweep.hints_derived").add(1);
  } else {
    tel.metrics().counter("core.sweep.hints_fallback").add(1);
    tel.log().info("core.sweep.hints_fallback",
                   {{"intent", rclSpec}, {"reason", derived.reason}});
  }
  const rcl::IntentPtr intent = outcome.intent;
  const NetworkProperty property = [intent](const NetworkModel&,
                                            const NetworkRibs& ribs) {
    // The audit-task reading on the degraded network: PRE and POST both
    // bound to its global RIB.
    rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
  return sweepFaultTolerance(property, options, derived.hints);
}

KFailureResult Hoyan::checkIntentFaultTolerance(const std::string& rclSpec,
                                                const KFailureOptions& options) {
  return sweepIntentFaultTolerance(rclSpec, options).result;
}

sweep::DeriveResult Hoyan::deriveSweepHints(const std::string& rclSpec) const {
  requirePreprocessed();
  const rcl::ParseOutcome outcome = rcl::parseIntent(rclSpec);
  if (!outcome.ok())
    throw std::invalid_argument("deriveSweepHints: parse error: " + outcome.error);
  return sweep::deriveHints(*outcome.intent, *baseModel_, inputRoutes_);
}

std::string ChangeVerificationResult::report() const {
  std::string out = satisfied() ? "PASS" : "FAIL";
  out += " | route-sim " + std::to_string(routeSimSeconds) + "s (" +
         std::to_string(routeStats.inputRoutes) + " inputs, " +
         std::to_string(routeStats.installedRoutes) + " routes)";
  if (trafficStats.inputFlows > 0)
    out += " | traffic-sim " + std::to_string(trafficSimSeconds) + "s (" +
           std::to_string(trafficStats.inputFlows) + " flows)";
  for (const ParseError& error : commandErrors)
    out += "\ncommand error: " + error.str();
  for (const RclOutcome& outcome : rclOutcomes) {
    out += "\nRCL: " + outcome.specification + "\n  -> " + outcome.result.summary();
  }
  for (const PathChangeViolation& violation : pathViolations)
    out += "\npath violation: " + violation.reason + " [" + violation.flow.str() + "]";
  for (const LoadViolation& violation : loadViolations)
    out += "\noverloaded: " + violation.str();
  return out;
}

}  // namespace hoyan

/**
 * @file
 * Fault-injection tests: schedule determinism, config validation, the
 * injector's fault budget, ring-level fault semantics (corrupt flags,
 * drops, stalls), the one-traversal audit, and end-to-end recovery on
 * full timed systems.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/cache/invariant_monitor.hpp"
#include "src/core/system.hpp"
#include "src/fault/fault.hpp"
#include "src/ring/network.hpp"
#include "src/runner/experiment_runner.hpp"
#include "src/trace/workload.hpp"

namespace ringsim::fault {
namespace {

// ---------------------------------------------------------------
// The schedule is a pure function of (seed, kind, cycle, slot).
// ---------------------------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule)
{
    FaultPlan a(42), b(42);
    for (Count cycle = 0; cycle < 2000; ++cycle) {
        for (unsigned slot = 0; slot < 9; ++slot) {
            EXPECT_EQ(a.decide(FaultKind::Drop, cycle, slot, 0.01),
                      b.decide(FaultKind::Drop, cycle, slot, 0.01));
            EXPECT_EQ(a.decide(FaultKind::Corrupt, cycle, slot, 0.01),
                      b.decide(FaultKind::Corrupt, cycle, slot, 0.01));
        }
    }
}

TEST(FaultPlan, QueryOrderIrrelevant)
{
    // Decisions carry no hidden RNG state: asking in a different order
    // (or asking twice) cannot change any answer.
    FaultPlan plan(7);
    std::vector<bool> forward, backward;
    for (Count cycle = 0; cycle < 500; ++cycle)
        forward.push_back(
            plan.decide(FaultKind::Drop, cycle, 3, 0.05));
    for (Count cycle = 500; cycle-- > 0;)
        backward.push_back(
            plan.decide(FaultKind::Drop, cycle, 3, 0.05));
    for (std::size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]);
}

TEST(FaultPlan, SeedsAndKindsDecorrelated)
{
    FaultPlan a(1), b(2);
    unsigned differ = 0, kind_differ = 0, fired = 0;
    for (Count cycle = 0; cycle < 20000; ++cycle) {
        bool da = a.decide(FaultKind::Drop, cycle, 0, 0.05);
        bool db = b.decide(FaultKind::Drop, cycle, 0, 0.05);
        bool ca = a.decide(FaultKind::Corrupt, cycle, 0, 0.05);
        differ += da != db;
        kind_differ += da != ca;
        fired += da;
    }
    EXPECT_GT(differ, 0u) << "different seeds, identical schedule";
    EXPECT_GT(kind_differ, 0u) << "kinds share one schedule";
    // ~5% of 20000 = ~1000 events; allow generous slack.
    EXPECT_GT(fired, 500u);
    EXPECT_LT(fired, 2000u);
}

TEST(FaultPlan, RateEndpoints)
{
    FaultPlan plan(99);
    for (Count cycle = 0; cycle < 100; ++cycle) {
        EXPECT_FALSE(plan.decide(FaultKind::Drop, cycle, 0, 0.0));
        EXPECT_TRUE(plan.decide(FaultKind::Drop, cycle, 0, 1.0));
    }
}

// ---------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------

TEST(FaultConfig, DefaultsAreDisabledAndValid)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    EXPECT_TRUE(cfg.check().empty());
}

TEST(FaultConfig, BadRatesReported)
{
    FaultConfig cfg;
    cfg.corruptRate = -0.1;
    EXPECT_FALSE(cfg.check().empty());

    cfg = FaultConfig{};
    cfg.dropRate = 1.5;
    EXPECT_FALSE(cfg.check().empty());

    cfg = FaultConfig{};
    cfg.stallRate = 0.01;
    cfg.stallCycles = 0;
    EXPECT_FALSE(cfg.check().empty());

    cfg = FaultConfig{};
    cfg.corruptRate = 0.01;
    cfg.maxRetries = 0;
    EXPECT_FALSE(cfg.check().empty());
}

TEST(FaultConfigDeathTest, ValidateIsFatal)
{
    FaultConfig cfg;
    cfg.dropRate = 2.0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "rate");
}

// ---------------------------------------------------------------
// Injector budget and stats.
// ---------------------------------------------------------------

TEST(FaultInjector, BudgetCapsInjectedFaults)
{
    FaultConfig cfg;
    cfg.corruptRate = 1.0;
    cfg.dropRate = 1.0;
    cfg.maxFaults = 5;
    FaultInjector inj(cfg);
    Count granted = 0;
    for (Count cycle = 0; cycle < 100; ++cycle)
        granted += inj.dropAt(cycle, 0) ? 1 : 0;
    EXPECT_EQ(granted, 5u);
    EXPECT_EQ(inj.faultsInjected(), 5u);
    EXPECT_FALSE(inj.corruptAt(100, 0)) << "budget exhausted";
    EXPECT_EQ(inj.stats().dropped.value(), 5u);
}

// ---------------------------------------------------------------
// Ring-level fault semantics.
// ---------------------------------------------------------------

/** The ring's one client: runs node n's hook on each visit to n. */
class ScriptClient : public ring::RingClient
{
  public:
    using Hook = std::function<void(ring::SlotHandle &)>;

    void onSlot(ring::SlotHandle &slot) override
    {
        if (Hook &hook = hooks[slot.node()])
            hook(slot);
    }

    std::vector<Hook> hooks = std::vector<Hook>(8);
};

struct RingRig
{
    sim::Kernel kernel;
    ring::RingConfig config;
    ScriptClient client;
    std::unique_ptr<ring::SlotRing> net;

    RingRig()
    {
        config.nodes = 8;
        net = std::make_unique<ring::SlotRing>(kernel, config);
        net->setClient(client);
        // The hooks insert into empty slots, so every node is pending
        // and sees every slot.
        for (NodeId n = 0; n < 8; ++n)
            net->notifyPending(n);
    }
};

TEST(RingFaults, CorruptionFlagsSlotForNextNode)
{
    RingRig rig;
    FaultConfig cfg;
    cfg.corruptRate = 1.0;
    FaultInjector inj(cfg);
    rig.net->setFaultInjector(&inj);

    bool inserted = false;
    bool saw_corrupt = false;
    rig.client.hooks[1] = [&](ring::SlotHandle &slot) {
        if (!inserted && slot.type() == ring::SlotType::Block) {
            ring::RingMessage msg;
            msg.src = 1;
            msg.dst = 5;
            msg.addr = 0x100;
            slot.insert(msg);
            inserted = true;
        }
    };
    for (NodeId n = 2; n < 8; ++n) {
        rig.client.hooks[n] = [&](ring::SlotHandle &slot) {
            if (slot.occupied() && slot.corrupted()) {
                saw_corrupt = true;
                slot.remove();
            }
        };
    }
    rig.net->start(0);
    rig.kernel.run(nsToTicks(500));
    rig.net->stop();
    EXPECT_TRUE(inserted);
    EXPECT_TRUE(saw_corrupt);
    EXPECT_GT(inj.stats().corrupted.value(), 0u);
}

TEST(RingFaults, DropErasesMessage)
{
    RingRig rig;
    FaultConfig cfg;
    cfg.dropRate = 1.0;
    FaultInjector inj(cfg);
    rig.net->setFaultInjector(&inj);

    bool inserted = false;
    bool delivered = false;
    rig.client.hooks[1] = [&](ring::SlotHandle &slot) {
        if (!inserted && slot.type() == ring::SlotType::Block) {
            ring::RingMessage msg;
            msg.src = 1;
            msg.dst = 5;
            msg.addr = 0x100;
            slot.insert(msg);
            inserted = true;
        }
    };
    rig.client.hooks[5] = [&](ring::SlotHandle &slot) {
        if (slot.occupied() && slot.message().dst == 5) {
            slot.remove();
            delivered = true;
        }
    };
    rig.net->start(0);
    rig.kernel.run(nsToTicks(500));
    rig.net->stop();
    EXPECT_TRUE(inserted);
    EXPECT_FALSE(delivered) << "dropped message still arrived";
    EXPECT_EQ(inj.stats().dropped.value(), 1u);
    EXPECT_EQ(inj.faultsInjected(), 1u);
}

TEST(RingFaults, StallsDelayDeliveryWithoutLoss)
{
    // Same script with and without stalls: the message still arrives,
    // strictly later, and the stall cycles are counted.
    auto deliver = [](FaultInjector *inj) {
        RingRig rig;
        if (inj)
            rig.net->setFaultInjector(inj);
        bool inserted = false;
        Tick delivered = 0;
        rig.client.hooks[1] = [&](ring::SlotHandle &slot) {
            if (!inserted && slot.type() == ring::SlotType::Block) {
                ring::RingMessage msg;
                msg.src = 1;
                msg.dst = 5;
                msg.addr = 0x100;
                slot.insert(msg);
                inserted = true;
            }
        };
        rig.client.hooks[5] = [&](ring::SlotHandle &slot) {
            if (slot.occupied() && slot.message().dst == 5 &&
                !delivered) {
                slot.remove();
                delivered = rig.kernel.now();
            }
        };
        rig.net->start(0);
        rig.kernel.run(nsToTicks(2000));
        rig.net->stop();
        return delivered;
    };

    Tick clean = deliver(nullptr);
    FaultConfig cfg;
    cfg.stallRate = 0.2;
    cfg.stallCycles = 3;
    FaultInjector inj(cfg);
    Tick stalled = deliver(&inj);

    ASSERT_GT(clean, 0u);
    ASSERT_GT(stalled, 0u);
    EXPECT_GT(stalled, clean);
    EXPECT_GT(inj.stats().stallEvents.value(), 0u);
    EXPECT_GT(inj.stats().stallCycles.value(), 0u);
}

// ---------------------------------------------------------------
// One-traversal audit (continuous invariant monitoring).
// ---------------------------------------------------------------

TEST(RingAudit, LateRemovalReportsTraversalOverrun)
{
    RingRig rig;
    cache::InvariantMonitor monitor(cache::InvariantMonitor::Mode::Record);
    rig.net->setMonitor(&monitor);

    bool inserted = false;
    unsigned passes = 0;
    rig.client.hooks[1] = [&](ring::SlotHandle &slot) {
        if (!inserted && slot.type() == ring::SlotType::Block) {
            ring::RingMessage msg;
            msg.src = 1;
            msg.dst = 5;
            msg.addr = 0x140;
            msg.payload = 77;
            slot.insert(msg);
            inserted = true;
        }
    };
    rig.client.hooks[5] = [&](ring::SlotHandle &slot) {
        if (slot.occupied() && slot.message().dst == 5) {
            // A buggy interface: lets its message pass once, removes
            // it on the second traversal.
            if (++passes == 2)
                slot.remove();
        }
    };
    rig.net->start(0);
    rig.kernel.run(nsToTicks(2000));
    rig.net->stop();

    ASSERT_EQ(passes, 2u);
    ASSERT_FALSE(monitor.clean());
    ASSERT_EQ(monitor.countOf(cache::Violation::Kind::TraversalOverrun),
              1u);
    const cache::Violation &v = monitor.violations().front();
    EXPECT_EQ(v.node, 5u);
    EXPECT_EQ(v.other, 1u);
    EXPECT_EQ(v.block, 0x140u);
    EXPECT_EQ(v.txn, 77u);
    EXPECT_GE(v.slot, 0);
}

TEST(RingAudit, TimelyRemovalIsClean)
{
    RingRig rig;
    cache::InvariantMonitor monitor(cache::InvariantMonitor::Mode::Record);
    rig.net->setMonitor(&monitor);

    bool inserted = false;
    rig.client.hooks[1] = [&](ring::SlotHandle &slot) {
        if (!inserted && slot.type() == ring::SlotType::Block) {
            ring::RingMessage msg;
            msg.src = 1;
            msg.dst = 5;
            msg.addr = 0x100;
            slot.insert(msg);
            inserted = true;
        }
    };
    rig.client.hooks[5] = [&](ring::SlotHandle &slot) {
        if (slot.occupied() && slot.message().dst == 5)
            slot.remove();
    };
    rig.net->start(0);
    rig.kernel.run(nsToTicks(1000));
    rig.net->stop();
    EXPECT_TRUE(monitor.clean());
    EXPECT_GT(monitor.checksPerformed(), 0u);
}

// ---------------------------------------------------------------
// End-to-end: full timed systems recover from injected faults.
// ---------------------------------------------------------------

core::RingSystemConfig
faultyConfig(double rate, std::uint64_t seed)
{
    core::RingSystemConfig cfg = core::RingSystemConfig::forProcs(8);
    cfg.common.faults.corruptRate = rate;
    cfg.common.faults.dropRate = rate;
    cfg.common.faults.seed = seed;
    return cfg;
}

trace::WorkloadConfig
smallWorkload()
{
    trace::WorkloadConfig wl =
        trace::workloadPreset(trace::Benchmark::MP3D, 8);
    wl.dataRefsPerProc = 20000;
    return wl;
}

void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.procUtilization, b.procUtilization);
    EXPECT_EQ(a.networkUtilization, b.networkUtilization);
    EXPECT_EQ(a.missLatencyNs, b.missLatencyNs);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.fatalTxns, b.fatalTxns);
    EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(FaultRecovery, SnoopSystemRecoversDeterministically)
{
    core::RingSystemConfig cfg = faultyConfig(2e-5, 11);
    trace::WorkloadConfig wl = smallWorkload();
    core::RunResult a = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingSnoop);
    core::RunResult b = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingSnoop);

    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_GT(a.retries, 0u);
    EXPECT_GT(a.recovered, 0u);
    expectSameResult(a, b);
}

TEST(FaultRecovery, DirectorySystemRecoversDeterministically)
{
    core::RingSystemConfig cfg = faultyConfig(2e-5, 11);
    trace::WorkloadConfig wl = smallWorkload();
    core::RunResult a = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingDirectory);
    core::RunResult b = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingDirectory);

    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_GT(a.retries, 0u);
    expectSameResult(a, b);
}

TEST(FaultRecovery, DifferentSeedsDifferentSchedules)
{
    trace::WorkloadConfig wl = smallWorkload();
    core::RunResult a = core::runRingSystem(
        faultyConfig(2e-5, 1), wl, core::ProtocolKind::RingSnoop);
    core::RunResult b = core::runRingSystem(
        faultyConfig(2e-5, 2), wl, core::ProtocolKind::RingSnoop);
    // Same rate, different seed: same order of magnitude, different
    // pattern. The raw injected count can collide, but the different
    // fault timing must leave a mark somewhere in the results.
    bool differs = a.faultsInjected != b.faultsInjected ||
                   a.retries != b.retries ||
                   a.recovered != b.recovered ||
                   a.missLatencyNs != b.missLatencyNs ||
                   a.procUtilization != b.procUtilization;
    EXPECT_TRUE(differs);
}

TEST(FaultRecovery, FaultFreeRunReportsZeroCounters)
{
    core::RingSystemConfig cfg = core::RingSystemConfig::forProcs(8);
    trace::WorkloadConfig wl = smallWorkload();
    core::RunResult r = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingSnoop);
    EXPECT_EQ(r.faultsInjected, 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.recovered, 0u);
    EXPECT_EQ(r.fatalTxns, 0u);
    EXPECT_EQ(r.nacks, 0u);
    EXPECT_EQ(r.timeouts, 0u);
}

TEST(FaultRecovery, ExhaustedRetriesDegradeGracefully)
{
    // Drop everything: no transaction can ever complete on the wire,
    // every one must exhaust its retries and be declared fatal — and
    // the run must still terminate with the processors released.
    core::RingSystemConfig cfg = core::RingSystemConfig::forProcs(8);
    cfg.common.faults.dropRate = 1.0;
    cfg.common.faults.maxRetries = 2;
    trace::WorkloadConfig wl = smallWorkload();
    wl.dataRefsPerProc = 500;
    core::RunResult r = core::runRingSystem(
        cfg, wl, core::ProtocolKind::RingSnoop);
    EXPECT_GT(r.fatalTxns, 0u);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_EQ(r.recovered, 0u);
}

TEST(FaultRecovery, ResultsIndependentOfRunnerJobs)
{
    // The acceptance property behind every bench table: a fixed fault
    // seed gives byte-identical results no matter how the sweep is
    // parallelized.
    std::vector<double> rates = {0.0, 1e-5, 5e-5};
    auto make_tasks = [&]() {
        std::vector<std::function<core::RunResult()>> tasks;
        for (double rate : rates) {
            tasks.push_back([rate]() {
                return core::runRingSystem(
                    faultyConfig(rate, 11), smallWorkload(),
                    core::ProtocolKind::RingSnoop);
            });
        }
        return tasks;
    };
    std::vector<core::RunResult> serial =
        runner::runAll(make_tasks(), 1);
    std::vector<core::RunResult> parallel =
        runner::runAll(make_tasks(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);
}

TEST(FaultRecovery, MonitoredFaultyRunStaysCoherent)
{
    // Faults disturb timing, never functional state: the continuous
    // invariant monitor must stay clean through a faulty run.
    cache::InvariantMonitor monitor(cache::InvariantMonitor::Mode::Record);
    core::RingSystemConfig cfg = faultyConfig(2e-5, 11);
    cfg.common.monitor = &monitor;
    core::RunResult r = core::runRingSystem(
        cfg, smallWorkload(), core::ProtocolKind::RingSnoop);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_TRUE(monitor.clean()) << monitor.summary();
    EXPECT_GT(monitor.checksPerformed(), 0u);
}

} // namespace
} // namespace ringsim::fault

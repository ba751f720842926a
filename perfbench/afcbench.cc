/**
 * @file
 * afcbench: the timing harness behind perfbench/run.py.
 *
 * Each benchmark workload is a list of exp::ExperimentSpec grids. The
 * harness repeats the workload until `--seconds` have passed and
 * prints one JSON document with the raw per-pass samples, a digest of
 * every run's deterministic outputs, and (traced mode) per-layer
 * figures. run.py reduces the samples to medians and checks the
 * digests against perfbench/reference.json. Only public simulator
 * calls are timed; spans are recorded here, around those calls.
 *
 * Modes:
 *   untraced (--trace 0)  fig2_grid runs on exp::ParallelRunner as the
 *                         fig2 benches do; the kernels time
 *                         ClosedLoopSystem construction, then run().
 *   traced   (--trace 1)  alternates an untraced pass on
 *                         exp::ParallelRunner (exp.* figures, the
 *                         overhead baseline) with a traced pass that
 *                         drives every run cycle by cycle through
 *                         Core::tick, L2Bank::tick and Network::step.
 *   reference             one direct ClosedLoopSystem::run() per run,
 *                         for perfbench/reference.json.
 *
 * Usage: afcbench --workload <name> --seed <n> --seconds <s>
 *                 [--trace 0|1] [--trace-out <path>] [--reference]
 */

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "afcbench measures the optimized program; build it without sanitizers"
#endif

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/serial.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "exp/experiments.hh"
#include "exp/result.hh"
#include "exp/runner.hh"
#include "sim/closedloop.hh"

using namespace afcsim;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
micros(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Load threads: one process, min(4, nproc) threads. */
int
loadThreads()
{
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(hw, 1, 4);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * Ocean issues at 0.14 per core-cycle for cycles [0, 1800) of every
 * 25000 (oceanWorkload()'s PhaseModulation) and at 0.0175 otherwise.
 * The burst kernels are sized to finish inside that first burst.
 */
constexpr Cycle kOceanBurstEnd = 1800;

struct Workload
{
    std::string name;
    std::vector<exp::ExperimentSpec> grids;
    /** exp::ParallelRunner pool size. */
    int threads = 1;
    /** Every run must end before this cycle (0 = no limit). */
    Cycle endBefore = 0;
    /** Untraced passes go through exp::ParallelRunner (as the fig2
     *  benches run) rather than construct-then-run(). */
    bool viaRunner = false;
};

exp::ExperimentSpec
kernelSpec(const std::string &name, const std::string &workload, int mesh,
           int shards, double scale, std::uint64_t seed)
{
    exp::ExperimentSpec spec;
    spec.name = name;
    spec.kind = exp::RunKind::ClosedLoop;
    spec.configs = {FlowControl::Afc};
    spec.workloads = {workload};
    spec.meshSizes = {mesh};
    spec.base.shards = shards;
    spec.scale = scale;
    spec.baseSeed = seed;
    return spec;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "fig2_grid") {
        for (exp::ExperimentSpec spec : {exp::fig2LowLoadExperiment(),
                                         exp::fig2HighLoadExperiment()}) {
            spec.baseSeed = seed;
            w.grids.push_back(spec);
        }
        w.threads = loadThreads();
        w.viaRunner = true;
    } else if (name == "cl32_ocean_burst") {
        w.grids = {kernelSpec(name, "ocean", 32, 1, 0.25, seed)};
        w.endBefore = kOceanBurstEnd;
    } else if (name == "cl32_water") {
        w.grids = {kernelSpec(name, "water", 32, 1, 0.25, seed)};
    } else if (name == "cl64_ocean_sharded") {
        // Two shards, not loadThreads(): shard workers spin at every
        // phase barrier, so a pool as wide as a shared host's cores
        // times the host's other tenants, not the kernel.
        w.grids = {kernelSpec(name, "ocean", 64, std::min(2, loadThreads()),
                              0.125, seed)};
        w.endBefore = kOceanBurstEnd;
    } else {
        AFCSIM_CONFIG_ERROR("unknown workload '", name,
                            "'; known: fig2_grid, cl32_ocean_burst, "
                            "cl32_water, cl64_ocean_sharded");
    }
    return w;
}

/** The workload's parameters, recorded in every result. */
JsonValue
paramsJson(const Workload &w, std::uint64_t seed)
{
    JsonValue grids = JsonValue::array();
    for (const auto &spec : w.grids) {
        JsonValue g = JsonValue::object();
        g.set("spec", spec.name);
        JsonValue fcs = JsonValue::array();
        for (FlowControl fc : spec.configs)
            fcs.push(toString(fc));
        g.set("configs", std::move(fcs));
        JsonValue runs = JsonValue::array();
        for (const auto &p : spec.expand()) {
            JsonValue r = JsonValue::object();
            r.set("mesh", p.mesh);
            r.set("fc", toString(p.fc));
            r.set("workload", p.workload.name);
            r.set("issue_prob", p.workload.issueProb);
            const PhaseModulation &ph = p.workload.phases;
            r.set("phases", std::to_string(ph.period) + "/" +
                                std::to_string(ph.altLength) + "@" +
                                std::to_string(ph.altIssueProb));
            r.set("warmup_tx", p.workload.warmupTransactions);
            r.set("measure_tx", p.workload.measureTransactions);
            r.set("shards", p.cfg.shards);
            runs.push(std::move(r));
        }
        g.set("runs", std::move(runs));
        grids.push(std::move(g));
    }
    JsonValue p = JsonValue::object();
    p.set("workload", w.name);
    p.set("seed", seed);
    p.set("threads", w.threads);
    p.set("end_before_cycle", static_cast<std::uint64_t>(w.endBefore));
    p.set("grids", std::move(grids));
    return p;
}

// ---------------------------------------------------------------------
// Digests of a run's deterministic outputs
// ---------------------------------------------------------------------

/** The outputs both ClosedLoopResult and exp::RunResult carry. */
struct Outcome
{
    double runtime = 0.0;
    std::uint64_t transactions = 0;
    double txLatency = 0.0;
    double packetLatency = 0.0;
    double bpFraction = 0.0;
    std::uint64_t switches[3] = {};
    EnergyReport energy;
    NetStats net;
};

Outcome
outcomeOf(const ClosedLoopResult &r)
{
    return {static_cast<double>(r.runtime), r.transactions,
            r.avgTxLatency, r.avgPacketLatency, r.bpFraction,
            {r.forwardSwitches, r.reverseSwitches, r.gossipSwitches},
            r.energy, r.net};
}

Outcome
outcomeOf(const exp::RunResult &r)
{
    return {r.runtimeCycles, r.transactions, r.avgTxLatency,
            r.avgPacketLatency, r.bpFraction,
            {r.forwardSwitches, r.reverseSwitches, r.gossipSwitches},
            r.energy, r.net};
}

std::string
hex(const ckpt::Writer &w)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      ckpt::fnv1a(w.bytes().data(), w.bytes().size())));
    return buf;
}

/** Measurement window: cycles, transactions, latencies, energy by
 *  component, mode switches, flit counts. */
std::string
resultDigest(const Outcome &o)
{
    ckpt::Writer w;
    w.f64(o.runtime);
    w.u64(o.transactions);
    w.f64(o.txLatency);
    w.f64(o.packetLatency);
    w.f64(o.bpFraction);
    for (std::uint64_t s : o.switches)
        w.u64(s);
    for (double e : o.energy.byComponent)
        w.f64(e);
    w.u64(o.net.flitsInjected);
    w.u64(o.net.flitsDelivered);
    w.u64(o.net.packetsDelivered);
    w.u64(o.net.totalDeflections);
    return hex(w);
}

/** Whole run: final cycle and every router counter. */
std::string
endDigest(const Network &net)
{
    RouterStats r = net.aggregateRouterStats();
    ckpt::Writer w;
    w.u64(net.now());
    w.u64(r.flitsRouted);
    w.u64(r.flitsDeflected);
    w.u64(r.cyclesBackpressured);
    w.u64(r.cyclesBackpressureless);
    w.u64(r.forwardSwitches);
    w.u64(r.reverseSwitches);
    w.u64(r.gossipSwitches);
    w.u64(r.creditStalls);
    return hex(w);
}

/** One run's record: digests (end digest empty when the path cannot
 *  see the final network) or the error that ended it. */
JsonValue
runRecord(const std::string &result, const std::string &end,
          Cycle final_cycle, const std::string &error)
{
    JsonValue r = JsonValue::object();
    r.set("result", result);
    r.set("end", end);
    r.set("final_cycle", static_cast<std::uint64_t>(final_cycle));
    r.set("error", error);
    return r;
}

std::string
burstError(const Workload &w, Cycle final_cycle)
{
    if (w.endBefore == 0 || final_cycle < w.endBefore)
        return "";
    return "run ended at cycle " + std::to_string(final_cycle) +
           ", not before cycle " + std::to_string(w.endBefore);
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace events
// ---------------------------------------------------------------------

struct Span
{
    const char *name;
    double ts;  ///< us since process start
    double dur; ///< us
    int tid;
    int run;    ///< grid run index, -1 for cycle-level spans
};

/** Per-cycle spans are kept for the first kSpanCycles cycles of each
 *  run (fig2_grid simulates millions of cycles); the layer timers
 *  below cover every cycle. */
constexpr Cycle kSpanCycles = 512;

void
addTo(RouterStats &a, const RouterStats &b)
{
    a.flitsRouted += b.flitsRouted;
    a.flitsDeflected += b.flitsDeflected;
    a.cyclesBackpressured += b.cyclesBackpressured;
    a.cyclesBackpressureless += b.cyclesBackpressureless;
    a.forwardSwitches += b.forwardSwitches;
    a.reverseSwitches += b.reverseSwitches;
    a.gossipSwitches += b.gossipSwitches;
    a.creditStalls += b.creditStalls;
}

/** What a traced pass reports per layer: host time over the cycles it
 *  drove, and whole-run counters (measurement window for sim ones). */
struct Layers
{
    double cycle = 0.0;
    double coreTick = 0.0;
    double l2Tick = 0.0;
    double completionScan = 0.0;
    double step = 0.0;
    std::vector<float> stepUs; ///< one sample per Network::step
    std::uint64_t routerCycles = 0;
    std::vector<Span> spans;

    RouterStats router;
    std::uint64_t transactions = 0;
    std::uint64_t mshrStalls = 0;
    double txLatencySum = 0.0;
    double energy = 0.0;
    std::uint64_t flitsDelivered = 0;

    void
    merge(Layers &&o)
    {
        cycle += o.cycle;
        coreTick += o.coreTick;
        l2Tick += o.l2Tick;
        completionScan += o.completionScan;
        step += o.step;
        stepUs.insert(stepUs.end(), o.stepUs.begin(), o.stepUs.end());
        routerCycles += o.routerCycles;
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
        addTo(router, o.router);
        transactions += o.transactions;
        mshrStalls += o.mshrStalls;
        txLatencySum += o.txLatencySum;
        energy += o.energy;
        flitsDelivered += o.flitsDelivered;
    }
};

/**
 * Drive one closed-loop run cycle by cycle through public calls,
 * exactly as ClosedLoopSystem::step() does, timing each layer. The
 * record's digests must equal the untraced run's.
 */
JsonValue
tracedRun(const Workload &w, const exp::RunPoint &p, int tid, Layers &lt)
{
    auto run_t0 = Clock::now();
    ClosedLoopSystem sys(p.cfg, p.fc, p.workload, p.maxCycles);
    Network &net = sys.network();
    const int n = net.mesh().numNodes();

    auto completed = [&] {
        std::uint64_t total = 0;
        for (NodeId node = 0; node < n; ++node)
            total += sys.core(node).completed();
        return total;
    };

    bool measuring = false;
    EnergyReport e0;
    RouterStats r0;
    Cycle t0 = 0;
    std::string error;
    for (;;) {
        Cycle now = net.now();
        auto c0 = Clock::now();
        bool finished = false;
        if (!measuring && completed() >= p.workload.warmupTransactions) {
            for (NodeId node = 0; node < n; ++node) {
                net.nic(node).stats().reset();
                sys.core(node).resetStats();
            }
            e0 = net.aggregateEnergy();
            r0 = net.aggregateRouterStats();
            t0 = now;
            measuring = true;
        }
        if (measuring && completed() >= p.workload.measureTransactions)
            finished = true;
        auto c1 = Clock::now();
        lt.completionScan += seconds(c0, c1);
        if (finished)
            break;
        if (now >= sys.maxCycles()) {
            error = "closed-loop run exceeded its cycle budget";
            break;
        }
        for (NodeId node = 0; node < n; ++node)
            sys.core(node).tick(now);
        auto c2 = Clock::now();
        for (NodeId node = 0; node < n; ++node)
            sys.bank(node).tick(now);
        auto c3 = Clock::now();
        net.step();
        auto c4 = Clock::now();

        lt.coreTick += seconds(c1, c2);
        lt.l2Tick += seconds(c2, c3);
        double step = seconds(c3, c4);
        lt.step += step;
        lt.cycle += seconds(c0, c4);
        lt.stepUs.push_back(static_cast<float>(step * 1e6));
        lt.routerCycles += static_cast<std::uint64_t>(n);
        if (now < kSpanCycles) {
            lt.spans.push_back({"cycle", micros(c0), seconds(c0, c4) * 1e6,
                                tid, -1});
            lt.spans.push_back({"completion_scan", micros(c0),
                                seconds(c0, c1) * 1e6, tid, -1});
            lt.spans.push_back({"core_tick", micros(c1),
                                seconds(c1, c2) * 1e6, tid, -1});
            lt.spans.push_back({"l2_tick", micros(c2),
                                seconds(c2, c3) * 1e6, tid, -1});
            lt.spans.push_back({"network_step", micros(c3), step * 1e6,
                                tid, -1});
        }
    }

    // ClosedLoopSystem::finish()'s result, from the same calls.
    ClosedLoopResult res;
    res.runtime = net.now() - t0;
    res.transactions = completed();
    res.net = net.aggregateStats();
    res.energy = net.aggregateEnergy().diff(e0);
    RunningStat tx;
    for (NodeId node = 0; node < n; ++node) {
        tx.merge(sys.core(node).txLatency());
        lt.mshrStalls += sys.core(node).mshrStallCycles();
    }
    res.avgTxLatency = tx.mean();
    res.avgPacketLatency = res.net.packetLatency.mean();
    RouterStats r1 = net.aggregateRouterStats();
    std::uint64_t bp = r1.cyclesBackpressured - r0.cyclesBackpressured;
    std::uint64_t bpl =
        r1.cyclesBackpressureless - r0.cyclesBackpressureless;
    res.bpFraction =
        (bp + bpl) ? static_cast<double>(bp) / (bp + bpl) : 0.0;
    res.forwardSwitches = r1.forwardSwitches - r0.forwardSwitches;
    res.reverseSwitches = r1.reverseSwitches - r0.reverseSwitches;
    res.gossipSwitches = r1.gossipSwitches - r0.gossipSwitches;

    addTo(lt.router, r1);
    lt.transactions += res.transactions;
    lt.txLatencySum += tx.sum();
    lt.energy += res.energy.total();
    lt.flitsDelivered += res.net.flitsDelivered;

    auto run_t1 = Clock::now();
    lt.spans.push_back({"run", micros(run_t0), seconds(run_t0, run_t1) * 1e6,
                        tid, p.index});
    if (error.empty())
        error = burstError(w, net.now());
    return runRecord(resultDigest(outcomeOf(res)), endDigest(net),
                     net.now(), error);
}

/** Run fn(i) for every i in [0, count) on `threads` workers. */
void
forEachParallel(int count, int threads,
                const std::function<void(int index, int tid)> &fn)
{
    std::atomic<int> cursor{0};
    auto work = [&](int tid) {
        for (int i = cursor.fetch_add(1); i < count;
             i = cursor.fetch_add(1))
            fn(i, tid);
    };
    int workers = std::min(threads, count);
    std::vector<std::thread> pool;
    for (int t = 1; t < workers; ++t)
        pool.emplace_back(work, t);
    work(0);
    for (auto &t : pool)
        t.join();
}

std::vector<exp::RunPoint>
allPoints(const Workload &w)
{
    std::vector<exp::RunPoint> points;
    for (const auto &spec : w.grids) {
        auto expanded = spec.expand();
        points.insert(points.end(), expanded.begin(), expanded.end());
    }
    return points;
}

double
percentile(std::vector<float> v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t k = static_cast<std::size_t>(q * (v.size() - 1));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

struct Pass
{
    std::vector<double> setup;
    double wall = 0.0;
    double cpu = 0.0;
    double simCycles = 0.0;
    JsonValue runs = JsonValue::array();
    JsonValue extra = JsonValue::object();

    JsonValue
    json()
    {
        JsonValue j = JsonValue::object();
        JsonValue s = JsonValue::array();
        for (double v : setup)
            s.push(v);
        j.set("setup_s", std::move(s));
        j.set("wall_s", wall);
        j.set("cpu_s", cpu);
        j.set("sim_cycles", simCycles);
        j.set("runs", std::move(runs));
        j.set("extra", std::move(extra));
        return j;
    }
};

/** Fig. 2 values tabulated in EXPERIMENTS.md (geo-mean vs BP). */
struct PaperValue
{
    const char *spec;
    FlowControl fc;
    bool energy;
    double value;
};

const PaperValue kFig2Paper[] = {
    {"fig2_low_load", FlowControl::Backpressureless, false, 1.00},
    {"fig2_low_load", FlowControl::AfcAlwaysBackpressured, false, 1.00},
    {"fig2_low_load", FlowControl::Afc, false, 1.00},
    {"fig2_low_load", FlowControl::BackpressuredIdealBypass, false, 1.00},
    {"fig2_low_load", FlowControl::Backpressureless, true, 0.70},
    {"fig2_low_load", FlowControl::Afc, true, 0.77},
    {"fig2_low_load", FlowControl::BackpressuredIdealBypass, true, 0.93},
    {"fig2_high_load", FlowControl::Backpressureless, false, 0.81},
    {"fig2_high_load", FlowControl::AfcAlwaysBackpressured, false, 0.98},
    {"fig2_high_load", FlowControl::Afc, false, 0.98},
    {"fig2_high_load", FlowControl::Backpressureless, true, 1.35},
    {"fig2_high_load", FlowControl::AfcAlwaysBackpressured, true, 1.02},
    {"fig2_high_load", FlowControl::Afc, true, 1.02},
};

/** Mean |measured - paper| over kFig2Paper; the measured value is the
 *  geo-mean over a grid's workloads of the per-workload ratio to BP. */
double
fig2PaperError(const std::map<std::string, std::vector<exp::RunResult>>
                   &by_spec)
{
    double err = 0.0;
    for (const auto &pv : kFig2Paper) {
        double log_sum = 0.0;
        int groups = 0;
        for (const auto &row : exp::aggregate(by_spec.at(pv.spec))) {
            if (row.fc != pv.fc)
                continue;
            double v = pv.energy ? row.energyRel.mean() : row.perfRel.mean();
            if (v <= 0.0)
                AFCSIM_SIM_ERROR("no ratio to BP for ", row.group);
            log_sum += std::log(v);
            ++groups;
        }
        err += std::fabs(std::exp(log_sum / groups) - pv.value);
    }
    return err / std::size(kFig2Paper);
}

/**
 * One untraced pass on exp::ParallelRunner: every grid of the
 * workload, then resultsToJson() + dump() as afcsim-exp's sink does.
 */
Pass
runnerPass(const Workload &w)
{
    Pass pass;
    exp::ParallelRunner runner(w.threads);
    double run_sum = 0.0;
    double run_max = 0.0;
    double pool_wall = 0.0;
    double sink = 0.0;
    std::map<std::string, std::vector<exp::RunResult>> by_spec;

    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    for (const auto &spec : w.grids) {
        auto outcome = runner.runSpec(spec);
        auto s0 = Clock::now();
        std::string doc =
            exp::resultsToJson(spec, outcome.results).dump(2);
        auto s1 = Clock::now();
        sink += seconds(s0, s1);
        pool_wall += outcome.wallMs / 1000.0;
        pass.simCycles += outcome.totalSimCycles;
        for (const auto &r : outcome.results) {
            run_sum += r.wallMs / 1000.0;
            run_max = std::max(run_max, r.wallMs / 1000.0);
            pass.runs.push(runRecord(
                r.error.empty() ? resultDigest(outcomeOf(r)) : "", "", 0,
                r.error));
        }
        by_spec[spec.name] = std::move(outcome.results);
    }
    pass.wall = seconds(t0, Clock::now());
    pass.cpu = cpuSeconds() - cpu0;

    pass.extra.set("exp.run_s_sum", run_sum);
    pass.extra.set("exp.run_s_max", run_max);
    pass.extra.set("exp.pool_efficiency",
                   run_sum / (pool_wall * runner.threads()));
    pass.extra.set("exp.sink_s", sink);
    if (by_spec.count("fig2_low_load"))
        pass.extra.set("fig2_paper_err", fig2PaperError(by_spec));
    return pass;
}

/** Construction cost of every run of the workload, `reps` times. */
std::vector<double>
setupSamples(const std::vector<exp::RunPoint> &points, int reps)
{
    std::vector<double> out;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (const auto &p : points)
            ClosedLoopSystem sys(p.cfg, p.fc, p.workload, p.maxCycles);
        out.push_back(seconds(t0, Clock::now()));
    }
    return out;
}

/** Construct (timed), then run() (timed); adds to `pass`. */
JsonValue
directRun(const Workload &w, const exp::RunPoint &p, Pass &pass)
{
    auto s0 = Clock::now();
    ClosedLoopSystem sys(p.cfg, p.fc, p.workload, p.maxCycles);
    pass.setup.push_back(seconds(s0, Clock::now()));

    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    std::string error;
    ClosedLoopResult res;
    try {
        res = sys.run();
    } catch (const Error &e) {
        error = e.what();
    }
    pass.wall += seconds(t0, Clock::now());
    pass.cpu += cpuSeconds() - cpu0;
    Cycle end = sys.network().now();
    pass.simCycles += static_cast<double>(end);
    if (error.empty())
        error = burstError(w, end);
    return runRecord(error.empty() ? resultDigest(outcomeOf(res)) : "",
                     endDigest(sys.network()), end, error);
}

/** Untraced kernel pass. Extra constructions before each run give
 *  setup_s more samples per pass. */
Pass
directPass(const Workload &w, int setup_reps)
{
    Pass pass;
    for (const auto &p : allPoints(w)) {
        std::vector<double> extra = setupSamples({p}, setup_reps - 1);
        pass.setup.insert(pass.setup.end(), extra.begin(), extra.end());
        pass.runs.push(directRun(w, p, pass));
    }
    return pass;
}

/** Reference digests: every run through ClosedLoopSystem::run(), on
 *  the workload's pool. Timings are discarded. */
Pass
referencePass(const Workload &w)
{
    std::vector<exp::RunPoint> points = allPoints(w);
    std::vector<Pass> scratch(w.threads);
    std::vector<JsonValue> records(points.size());
    forEachParallel(static_cast<int>(points.size()), w.threads,
                    [&](int i, int tid) {
                        records[i] = directRun(w, points[i], scratch[tid]);
                    });
    Pass pass;
    for (auto &r : records)
        pass.runs.push(std::move(r));
    return pass;
}

/** One traced pass: each grid's runs driven by tracedRun() on the
 *  pool, grid after grid as runnerPass() runs them. Its spans are
 *  appended to `spans` unless that is null. */
Pass
tracedPass(const Workload &w, std::vector<Span> *spans)
{
    std::vector<Layers> per_worker(w.threads);
    std::vector<JsonValue> records;

    Pass pass;
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    for (const auto &spec : w.grids) {
        std::vector<exp::RunPoint> points = spec.expand();
        std::vector<JsonValue> grid(points.size());
        forEachParallel(
            static_cast<int>(points.size()), w.threads,
            [&](int i, int tid) {
                try {
                    grid[i] = tracedRun(w, points[i], tid + 1,
                                        per_worker[tid]);
                } catch (const Error &e) {
                    grid[i] = runRecord("", "", 0, e.what());
                }
            });
        records.insert(records.end(), grid.begin(), grid.end());
    }
    auto t1 = Clock::now();
    pass.wall = seconds(t0, t1);
    pass.cpu = cpuSeconds() - cpu0;

    Layers lt;
    for (auto &l : per_worker)
        lt.merge(std::move(l));
    for (auto &r : records)
        pass.runs.push(std::move(r));
    if (spans) {
        spans->push_back({"grid", micros(t0), seconds(t0, t1) * 1e6, 0, -1});
        spans->insert(spans->end(), lt.spans.begin(), lt.spans.end());
    }

    double hops = static_cast<double>(lt.router.flitsRouted);
    double serial = lt.coreTick + lt.l2Tick + lt.completionScan;
    const RouterStats &r = lt.router;
    std::uint64_t mode_cycles =
        r.cyclesBackpressured + r.cyclesBackpressureless;
    JsonValue &x = pass.extra;
    x.set("network.step_s", lt.step);
    x.set("network.step_us_p50", percentile(lt.stepUs, 0.50));
    x.set("network.step_us_p99", percentile(lt.stepUs, 0.99));
    x.set("network.step_samples",
          static_cast<std::uint64_t>(lt.stepUs.size()));
    x.set("network.ns_per_flit_hop", hops > 0 ? lt.step * 1e9 / hops : 0.0);
    x.set("network.ns_per_router_cycle",
          lt.routerCycles ? lt.step * 1e9 / lt.routerCycles : 0.0);
    x.set("router.flit_hops", r.flitsRouted);
    x.set("router.deflections", r.flitsDeflected);
    x.set("router.credit_stalls", r.creditStalls);
    x.set("router.bp_fraction",
          mode_cycles ? static_cast<double>(r.cyclesBackpressured) /
                            mode_cycles
                      : 0.0);
    x.set("router.mode_switches",
          r.forwardSwitches + r.reverseSwitches + r.gossipSwitches);
    x.set("sim.core_tick_s", lt.coreTick);
    x.set("sim.l2_tick_s", lt.l2Tick);
    x.set("sim.completion_scan_s", lt.completionScan);
    x.set("sim.serial_share", lt.cycle > 0 ? serial / lt.cycle : 0.0);
    x.set("sim.transactions", lt.transactions);
    x.set("sim.mshr_stall_cycles", lt.mshrStalls);
    x.set("sim.tx_latency_cycles",
          lt.transactions ? lt.txLatencySum / lt.transactions : 0.0);
    x.set("energy.pj_per_flit",
          lt.flitsDelivered ? lt.energy / lt.flitsDelivered : 0.0);
    return pass;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        AFCSIM_CONFIG_ERROR("cannot write trace file '", path, "'");
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f",
                     s.name, s.tid, s.ts, s.dur);
        if (s.run >= 0)
            std::fprintf(f, ",\"args\":{\"run\":%d}", s.run);
        std::fputs(i + 1 < spans.size() ? "},\n" : "}\n", f);
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0)
        AFCSIM_CONFIG_ERROR("cannot write trace file '", path, "'");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    bool reference = false;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--reference") {
            a.reference = true;
            continue;
        }
        if (i + 1 >= argc)
            AFCSIM_CONFIG_ERROR("option ", k, " needs a value");
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            AFCSIM_CONFIG_ERROR("unknown option ", k);
    }
    if (a.workload.empty())
        AFCSIM_CONFIG_ERROR("--workload is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        Workload w = makeWorkload(args.workload, args.seed);

        JsonValue passes = JsonValue::array();
        JsonValue traced = JsonValue::array();
        std::vector<Span> spans;
        auto start = Clock::now();
        auto elapsed = [&] { return seconds(start, Clock::now()); };

        if (args.reference) {
            passes.push(referencePass(w).json());
        } else if (!args.trace) {
            std::vector<exp::RunPoint> points = allPoints(w);
            auto pass = [&] {
                if (!w.viaRunner)
                    return directPass(w, 2);
                std::vector<double> setup = setupSamples(points, 20);
                Pass p = runnerPass(w);
                p.setup = setup;
                return p;
            };
            // One untimed warm-up pass first (page faults, caches,
            // allocator), then at least three timed ones, so every
            // median has a middle.
            pass();
            start = Clock::now();
            while (passes.size() < 3 || elapsed() < args.seconds)
                passes.push(pass().json());
        } else {
            while (traced.size() < 2 || elapsed() < args.seconds) {
                passes.push(runnerPass(w).json());
                // Spans of the first traced pass only: one pass of
                // fig2_grid already writes tens of thousands.
                traced.push(
                    tracedPass(w, traced.size() ? nullptr : &spans).json());
            }
        }

        JsonValue doc = JsonValue::object();
        doc.set("params", paramsJson(w, args.seed));
        doc.set("build_type", AFCBENCH_BUILD_TYPE);
        doc.set("compiler", AFCBENCH_COMPILER);
        doc.set("hw_threads", static_cast<std::int64_t>(
                                  std::thread::hardware_concurrency()));
        doc.set("passes", std::move(passes));
        doc.set("traced_passes", std::move(traced));
        doc.set("peak_rss_mb", peakRssMb());
        if (!args.traceOut.empty() && !spans.empty())
            writeChromeTrace(args.traceOut, spans);
        std::printf("%s\n", doc.dump().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "afcbench: %s\n", e.what());
        return 1;
    }
}

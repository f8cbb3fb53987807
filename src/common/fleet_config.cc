#include "common/fleet_config.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace turbofuzz
{

namespace
{

/** SplitMix64 finalizer: decorrelates shard streams whose raw seeds
 *  differ only in a few bits. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
FleetConfig::shardSeed(unsigned shard_idx) const
{
    // Shard 0 runs the exact campaign a standalone run would: the
    // fleet determinism tests (and any replay of a fleet-found
    // mismatch on a single board) depend on this identity.
    if (shard_idx == 0)
        return fleetSeed;
    return mix64(fleetSeed ^ (hashLabel("fleet-shard") +
                              0x9e3779b97f4a7c15ull * shard_idx));
}

unsigned
FleetConfig::epochCount() const
{
    TF_ASSERT(epochSec > 0.0 && budgetSec > 0.0,
              "fleet epoch/budget must be positive");
    return static_cast<unsigned>(
        std::ceil(budgetSec / epochSec - 1e-9));
}

double
FleetConfig::epochDeadline(unsigned epoch_idx) const
{
    return std::min(budgetSec,
                    epochSec * static_cast<double>(epoch_idx + 1));
}

FleetConfig
FleetConfig::fromConfig(const Config &cfg)
{
    FleetConfig fc;
    fc.fleetSeed =
        static_cast<uint64_t>(cfg.getInt("fleet-seed", 1));

    const int64_t shards = cfg.getInt("shards", 4);
    if (shards < 1)
        fatal("fleet needs at least one shard (got %lld)",
              static_cast<long long>(shards));
    fc.shardCount = static_cast<unsigned>(shards);

    fc.epochSec = cfg.getDouble("epoch", 5.0);
    fc.budgetSec = cfg.getDouble("budget", 60.0);
    if (fc.epochSec <= 0.0 || fc.budgetSec <= 0.0)
        fatal("fleet epoch and budget must be positive");

    const int64_t top_k = cfg.getInt("top-k", 4);
    if (top_k < 0)
        fatal("top-k must be >= 0 (got %lld)",
              static_cast<long long>(top_k));
    fc.exchangeTopK = static_cast<size_t>(top_k);

    fc.syncCostSec = cfg.getDouble("sync-cost", 0.0);
    if (fc.syncCostSec < 0.0)
        fatal("sync-cost must be >= 0");

    const int64_t threads = cfg.getInt("threads", 0);
    if (threads < 0)
        fatal("threads must be >= 0 (got %lld)",
              static_cast<long long>(threads));
    fc.workerThreads = static_cast<unsigned>(threads);

    fc.triageEnabled = cfg.getBool("triage", true);
    const int64_t triage_replays =
        cfg.getInt("triage-replays", 128);
    if (triage_replays < 0 || triage_replays > UINT32_MAX)
        fatal("triage-replays out of range (got %lld)",
              static_cast<long long>(triage_replays));
    fc.triageReplayBudget = static_cast<uint32_t>(triage_replays);

    const int64_t max_repros = cfg.getInt("max-reproducers", 8);
    if (max_repros < 0 || max_repros > UINT32_MAX)
        fatal("max-reproducers out of range (got %lld)",
              static_cast<long long>(max_repros));
    fc.maxReproducersPerShard = static_cast<uint32_t>(max_repros);

    const std::string topo = cfg.getString("topology", "ring");
    if (topo == "none")
        fc.topology = ExchangeTopology::None;
    else if (topo == "ring")
        fc.topology = ExchangeTopology::Ring;
    else if (topo == "broadcast")
        fc.topology = ExchangeTopology::Broadcast;
    else
        fatal("unknown fleet topology '%s'", topo.c_str());

    const int64_t ckpt_every = cfg.getInt("checkpoint-every", 0);
    if (ckpt_every < 0 || ckpt_every > UINT32_MAX)
        fatal("checkpoint-every out of range (got %lld)",
              static_cast<long long>(ckpt_every));
    fc.checkpointEveryEpochs = static_cast<uint32_t>(ckpt_every);
    fc.checkpointPath = cfg.getString("checkpoint-path", "");
    if (fc.checkpointEveryEpochs > 0 && fc.checkpointPath.empty())
        fatal("checkpoint-every requires checkpoint-path");

    const std::string model = cfg.getString("coverage-model", "mux");
    if (!coverage::coverageModelFromString(model, &fc.coverageModel))
        fatal("unknown coverage model '%s' (expected mux | csr | "
              "edges | composite)",
              model.c_str());

    const std::string sched = cfg.getString("scheduler", "static");
    if (!fuzzer::schedulerKindFromString(sched, &fc.scheduler))
        fatal("unknown scheduler '%s' (expected static | bandit)",
              sched.c_str());

    const int64_t halt_after = cfg.getInt("halt-after", 0);
    if (halt_after < 0 || halt_after > UINT32_MAX)
        fatal("halt-after out of range (got %lld)",
              static_cast<long long>(halt_after));
    fc.haltAfterEpochs = static_cast<uint32_t>(halt_after);

    fc.statsFile = cfg.getString("stats-file", "");
    fc.statsEverySec = cfg.getDouble("stats-every", 0.0);
    if (fc.statsEverySec < 0.0)
        fatal("stats-every must be >= 0");
    if (fc.statsEverySec > 0.0 && fc.statsFile.empty())
        fatal("stats-every requires stats-file");

    fc.traceOut = cfg.getString("trace-out", "");
    const int64_t trace_sample = cfg.getInt("trace-sample", 1);
    if (trace_sample < 1)
        fatal("trace-sample must be >= 1 (got %lld)",
              static_cast<long long>(trace_sample));
    fc.traceSampleEvery = static_cast<uint64_t>(trace_sample);
    // Tracing without per-stage counters would make the capture much
    // less useful (spans but no totals), so trace-out implies timing.
    fc.stageTiming =
        cfg.getBool("stage-timing", false) || !fc.traceOut.empty();

    // A provenance report without the recording layer would always be
    // empty, so provenance-out implies provenance.
    fc.provenanceOut = cfg.getString("provenance-out", "");
    fc.provenance =
        cfg.getBool("provenance", false) || !fc.provenanceOut.empty();

    return fc;
}

} // namespace turbofuzz

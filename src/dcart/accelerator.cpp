#include "dcart/accelerator.h"

#include <algorithm>

#include "dcart/sou.h"
#include "obs/trace.h"
#include "simhw/conflict_model.h"
#include "simhw/hbm_model.h"
#include "simhw/node_buffer.h"

namespace dcart::accel {

namespace {

// Virtual trace tracks for the simulated timeline: the PCU gets one, each
// SOU its own ("pcu", "sou-0".."sou-N" in the exported JSON).
constexpr std::uint32_t kPcuTrack = obs::Tracer::kFirstVirtualTrack;
constexpr std::uint32_t SouTrack(std::size_t sou) {
  return kPcuTrack + 1 + static_cast<std::uint32_t>(sou);
}

}  // namespace

DcartEngine::DcartEngine(DcartConfig config, simhw::FpgaModel model)
    : config_(config), model_(model) {}

void DcartEngine::Load(const std::vector<std::pair<Key, art::Value>>& items) {
  for (const auto& [key, value] : items) {
    tree_.Insert(key, value);
  }
}

std::optional<art::Value> DcartEngine::Lookup(KeyView key) const {
  return tree_.Get(key);
}

ExecutionResult DcartEngine::Run(std::span<const Operation> ops,
                                 const RunConfig& run_config) {
  ExecutionResult result;
  result.platform = "fpga";

  simhw::NodeBuffer tree_buffer(model_.tree_buffer_bytes,
                                config_.tree_buffer_policy);
  simhw::NodeBuffer shortcut_buffer(model_.shortcut_buffer_bytes,
                                    simhw::EvictionPolicy::kLRU);
  simhw::HbmModel hbm(model_.hbm_channels, model_.cycles_hbm_access,
                      model_.cycles_per_burst, model_.hbm_burst_bytes);
  // After coalescing, the units in flight are key-groups.  The window spans
  // the groups of roughly two batches: with the PCU/SOU pipeline of Fig. 6,
  // batch i+1's groups arrive while batch i's are still being triggered, so
  // a hot node's group in consecutive batches still synchronizes — the
  // residual contention the paper reports (3.2-19.7 % of the baselines').
  simhw::ConflictModel conflicts(run_config.inflight_ops,
                                 simhw::SyncProtocol::kCoalesced);
  shortcut_table_.clear();
  const ctt::Context ctt{tree_,
                         config_.use_shortcuts ? &shortcut_table_ : nullptr,
                         conflicts, result.stats, result.reads_hit};
  Sou sou(model_, tree_buffer, shortcut_buffer, hbm, result.stats);
  const SouCycleBreakdown& breakdown = sou.breakdown();

  LatencyHistogram* latency =
      run_config.collect_latency ? &result.latency_ns : nullptr;

  const std::size_t batch_size =
      std::max<std::size_t>(1, run_config.batch_size);
  const bool overlap_pcu_sou = config_.overlap_pcu_sou;
  const std::size_t sous = std::max<std::size_t>(1, config_.num_sous);
  const std::size_t buckets_n = config_.num_buckets();
  const double hbm_bytes_per_cycle =
      static_cast<double>(model_.hbm_channels * model_.hbm_burst_bytes) /
      model_.cycles_per_burst;

  // Two-stage pipeline accounting (Fig. 6): PCU(i+1) overlaps SOU(i).
  double pcu_done = 0.0;
  double sou_done = 0.0;
  double total_pcu_cycles = 0.0;

  // Simulated-cycle tracing: spans live on virtual tracks in *modeled* time
  // (cycles converted at the model frequency), so the exported timeline
  // shows the pipeline the model computed, not host wall-clock.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool tracing = tracer.enabled();
  const double us_per_cycle = 1e6 / model_.frequency_hz;
  // Per-batch bucket spans, held until the pipeline timing below fixes the
  // batch's SOU-stage start time.
  struct BucketSpan {
    std::size_t sou;
    double cycles;
    double trigger_cycles;
    std::uint64_t ops;
  };
  std::vector<BucketSpan> bucket_spans;
  if (tracing) {
    tracer.SetTrackName(kPcuTrack, "pcu");
    for (std::size_t s = 0; s < sous; ++s) {
      tracer.SetTrackName(SouTrack(s), "sou-" + std::to_string(s));
    }
  }

  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::size_t n = end - begin;

    // ------------------------------------------------------------- PCU ---
    // Scan_Operation / Get_Prefix / Combine_Operation: one op per cycle,
    // plus streaming the operation records in from HBM through Scan_buffer.
    const std::size_t offset = ctt::PrefixOffset(tree_);
    std::vector<std::vector<std::uint32_t>> buckets(buckets_n);
    for (std::size_t i = begin; i < end; ++i) {
      buckets[ctt::BucketOf(ops[i].key, offset, config_.prefix_bits,
                            buckets_n)]
          .push_back(static_cast<std::uint32_t>(i));
    }
    constexpr std::size_t kOpRecordBytes = 24;
    const double stream_cycles =
        static_cast<double>(n * kOpRecordBytes) / hbm_bytes_per_cycle;
    const double pcu_cycles =
        static_cast<double>(n) * model_.pcu_cycles_per_op + stream_cycles;

    // ------------------------------------------------- Dispatcher + SOUs --
    // Bucket b is dispatched to SOU (b mod num_sous); a SOU's time is the
    // sum of its buckets, the batch's SOU stage is the slowest SOU.  Each
    // SOU sees its own channel timeline (they run concurrently, not queued
    // behind one another); the aggregate bandwidth bound is applied to the
    // whole batch below.
    std::vector<double> sou_cycles(sous, 0.0);
    const std::uint64_t batch_bytes_before = hbm.total_bytes();
    for (std::size_t b = 0; b < buckets_n; ++b) {
      if (buckets[b].empty()) continue;
      const double trigger_before = breakdown.trigger + breakdown.contention;
      ctt::ExecuteBucket(ctt, ops, buckets[b], sou);
      sou_cycles[b % sou_cycles.size()] += sou.cycles();
      if (tracing) {
        bucket_spans.push_back(
            {b % sou_cycles.size(), sou.cycles(),
             breakdown.trigger + breakdown.contention - trigger_before,
             static_cast<std::uint64_t>(buckets[b].size())});
      }
    }
    const double bandwidth_cycles =
        static_cast<double>(hbm.total_bytes() - batch_bytes_before) /
        hbm_bytes_per_cycle;
    // The SOU stage ends when the slowest unit finishes; a batch that moves
    // more bytes than the channels can stream is bandwidth-bound instead.
    const double slowest =
        *std::max_element(sou_cycles.begin(), sou_cycles.end());
    const double sou_stage = std::max(slowest, bandwidth_cycles);
    total_pcu_cycles += pcu_cycles;

    // -------------------------------------------------- pipeline timing ---
    // With overlap the PCU is free once it finished the previous batch;
    // without, it also waits for the SOUs.  The SOUs start when both the
    // batch is combined and they are free.
    const double pcu_start_cycle =
        overlap_pcu_sou ? pcu_done : std::max(pcu_done, sou_done);
    pcu_done = pcu_start_cycle + pcu_cycles;
    const double sou_start_cycle = std::max(pcu_done, sou_done);
    sou_done = sou_start_cycle + sou_stage;

    if (tracing) {
      tracer.RecordSpanOnTrack(kPcuTrack, "combine", "combine",
                               pcu_start_cycle * us_per_cycle,
                               pcu_cycles * us_per_cycle, "ops",
                               static_cast<std::uint64_t>(n));
      // Each SOU runs its buckets back to back from the stage start; a
      // bucket's span splits into traverse (probe/descend/match) and
      // trigger (apply + residual synchronization) from the SOU cycle
      // breakdown deltas recorded above.
      std::vector<double> sou_cursor(sou_cycles.size(), sou_start_cycle);
      for (const BucketSpan& bs : bucket_spans) {
        const double traverse_cycles = bs.cycles - bs.trigger_cycles;
        tracer.RecordSpanOnTrack(SouTrack(bs.sou), "traverse", "traverse",
                                 sou_cursor[bs.sou] * us_per_cycle,
                                 traverse_cycles * us_per_cycle, "ops",
                                 bs.ops);
        tracer.RecordSpanOnTrack(
            SouTrack(bs.sou), "trigger", "trigger",
            (sou_cursor[bs.sou] + traverse_cycles) * us_per_cycle,
            bs.trigger_cycles * us_per_cycle);
        sou_cursor[bs.sou] += bs.cycles;
      }
      bucket_spans.clear();
    }

    if (latency != nullptr) {
      // An operation's modeled latency is its batch residence time:
      // combining + waiting for the SOU stage + processing.
      const double arrival =
          overlap_pcu_sou ? pcu_done - pcu_cycles : pcu_done;
      const double ns = (sou_done - arrival) / model_.frequency_hz * 1e9;
      latency->RecordMany(static_cast<std::uint64_t>(ns), n);
    }
  }

  const double total_cycles = std::max(pcu_done, sou_done);
  result.seconds = total_cycles / model_.frequency_hz;
  result.energy_joules = result.seconds * model_.power_watts;
  result.phase_breakdown.combine_seconds =
      total_pcu_cycles / model_.frequency_hz;
  result.phase_breakdown.traverse_seconds =
      (breakdown.shortcut_probe + breakdown.buffer_hits +
       breakdown.hbm_stalls + breakdown.matching) /
      model_.frequency_hz;
  result.phase_breakdown.trigger_seconds =
      (breakdown.trigger + breakdown.contention) / model_.frequency_hz;

  buffer_report_.tree_buffer_hit_rate = tree_buffer.HitRate();
  buffer_report_.tree_buffer_bypasses = tree_buffer.bypasses();

  tree_buffer.PublishMetrics("dcart.tree_buffer");
  shortcut_buffer.PublishMetrics("dcart.shortcut_buffer");
  hbm.PublishMetrics("dcart.hbm");
  return result;
}

}  // namespace dcart::accel

#include "dcart/accelerator.h"

#include <algorithm>

#include "obs/trace.h"
#include "simhw/conflict_model.h"

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

  std::unordered_map<std::uintptr_t, std::uint64_t> node_values;
  SouCycleBreakdown breakdown;

  SouShared shared;
  shared.tree = &tree_;
  shared.node_values = &node_values;
  shared.breakdown = &breakdown;
  shared.tree_buffer = &tree_buffer;
  shared.shortcut_buffer = &shortcut_buffer;
  shared.hbm = &hbm;
  shared.conflicts = &conflicts;
  shared.shortcut_table = &shortcut_table_;
  shared.model = &model_;
  shared.config = &config_;
  shared.stats = &result.stats;
  shared.reads_hit = &result.reads_hit;

  LatencyHistogram* latency =
      run_config.collect_latency ? &result.latency_ns : nullptr;

  const std::size_t batch_size =
      std::max<std::size_t>(1, run_config.batch_size);
  const bool overlap_pcu_sou = config_.overlap_pcu_sou;
  const std::size_t buckets_n = std::max<std::size_t>(1, config_.num_buckets);
  const unsigned prefix_shift =
      config_.prefix_bits >= 8 ? 0 : (8 - config_.prefix_bits);

  // Two-stage pipeline accounting (Fig. 6): PCU(i+1) overlaps SOU(i).
  double pcu_done = 0.0;
  double sou_done = 0.0;
  double total_pcu_cycles = 0.0;
  double total_sou_cycles = 0.0;
  double imbalance_sum = 0.0;
  std::size_t batches = 0;

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
    for (std::size_t s = 0; s < std::max<std::size_t>(1, config_.num_sous);
         ++s) {
      tracer.SetTrackName(SouTrack(s), "sou-" + std::to_string(s));
    }
  }

  for (std::size_t begin = 0; begin < ops.size(); begin += batch_size) {
    const std::size_t end = std::min(ops.size(), begin + batch_size);
    const std::size_t n = end - begin;

    // ------------------------------------------------------------- PCU ---
    // Scan_Operation / Get_Prefix / Combine_Operation: one op per cycle,
    // plus streaming the operation records in from HBM through Scan_buffer.
    // The prefix starts at the first discriminating key byte — the byte the
    // root branches on — so keys with a long common head (dense integers)
    // still spread across buckets.  In hardware this offset is a register
    // the host sets from the root's compressed-path length.
    std::size_t prefix_offset = 0;
    if (tree_.root().IsNode()) {
      prefix_offset = tree_.root().AsNode()->prefix_len;
    }
    std::vector<std::vector<std::uint32_t>> buckets(buckets_n);
    for (std::size_t i = begin; i < end; ++i) {
      const Key& key = ops[i].key;
      unsigned prefix =
          prefix_offset < key.size() ? key[prefix_offset] : 0;
      if (config_.prefix_bits < 8) {
        prefix >>= prefix_shift;
        prefix <<= prefix_shift;  // coarser combining
      } else if (config_.prefix_bits > 8 &&
                 prefix_offset + 1 < key.size()) {
        prefix = (prefix << (config_.prefix_bits - 8)) |
                 (key[prefix_offset + 1] >> (16 - config_.prefix_bits));
      }
      const std::size_t b =
          (static_cast<std::size_t>(prefix) * buckets_n) >>
          std::min<unsigned>(config_.prefix_bits, 16);
      buckets[std::min(b, buckets_n - 1)].push_back(
          static_cast<std::uint32_t>(i));
    }
    constexpr std::size_t kOpRecordBytes = 24;
    const double stream_cycles =
        static_cast<double>(n * kOpRecordBytes) /
        (static_cast<double>(model_.hbm_channels * model_.hbm_burst_bytes) /
         model_.cycles_per_burst);
    const double pcu_cycles =
        static_cast<double>(n) * model_.pcu_cycles_per_op + stream_cycles;

    // ------------------------------------------------- Dispatcher + SOUs --
    // Bucket b is dispatched to SOU (b mod num_sous); a SOU's time is the
    // sum of its buckets, the batch's SOU stage is the slowest SOU.  Each
    // SOU sees its own channel timeline (they run concurrently, not queued
    // behind one another); the aggregate bandwidth bound is applied to the
    // whole batch below.
    std::vector<double> sou_cycles(std::max<std::size_t>(1, config_.num_sous),
                                   0.0);
    const std::uint64_t batch_bytes_before = hbm.total_bytes();
    for (std::size_t b = 0; b < buckets_n; ++b) {
      if (buckets[b].empty()) continue;
      hbm.ResetChannels();
      Sou sou(shared);
      const double trigger_before = breakdown.trigger + breakdown.contention;
      const double bucket_cycles = sou.ProcessBucket(ops, buckets[b]);
      sou_cycles[b % sou_cycles.size()] += bucket_cycles;
      if (tracing) {
        bucket_spans.push_back(
            {b % sou_cycles.size(), bucket_cycles,
             breakdown.trigger + breakdown.contention - trigger_before,
             static_cast<std::uint64_t>(buckets[b].size())});
      }
    }
    const double bytes_per_cycle =
        static_cast<double>(model_.hbm_channels * model_.hbm_burst_bytes) /
        model_.cycles_per_burst;
    const double bandwidth_cycles =
        static_cast<double>(hbm.total_bytes() - batch_bytes_before) /
        bytes_per_cycle;
    // The SOU stage ends when the slowest unit finishes; a batch that moves
    // more bytes than the channels can stream is bandwidth-bound instead.
    const double slowest =
        *std::max_element(sou_cycles.begin(), sou_cycles.end());
    const double sou_stage = std::max(slowest, bandwidth_cycles);
    double sou_sum = 0.0;
    for (double c : sou_cycles) sou_sum += c;
    if (sou_sum > 0.0) {
      imbalance_sum +=
          slowest / (sou_sum / static_cast<double>(sou_cycles.size()));
    }
    total_pcu_cycles += pcu_cycles;
    total_sou_cycles += sou_stage;
    ++batches;

    // -------------------------------------------------- pipeline timing ---
    double batch_complete;
    double pcu_start_cycle;
    double sou_start_cycle;
    if (overlap_pcu_sou) {
      pcu_start_cycle = pcu_done;  // PCU is free after previous batch
      pcu_done = pcu_start_cycle + pcu_cycles;
      sou_start_cycle = std::max(pcu_done, sou_done);
      sou_done = sou_start_cycle + sou_stage;
      batch_complete = sou_done;
    } else {
      pcu_start_cycle = std::max(pcu_done, sou_done);
      pcu_done = pcu_start_cycle + pcu_cycles;
      sou_start_cycle = pcu_done;
      sou_done = sou_start_cycle + sou_stage;
      batch_complete = sou_done;
    }

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
      const double ns =
          (batch_complete - arrival) / model_.frequency_hz * 1e9;
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
  buffer_report_.shortcut_buffer_hit_rate = shortcut_buffer.HitRate();
  buffer_report_.tree_buffer_evictions = tree_buffer.evictions();
  buffer_report_.tree_buffer_bypasses = tree_buffer.bypasses();
  buffer_report_.total_pcu_cycles = total_pcu_cycles;
  buffer_report_.total_sou_cycles = total_sou_cycles;
  buffer_report_.mean_sou_imbalance =
      batches ? imbalance_sum / static_cast<double>(batches) : 0.0;
  buffer_report_.sou_breakdown = breakdown;

  tree_buffer.PublishMetrics("dcart.tree_buffer");
  shortcut_buffer.PublishMetrics("dcart.shortcut_buffer");
  hbm.PublishMetrics("dcart.hbm");
  return result;
}

}  // namespace dcart::accel

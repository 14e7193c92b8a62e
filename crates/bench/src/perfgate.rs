//! Perf-regression gate for the `stream_online` acceptance bench.
//!
//! CI compares every run against a committed baseline
//! (`BENCH_stream.json` at the workspace root). Raw wall-clock is useless
//! across heterogeneous runners, so the gated metric is the run's
//! **normalized wall-clock**: incremental maintenance time divided by the
//! from-scratch GD time *measured in the same process on the same
//! machine* (the reciprocal of the bench's headline speedup). A >30%
//! regression of that ratio — the incremental path getting slower relative
//! to the hardware's own scratch solve — fails the gate, as does any ε
//! violation or a collapse in edge locality (quality regressions are not
//! an acceptable way to buy speed).
//!
//! The JSON schema is deliberately flat (string/number/bool scalars plus
//! one per-batch array of number-maps) so this crate can read it back with
//! the tiny parser below instead of a vendored serde.

use std::fmt::Write as _;

/// Per-batch measurements emitted by `stream_online --json-out`.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPerf {
    pub batch: usize,
    /// Incremental ingest wall-clock for this batch, milliseconds.
    pub inc_ms: f64,
    /// From-scratch GD wall-clock for the same post-batch graph, ms.
    pub scratch_ms: f64,
    /// Cut edges of the incremental partition after the batch.
    pub cut_edges: usize,
    /// Post-batch max imbalance of the incremental partition.
    pub imbalance: f64,
    /// Post-batch edge locality of the incremental partition.
    pub locality: f64,
}

/// v4: latency/convergence quantiles sourced from the run's metrics
/// registry. Totals catch "a stage got slower on average"; quantiles
/// catch tail blowups (one pathological batch, a GD pair that stopped
/// converging) that average away inside the totals. All fields are
/// milliseconds except the refine-iteration pair, which counts GD
/// iterations per pair solve.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PerfQuantiles {
    /// Median GD iterations per pair solve.
    pub refine_iters_p50: f64,
    /// p99 GD iterations per pair solve — the convergence-tail gate
    /// input: a pair that stops converging shows up here long before it
    /// moves the wall-clock totals.
    pub refine_iters_p99: f64,
    pub validate_p99_ms: f64,
    pub split_p99_ms: f64,
    pub place_p99_ms: f64,
    pub repair_p99_ms: f64,
    pub commit_p99_ms: f64,
    pub refine_p99_ms: f64,
}

/// Floor (milliseconds) below which a scratch leg cannot anchor the
/// normalized wall-clock: the record serializes at millisecond precision,
/// so a sub-floor denominator is mostly rounding noise — and a runner fast
/// enough to get there turns the ratio into `inf`/NaN garbage that poisons
/// every later `--check-against`. [`check_regression`] rejects such
/// records with a named error instead of gating on the poisoned ratio.
pub const MIN_SCRATCH_MS: f64 = 0.5;

/// One `stream_online` run: the summary the gate compares plus the
/// per-batch breakdown for forensics.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRecord {
    /// Worker threads the run used.
    pub threads: usize,
    /// Churn fraction of the run (0.0 = add-only; removals per batch are
    /// generated as this fraction of arrivals/extra edges). Gated like the
    /// thread count: a baseline recorded at a different churn measures a
    /// different workload.
    pub churn: f64,
    /// Total incremental wall-clock across batches, ms.
    pub inc_total_ms: f64,
    /// Total from-scratch wall-clock across batches, ms.
    pub scratch_total_ms: f64,
    /// Headline speedup `scratch_total_ms / inc_total_ms`.
    pub speedup: f64,
    /// Whether every batch ended within ε.
    pub eps_ok: bool,
    /// Edge locality after the final batch.
    pub final_locality: f64,
    /// Max imbalance after the final batch.
    pub final_imbalance: f64,
    /// Ingest wall-clock per pipeline stage, summed across batches
    /// (milliseconds; 0 on records predating the staged pipeline). The
    /// split lets a regression localize — "placement got slower" reads
    /// directly off the record instead of hiding inside `inc_total_ms`.
    pub validate_total_ms: f64,
    pub split_total_ms: f64,
    pub place_total_ms: f64,
    pub repair_total_ms: f64,
    pub commit_total_ms: f64,
    pub refine_total_ms: f64,
    /// Speculative placements evicted by conflict repair across the run
    /// (`None` on records predating the staged pipeline).
    pub placement_conflicts: Option<usize>,
    /// Conflict-repair passes across the run (`None` on legacy records).
    pub repair_passes: Option<usize>,
    /// Rebalance full-membership rescans across the run (`None` on legacy
    /// records). Deterministic for a fixed workload, so the gate fails a
    /// run whose count *increased* over the baseline — the committed
    /// number pins the composite-relief-key heap's candidate quality.
    pub rebalance_full_scans: Option<usize>,
    /// v3: total wall-clock spent in `save_snapshot` across the run's
    /// kill-and-resume cycles (0 on records predating snapshots or runs
    /// without `--snapshot-every`).
    pub snapshot_save_total_ms: f64,
    /// v3: total wall-clock spent in `restore` across the run's
    /// kill-and-resume cycles.
    pub snapshot_restore_total_ms: f64,
    /// v3: number of kill-and-resume cycles the run performed (`None` on
    /// legacy records and snapshot-free runs).
    pub snapshots: Option<usize>,
    /// v4: per-stage latency and GD-convergence quantiles from the run's
    /// metrics registry (`None` on v2/v3 baselines, which keep parsing —
    /// the quantile gate simply stays off against them).
    pub quantiles: Option<PerfQuantiles>,
    /// v5: full `A·z` mat-vec evaluations across every warm-started
    /// pair solve (`core.gd.grad_full_recomputes`; `None` on pre-v5
    /// baselines). Informational: deterministic for a fixed workload, so a
    /// reviewer can read the delta-path engagement straight off a
    /// baseline diff — `full / (full + delta)` is the fraction of gradient
    /// evaluations that still paid the full O(m) sweep.
    pub gd_full_recomputes: Option<usize>,
    /// v5: gradient evaluations served by the sparse diff sweep
    /// (`core.gd.grad_delta_iters`; `None` on pre-v5 baselines).
    pub gd_delta_iters: Option<usize>,
    /// v6: aggregate lookup throughput of the `stream_serve` reader
    /// threads, lookups per second across the whole run (`None` on
    /// pre-v6 baselines and on legs without a serving side, i.e. every
    /// `stream_online` record). Informational — throughput divides by
    /// reader count and machine speed, so the gate reads the normalized
    /// p99 instead.
    pub lookups_per_sec: Option<f64>,
    /// v6: p99 lookup latency on the published-view read path,
    /// microseconds (`None` on pre-v6 baselines). Gated
    /// machine-normalized against the same-machine scratch solve, and
    /// only when **both** records carry the field — a `stream_online`
    /// baseline never engages the lookup gate.
    pub lookup_p99_us: Option<f64>,
    /// v7: deferred-flush ranges the split stage fanned out across the run
    /// (`stream.split.parallel_ranges`; `None` on pre-v7 baselines).
    /// Informational and deterministic for a fixed workload — the count
    /// depends on touched-vertex sets, never the thread count.
    pub split_parallel_ranges: Option<usize>,
    /// v7: speculative conflict-repair rounds across the run
    /// (`stream.repair.spec_rounds`; `None` on pre-v7 baselines).
    /// Informational: reads how much of the loser re-placement ran in
    /// concurrent chunks instead of the serial fallback.
    pub repair_spec_rounds: Option<usize>,
    /// v7: wall-clock of the parallel delta-merge compaction (and purge
    /// remap application) across the run, milliseconds
    /// (`stream.compact.parallel_ms`; `None` on pre-v7 baselines).
    /// Informational — machine-dependent, so never gated.
    pub compact_parallel_ms: Option<f64>,
    /// v8: total wall-clock the `stream_replicate` followers spent
    /// replaying the leader's batch log, milliseconds (0 on records
    /// predating replication and on legs without followers). Gated
    /// machine-normalized against the same-machine scratch solve —
    /// replay lag is the failover budget: a follower that replays slower
    /// than the leader ingests can never catch up.
    pub replay_total_ms: f64,
    /// v8: log records replayed across every follower (`None` on pre-v8
    /// baselines). Deterministic for a fixed workload — informational.
    pub replay_batches: Option<usize>,
    /// v8: bytes the leader's batch log occupied across the run,
    /// rotations included (`stream.log.bytes`; `None` on pre-v8
    /// baselines). Deterministic for a fixed workload — a baseline diff
    /// reads wire-format growth straight off this field.
    pub log_bytes: Option<usize>,
    /// v8: log rotations (full-snapshot cutovers) the leader performed
    /// (`stream.log.rotations`; `None` on pre-v8 baselines).
    pub log_rotations: Option<usize>,
    /// v8: follower count of the run (`None` on pre-v8 baselines and on
    /// follower-less legs). Presence keys the v8 block: the replay-lag
    /// gate engages only when **both** records carry it, and mismatched
    /// counts fail like a thread-count mismatch — more followers replay
    /// more batches, so a cross-count comparison gates nothing.
    pub followers: Option<usize>,
    pub batches: Vec<BatchPerf>,
}

impl PerfRecord {
    /// Normalized wall-clock: incremental time per unit of scratch time on
    /// the same machine (lower is better; `1 / speedup`). The denominator
    /// is clamped to [`MIN_SCRATCH_MS`] so a degenerate record can never
    /// produce `inf`/NaN — but [`check_regression`] refuses to gate on a
    /// clamped record at all (see [`MIN_SCRATCH_MS`]).
    pub fn normalized_wallclock(&self) -> f64 {
        self.inc_total_ms / self.scratch_total_ms.max(MIN_SCRATCH_MS)
    }

    /// Serializes to the flat JSON schema (stable key order, 2-space
    /// indent) so baselines diff cleanly in review.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"churn\": {:.3},", self.churn);
        let _ = writeln!(s, "  \"inc_total_ms\": {:.3},", self.inc_total_ms);
        let _ = writeln!(s, "  \"scratch_total_ms\": {:.3},", self.scratch_total_ms);
        let _ = writeln!(s, "  \"speedup\": {:.3},", self.speedup);
        let _ = writeln!(s, "  \"eps_ok\": {},", self.eps_ok);
        let _ = writeln!(s, "  \"final_locality\": {:.4},", self.final_locality);
        let _ = writeln!(s, "  \"final_imbalance\": {:.6},", self.final_imbalance);
        let _ = writeln!(s, "  \"validate_total_ms\": {:.3},", self.validate_total_ms);
        let _ = writeln!(s, "  \"split_total_ms\": {:.3},", self.split_total_ms);
        let _ = writeln!(s, "  \"place_total_ms\": {:.3},", self.place_total_ms);
        let _ = writeln!(s, "  \"repair_total_ms\": {:.3},", self.repair_total_ms);
        let _ = writeln!(s, "  \"commit_total_ms\": {:.3},", self.commit_total_ms);
        let _ = writeln!(s, "  \"refine_total_ms\": {:.3},", self.refine_total_ms);
        if let Some(c) = self.placement_conflicts {
            let _ = writeln!(s, "  \"placement_conflicts\": {c},");
        }
        if let Some(p) = self.repair_passes {
            let _ = writeln!(s, "  \"repair_passes\": {p},");
        }
        if let Some(f) = self.rebalance_full_scans {
            let _ = writeln!(s, "  \"rebalance_full_scans\": {f},");
        }
        if let Some(c) = self.snapshots {
            let _ = writeln!(
                s,
                "  \"snapshot_save_total_ms\": {:.3},",
                self.snapshot_save_total_ms
            );
            let _ = writeln!(
                s,
                "  \"snapshot_restore_total_ms\": {:.3},",
                self.snapshot_restore_total_ms
            );
            let _ = writeln!(s, "  \"snapshots\": {c},");
        }
        if let Some(f) = self.gd_full_recomputes {
            let _ = writeln!(s, "  \"gd_full_recomputes\": {f},");
        }
        if let Some(d) = self.gd_delta_iters {
            let _ = writeln!(s, "  \"gd_delta_iters\": {d},");
        }
        if let Some(l) = self.lookups_per_sec {
            let _ = writeln!(s, "  \"lookups_per_sec\": {l:.0},");
        }
        if let Some(l) = self.lookup_p99_us {
            let _ = writeln!(s, "  \"lookup_p99_us\": {l:.3},");
        }
        if let Some(r) = self.split_parallel_ranges {
            let _ = writeln!(s, "  \"split_parallel_ranges\": {r},");
        }
        if let Some(r) = self.repair_spec_rounds {
            let _ = writeln!(s, "  \"repair_spec_rounds\": {r},");
        }
        if let Some(m) = self.compact_parallel_ms {
            let _ = writeln!(s, "  \"compact_parallel_ms\": {m:.3},");
        }
        if let Some(f) = self.followers {
            let _ = writeln!(s, "  \"replay_total_ms\": {:.3},", self.replay_total_ms);
            if let Some(b) = self.replay_batches {
                let _ = writeln!(s, "  \"replay_batches\": {b},");
            }
            if let Some(b) = self.log_bytes {
                let _ = writeln!(s, "  \"log_bytes\": {b},");
            }
            if let Some(r) = self.log_rotations {
                let _ = writeln!(s, "  \"log_rotations\": {r},");
            }
            let _ = writeln!(s, "  \"followers\": {f},");
        }
        if let Some(q) = &self.quantiles {
            let _ = writeln!(s, "  \"refine_iters_p50\": {:.3},", q.refine_iters_p50);
            let _ = writeln!(s, "  \"refine_iters_p99\": {:.3},", q.refine_iters_p99);
            let _ = writeln!(s, "  \"validate_p99_ms\": {:.3},", q.validate_p99_ms);
            let _ = writeln!(s, "  \"split_p99_ms\": {:.3},", q.split_p99_ms);
            let _ = writeln!(s, "  \"place_p99_ms\": {:.3},", q.place_p99_ms);
            let _ = writeln!(s, "  \"repair_p99_ms\": {:.3},", q.repair_p99_ms);
            let _ = writeln!(s, "  \"commit_p99_ms\": {:.3},", q.commit_p99_ms);
            let _ = writeln!(s, "  \"refine_p99_ms\": {:.3},", q.refine_p99_ms);
        }
        s.push_str("  \"batches\": [\n");
        for (i, b) in self.batches.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"batch\": {}, \"inc_ms\": {:.3}, \"scratch_ms\": {:.3}, \
                 \"cut_edges\": {}, \"imbalance\": {:.6}, \"locality\": {:.4}}}",
                b.batch, b.inc_ms, b.scratch_ms, b.cut_edges, b.imbalance, b.locality
            );
            s.push_str(if i + 1 < self.batches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses the schema written by [`Self::to_json`]. Tolerates
    /// whitespace/key-order changes but not nested objects beyond the
    /// `batches` array.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let scalars = |src: &str| -> Vec<(String, String)> {
            // Split `"key": value` pairs at the top nesting level of `src`.
            let mut out = Vec::new();
            let mut depth = 0i32;
            let mut token = String::new();
            for c in src.chars() {
                match c {
                    '{' | '[' => {
                        depth += 1;
                        if depth > 1 {
                            token.push(c);
                        }
                    }
                    '}' | ']' => {
                        depth -= 1;
                        if depth >= 1 {
                            token.push(c);
                        }
                    }
                    ',' if depth == 1 => {
                        out.push(std::mem::take(&mut token));
                        token.clear();
                    }
                    _ if depth >= 1 => token.push(c),
                    _ => {}
                }
            }
            if !token.trim().is_empty() {
                out.push(token);
            }
            out.into_iter()
                .filter_map(|pair| {
                    let (k, v) = pair.split_once(':')?;
                    Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
                })
                .collect()
        };

        let fields = scalars(text);
        let get = |key: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("baseline is missing \"{key}\""))
        };
        let num = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse()
                .map_err(|_| format!("\"{key}\" is not a number: {}", get(key).unwrap()))
        };

        let batches_src = get("batches")?;
        let mut batches = Vec::new();
        // Each batch object is flat: re-use the scalar splitter per object.
        for obj in batches_src.split('{').skip(1) {
            let obj = obj.split('}').next().unwrap_or("");
            let entries: Vec<(String, String)> = obj
                .split(',')
                .filter_map(|pair| {
                    let (k, v) = pair.split_once(':')?;
                    Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
                })
                .collect();
            let bnum = |key: &str| -> Result<f64, String> {
                entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .ok_or_else(|| format!("batch entry missing \"{key}\""))?
                    .1
                    .parse()
                    .map_err(|_| format!("batch \"{key}\" is not a number"))
            };
            batches.push(BatchPerf {
                batch: bnum("batch")? as usize,
                inc_ms: bnum("inc_ms")?,
                scratch_ms: bnum("scratch_ms")?,
                cut_edges: bnum("cut_edges")? as usize,
                imbalance: bnum("imbalance")?,
                locality: bnum("locality")?,
            });
        }

        // Fields younger than the record format: absent keys take the
        // documented default (legacy baselines must keep parsing), but a
        // present-and-malformed value is an error like any other field.
        let num_or_zero = |key: &str| -> Result<f64, String> {
            if get(key).is_ok() {
                num(key)
            } else {
                Ok(0.0)
            }
        };
        let opt_count = |key: &str| -> Result<Option<usize>, String> {
            if get(key).is_ok() {
                num(key).map(|v| Some(v as usize))
            } else {
                Ok(None)
            }
        };
        let opt_num = |key: &str| -> Result<Option<f64>, String> {
            if get(key).is_ok() {
                num(key).map(Some)
            } else {
                Ok(None)
            }
        };
        Ok(Self {
            threads: num("threads")? as usize,
            churn: num_or_zero("churn")?,
            inc_total_ms: num("inc_total_ms")?,
            scratch_total_ms: num("scratch_total_ms")?,
            speedup: num("speedup")?,
            eps_ok: get("eps_ok")? == "true",
            final_locality: num("final_locality")?,
            final_imbalance: num("final_imbalance")?,
            validate_total_ms: num_or_zero("validate_total_ms")?,
            split_total_ms: num_or_zero("split_total_ms")?,
            place_total_ms: num_or_zero("place_total_ms")?,
            repair_total_ms: num_or_zero("repair_total_ms")?,
            commit_total_ms: num_or_zero("commit_total_ms")?,
            refine_total_ms: num_or_zero("refine_total_ms")?,
            placement_conflicts: opt_count("placement_conflicts")?,
            repair_passes: opt_count("repair_passes")?,
            rebalance_full_scans: opt_count("rebalance_full_scans")?,
            snapshot_save_total_ms: num_or_zero("snapshot_save_total_ms")?,
            snapshot_restore_total_ms: num_or_zero("snapshot_restore_total_ms")?,
            snapshots: opt_count("snapshots")?,
            // Presence keyed on the field the gate reads: a v4 record
            // always writes the full block, so one key stands for all.
            quantiles: if get("refine_iters_p99").is_ok() {
                Some(PerfQuantiles {
                    refine_iters_p50: num_or_zero("refine_iters_p50")?,
                    refine_iters_p99: num_or_zero("refine_iters_p99")?,
                    validate_p99_ms: num_or_zero("validate_p99_ms")?,
                    split_p99_ms: num_or_zero("split_p99_ms")?,
                    place_p99_ms: num_or_zero("place_p99_ms")?,
                    repair_p99_ms: num_or_zero("repair_p99_ms")?,
                    commit_p99_ms: num_or_zero("commit_p99_ms")?,
                    refine_p99_ms: num_or_zero("refine_p99_ms")?,
                })
            } else {
                None
            },
            gd_full_recomputes: opt_count("gd_full_recomputes")?,
            gd_delta_iters: opt_count("gd_delta_iters")?,
            lookups_per_sec: opt_num("lookups_per_sec")?,
            lookup_p99_us: opt_num("lookup_p99_us")?,
            split_parallel_ranges: opt_count("split_parallel_ranges")?,
            repair_spec_rounds: opt_count("repair_spec_rounds")?,
            compact_parallel_ms: opt_num("compact_parallel_ms")?,
            replay_total_ms: num_or_zero("replay_total_ms")?,
            replay_batches: opt_count("replay_batches")?,
            log_bytes: opt_count("log_bytes")?,
            log_rotations: opt_count("log_rotations")?,
            followers: opt_count("followers")?,
            batches,
        })
    }
}

/// Allowed regression of the placement-stage normalized wall-clock.
/// Wider than the total-wall-clock band: the stage totals are a few
/// milliseconds, so scheduler jitter moves them proportionally more —
/// while the regressions this gate exists for (a serialized chunk fan-out,
/// an accidentally quadratic scoring sweep) cost well over 2×.
pub const PLACE_STAGE_REGRESSION: f64 = 0.75;

/// Baseline placement-stage wall-clock (ms) below which the stage gate
/// stays silent — a sub-millisecond stage is rounding noise, and legacy
/// baselines record 0.
pub const MIN_STAGE_MS: f64 = 1.0;

/// Allowed regression of the snapshot save+restore normalized wall-clock
/// (the kill-and-resume CI leg's committed bound). Like the placement
/// band, wider than the total-wall-clock budget: the snapshot totals are
/// small and jittery, while the regressions the gate exists for — an
/// accidentally quadratic serializer, a restore that re-solves instead of
/// deserializing — cost multiples.
pub const SNAPSHOT_REGRESSION: f64 = 1.0;

/// Allowed regression of the machine-normalized p99 lookup latency
/// (the `stream_serve` CI leg's committed bound). Wide like the other
/// small-quantity bands: a single lookup is microseconds, so scheduler
/// jitter moves the p99 proportionally more than it moves the totals —
/// while the regressions this gate exists for (a lock on the lookup
/// path, a re-pin per call, a view rebuilt per lookup) cost well over
/// 2×.
pub const LOOKUP_REGRESSION: f64 = 1.0;

/// Allowed regression of the machine-normalized follower replay lag
/// (the `stream_replicate` CI leg's committed bound). Replay is ingest
/// re-run, so its wall-clock inherits all of ingest's jitter on a small
/// leg — hence the wide band, like the other small-quantity gates. The
/// regressions it exists for (a follower that re-verifies the whole log
/// per record, a wire decode gone quadratic) cost well over 2×.
pub const REPLAY_REGRESSION: f64 = 1.0;

/// Floor (µs) a baseline p99 lookup latency is clamped to before the
/// lookup gate compares. The serving histogram quantizes at microsecond
/// resolution and a healthy lookup is tens of nanoseconds, so committed
/// baselines routinely record a p99 of 0 — clamping (rather than
/// disabling, as the stage gates do) keeps the gate armed against the
/// regressions it exists for, which cost tens of microseconds.
pub const MIN_LOOKUP_P99_US: f64 = 1.0;

/// Gate verdict: `Err` carries the human-readable failure reasons.
///
/// * ε violated in the current run → fail (regardless of the baseline);
/// * thread-count or churn-fraction mismatch with the baseline → fail
///   (different workload, not a comparison);
/// * a scratch leg under [`MIN_SCRATCH_MS`] on either side → fail with a
///   named error (the normalized ratio would be rounding noise);
/// * normalized wall-clock (`1/speedup`) regressed more than
///   `max_regression` (e.g. `0.30`) relative to the baseline → fail;
/// * final edge locality dropped more than 10 points below baseline →
///   fail (don't let the gate reward trading quality for speed);
/// * `rebalance_full_scans` exceeded the baseline's count (both present;
///   the count is deterministic for a fixed workload) → fail — the
///   composite relief-key heaps must not regress toward full rescans;
/// * the **snapshot** normalized wall-clock (`(save + restore) /
///   scratch`) regressed more than [`SNAPSHOT_REGRESSION`] → fail, so the
///   kill-and-resume leg's warm-restart cost stays bounded (engaged only
///   when the baseline recorded a measurable snapshot total);
/// * the **placement-stage** normalized wall-clock
///   (`(place + repair) / scratch`, machine-normalized like the total)
///   regressed more than [`PLACE_STAGE_REGRESSION`] → fail. The total
///   gate alone cannot catch this: on a refinement-heavy leg a 4×
///   placement slowdown hides inside the 30% total budget, which is
///   exactly how a serialized speculative stage would ship. Only engaged
///   when the baseline's placement stage is large enough to measure
///   (≥ [`MIN_STAGE_MS`]; legacy baselines record 0 and skip);
/// * the **refine-stage p99** (v4 quantile block, machine-normalized)
///   regressed more than `max_regression` → fail. Stage totals let one
///   pathological batch average away; the p99 catches the tail. Engaged
///   only when both records carry quantiles (v2/v3 baselines skip) and
///   the baseline tail is ≥ [`MIN_STAGE_MS`];
/// * the **p99 lookup latency** (v6, `stream_serve` only,
///   machine-normalized like every other wall-clock gate) regressed
///   more than [`LOOKUP_REGRESSION`] → fail. Engaged only when **both**
///   records carry `lookup_p99_us` (pre-v6 and `stream_online`
///   baselines skip); a sub-floor baseline tail is clamped to
///   [`MIN_LOOKUP_P99_US`] rather than silencing the gate;
/// * the **follower replay lag** (v8, `stream_replicate` only,
///   machine-normalized) regressed more than [`REPLAY_REGRESSION`] →
///   fail, and a follower-count mismatch between the records fails
///   outright like a thread-count mismatch. Engaged only when both
///   records carry `followers` and the baseline's replay total is
///   ≥ [`MIN_STAGE_MS`].
pub fn check_regression(
    current: &PerfRecord,
    baseline: &PerfRecord,
    max_regression: f64,
) -> Result<(), String> {
    let mut reasons = Vec::new();
    if current.threads != baseline.threads {
        // Scratch GD and the incremental path scale differently, so a
        // cross-thread-count comparison is apples-to-oranges: it silently
        // loosens the gate on one leg and can spuriously fail the other.
        reasons.push(format!(
            "thread-count mismatch: run used {} threads, baseline {} — gate each thread \
             count against a baseline recorded at that thread count",
            current.threads, baseline.threads
        ));
    }
    if (current.churn - baseline.churn).abs() > 1e-9 {
        // Deletion batches do different work (tombstoning, purges, both-way
        // drift) than add-only ones; comparing across churn fractions gates
        // nothing meaningful.
        reasons.push(format!(
            "churn mismatch: run used churn {:.3}, baseline {:.3} — gate each churn \
             fraction against a baseline recorded at that fraction",
            current.churn, baseline.churn
        ));
    }
    for (who, rec) in [("current run", current), ("baseline", baseline)] {
        if rec.scratch_total_ms < MIN_SCRATCH_MS {
            reasons.push(format!(
                "unusable scratch reference: {who}'s scratch leg took {:.4} ms, below the \
                 {MIN_SCRATCH_MS} ms floor — the normalized wall-clock denominator is \
                 rounding noise on this runner; rerun with a larger --n/--batches",
                rec.scratch_total_ms
            ));
        }
    }
    if !current.eps_ok {
        reasons.push("current run violated the ε guarantee".to_string());
    }
    let (cur, base) = (
        current.normalized_wallclock(),
        baseline.normalized_wallclock(),
    );
    if cur > base * (1.0 + max_regression) {
        reasons.push(format!(
            "normalized wall-clock regressed {:.0}% (limit {:.0}%): \
             {:.4} vs baseline {:.4} (speedup {:.1}x vs {:.1}x)",
            (cur / base - 1.0) * 100.0,
            max_regression * 100.0,
            cur,
            base,
            current.speedup,
            baseline.speedup,
        ));
    }
    if current.final_locality < baseline.final_locality - 0.10 {
        reasons.push(format!(
            "final locality collapsed: {:.1}% vs baseline {:.1}%",
            current.final_locality * 100.0,
            baseline.final_locality * 100.0
        ));
    }
    let base_place = baseline.place_total_ms + baseline.repair_total_ms;
    let cur_place = current.place_total_ms + current.repair_total_ms;
    if base_place >= MIN_STAGE_MS && cur_place > 0.0 {
        let cur_ratio = cur_place / current.scratch_total_ms.max(MIN_SCRATCH_MS);
        let base_ratio = base_place / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
        if cur_ratio > base_ratio * (1.0 + PLACE_STAGE_REGRESSION) {
            reasons.push(format!(
                "placement stage regressed {:.0}% (limit {:.0}%): place+repair {:.1} ms \
                 ({:.4} normalized) vs baseline {:.1} ms ({:.4}) — the speculative \
                 placement/conflict-repair path got slower relative to the same-machine \
                 scratch solve",
                (cur_ratio / base_ratio - 1.0) * 100.0,
                PLACE_STAGE_REGRESSION * 100.0,
                cur_place,
                cur_ratio,
                base_place,
                base_ratio,
            ));
        }
    }
    let base_snap = baseline.snapshot_save_total_ms + baseline.snapshot_restore_total_ms;
    let cur_snap = current.snapshot_save_total_ms + current.snapshot_restore_total_ms;
    if base_snap >= MIN_STAGE_MS && cur_snap > 0.0 {
        // Machine-normalized like every other wall-clock gate: snapshot
        // overhead per unit of same-machine scratch-GD time. Bounds the
        // kill-and-resume cost so warm restart stays cheap relative to
        // the cold solve it exists to avoid.
        let cur_ratio = cur_snap / current.scratch_total_ms.max(MIN_SCRATCH_MS);
        let base_ratio = base_snap / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
        if cur_ratio > base_ratio * (1.0 + SNAPSHOT_REGRESSION) {
            reasons.push(format!(
                "snapshot overhead regressed {:.0}% (limit {:.0}%): save+restore {:.1} ms \
                 ({:.4} normalized) vs baseline {:.1} ms ({:.4}) — warm restart is getting \
                 expensive relative to the same-machine scratch solve",
                (cur_ratio / base_ratio - 1.0) * 100.0,
                SNAPSHOT_REGRESSION * 100.0,
                cur_snap,
                cur_ratio,
                base_snap,
                base_ratio,
            ));
        }
    }
    if let (Some(cq), Some(bq)) = (&current.quantiles, &baseline.quantiles) {
        // v4 tail gate: the refine-stage p99 per batch, machine-normalized
        // against the same-machine scratch solve like every other
        // wall-clock gate. The stage *totals* let one pathological batch
        // average away across the run; the p99 is where a GD pair that
        // stopped converging surfaces first. Same `max_regression` budget
        // as the headline ratio. Engaged only when both sides carry
        // quantiles and the baseline's tail is large enough to measure.
        if bq.refine_p99_ms >= MIN_STAGE_MS && cq.refine_p99_ms > 0.0 {
            let cur_ratio = cq.refine_p99_ms / current.scratch_total_ms.max(MIN_SCRATCH_MS);
            let base_ratio = bq.refine_p99_ms / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
            if cur_ratio > base_ratio * (1.0 + max_regression) {
                reasons.push(format!(
                    "refine-stage p99 regressed {:.0}% (limit {:.0}%): {:.1} ms \
                     ({:.4} normalized) vs baseline {:.1} ms ({:.4}) — the refinement \
                     tail got slower relative to the same-machine scratch solve \
                     (refine_iters p99 {:.0} vs baseline {:.0})",
                    (cur_ratio / base_ratio - 1.0) * 100.0,
                    max_regression * 100.0,
                    cq.refine_p99_ms,
                    cur_ratio,
                    bq.refine_p99_ms,
                    base_ratio,
                    cq.refine_iters_p99,
                    bq.refine_iters_p99,
                ));
            }
        }
    }
    if let (Some(cur_p99), Some(base_p99)) = (current.lookup_p99_us, baseline.lookup_p99_us) {
        // v6 serving gate: p99 lookup latency per unit of same-machine
        // scratch-GD time. Both sides must carry the field — the gate
        // never engages against a stream_online (or pre-v6) baseline.
        // Unlike the stage gates, a sub-floor baseline *clamps* instead
        // of disarming: a healthy read path measures 0 µs at histogram
        // resolution, and a lock or per-call rebuild must still fire
        // against that baseline.
        let base_p99 = base_p99.max(MIN_LOOKUP_P99_US);
        let cur_ratio = cur_p99 / current.scratch_total_ms.max(MIN_SCRATCH_MS);
        let base_ratio = base_p99 / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
        if cur_ratio > base_ratio * (1.0 + LOOKUP_REGRESSION) {
            reasons.push(format!(
                "lookup p99 regressed {:.0}% (limit {:.0}%): {:.1} µs ({:.6} normalized) \
                 vs baseline {:.1} µs ({:.6}) — the published-view read path got slower \
                 relative to the same-machine scratch solve",
                (cur_ratio / base_ratio - 1.0) * 100.0,
                LOOKUP_REGRESSION * 100.0,
                cur_p99,
                cur_ratio,
                base_p99,
                base_ratio,
            ));
        }
    }
    if let (Some(cur_f), Some(base_f)) = (current.followers, baseline.followers) {
        // v8 replication gate: follower replay lag per unit of
        // same-machine scratch-GD time. Both sides must carry the
        // follower count (pre-v8 and follower-less baselines skip), and
        // the counts must match — replay work scales with followers.
        if cur_f != base_f {
            reasons.push(format!(
                "follower-count mismatch: run used {cur_f} followers, baseline {base_f} — \
                 gate each follower count against a baseline recorded at that count"
            ));
        } else if baseline.replay_total_ms >= MIN_STAGE_MS && current.replay_total_ms > 0.0 {
            let cur_ratio = current.replay_total_ms / current.scratch_total_ms.max(MIN_SCRATCH_MS);
            let base_ratio =
                baseline.replay_total_ms / baseline.scratch_total_ms.max(MIN_SCRATCH_MS);
            if cur_ratio > base_ratio * (1.0 + REPLAY_REGRESSION) {
                reasons.push(format!(
                    "follower replay lag regressed {:.0}% (limit {:.0}%): {:.1} ms \
                     ({:.4} normalized) vs baseline {:.1} ms ({:.4}) — followers are \
                     falling behind the leader relative to the same-machine scratch solve",
                    (cur_ratio / base_ratio - 1.0) * 100.0,
                    REPLAY_REGRESSION * 100.0,
                    current.replay_total_ms,
                    cur_ratio,
                    baseline.replay_total_ms,
                    base_ratio,
                ));
            }
        }
    }
    if let (Some(cur), Some(base)) = (current.rebalance_full_scans, baseline.rebalance_full_scans) {
        // Deterministic for a fixed workload (seeded, thread-invariant),
        // so any increase is a real candidate-quality regression of the
        // rebalance heaps, not noise.
        if cur > base {
            reasons.push(format!(
                "rebalance full scans increased: {cur} vs baseline {base} — the composite \
                 relief-key heaps are letting more steps fall back to full membership rescans"
            ));
        }
    }
    if reasons.is_empty() {
        Ok(())
    } else {
        Err(reasons.join("; "))
    }
}

/// Same-machine parallel-scaling check: the multi-threaded run's
/// incremental wall-clock must beat the serial run's by at least
/// `min_speedup` (e.g. `1.2`). Both records come from the same CI job, so
/// raw wall-clock *is* comparable here. This is what catches a silently
/// serialized `par_map` / round scheduler — the baseline gate alone
/// cannot, because it never compares thread counts.
pub fn check_parallel_speedup(
    parallel: &PerfRecord,
    serial: &PerfRecord,
    min_speedup: f64,
) -> Result<(), String> {
    if parallel.threads <= serial.threads {
        return Err(format!(
            "parallel record uses {} threads, serial record {} — nothing to compare",
            parallel.threads, serial.threads
        ));
    }
    let achieved = serial.inc_total_ms / parallel.inc_total_ms.max(1e-9);
    if achieved < min_speedup {
        return Err(format!(
            "threads={} incremental path is only {achieved:.2}x the threads={} run \
             (need >= {min_speedup:.2}x): {:.1}ms vs {:.1}ms",
            parallel.threads, serial.threads, parallel.inc_total_ms, serial.inc_total_ms
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(inc: f64, scratch: f64, eps_ok: bool, locality: f64) -> PerfRecord {
        PerfRecord {
            threads: 1,
            churn: 0.0,
            inc_total_ms: inc,
            scratch_total_ms: scratch,
            speedup: scratch / inc,
            eps_ok,
            final_locality: locality,
            final_imbalance: 0.048,
            validate_total_ms: inc * 0.05,
            split_total_ms: inc * 0.2,
            place_total_ms: inc * 0.4,
            repair_total_ms: inc * 0.05,
            commit_total_ms: inc * 0.1,
            refine_total_ms: inc * 0.2,
            placement_conflicts: Some(17),
            repair_passes: Some(3),
            rebalance_full_scans: Some(2),
            snapshot_save_total_ms: inc * 0.1,
            snapshot_restore_total_ms: inc * 0.15,
            snapshots: Some(2),
            // Time-valued quantiles derive from `inc` like the stage
            // totals so machine-speed cancellation holds; iteration
            // counts are machine-independent and stay fixed.
            quantiles: Some(PerfQuantiles {
                refine_iters_p50: 8.0,
                refine_iters_p99: 24.0,
                validate_p99_ms: inc * 0.02,
                split_p99_ms: inc * 0.08,
                place_p99_ms: inc * 0.15,
                repair_p99_ms: inc * 0.02,
                commit_p99_ms: inc * 0.04,
                refine_p99_ms: inc * 0.3,
            }),
            gd_full_recomputes: Some(40),
            gd_delta_iters: Some(360),
            lookups_per_sec: Some(4.0e6),
            // Time-valued like the stage totals: derives from `inc` so
            // machine-speed cancellation holds for the lookup gate too.
            lookup_p99_us: Some(inc * 0.4),
            split_parallel_ranges: Some(12),
            repair_spec_rounds: Some(2),
            compact_parallel_ms: Some(inc * 0.06),
            // Time-valued like the stage totals: derives from `inc` so
            // machine-speed cancellation holds for the replay gate too.
            replay_total_ms: inc * 0.5,
            replay_batches: Some(16),
            log_bytes: Some(8192),
            log_rotations: Some(2),
            followers: Some(2),
            batches: vec![BatchPerf {
                batch: 1,
                inc_ms: inc,
                scratch_ms: scratch,
                cut_edges: 1234,
                imbalance: 0.048,
                locality,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.threads, 1);
        assert!((parsed.speedup - 60.0).abs() < 1e-3);
        assert!(parsed.eps_ok);
        assert_eq!(parsed.batches.len(), 1);
        assert_eq!(parsed.batches[0].cut_edges, 1234);
        assert!((parsed.batches[0].inc_ms - 12.5).abs() < 1e-9);
        assert!((parsed.final_locality - 0.61).abs() < 1e-9);
    }

    #[test]
    fn parser_rejects_missing_and_malformed_fields() {
        assert!(PerfRecord::from_json("{}").is_err());
        assert!(PerfRecord::from_json("{\"threads\": 1}").is_err());
        let corrupted = record(10.0, 600.0, true, 0.6)
            .to_json()
            .replace("\"threads\": 1", "\"threads\": \"x\"");
        let err = PerfRecord::from_json(&corrupted).unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn gate_passes_equal_and_better_runs() {
        let base = record(10.0, 600.0, true, 0.60);
        assert!(check_regression(&base, &base, 0.30).is_ok());
        // 2x faster incremental path: obviously fine.
        let faster = record(5.0, 600.0, true, 0.60);
        assert!(check_regression(&faster, &base, 0.30).is_ok());
        // 25% slower: inside the 30% budget.
        let slower = record(12.5, 600.0, true, 0.60);
        assert!(check_regression(&slower, &base, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_regressions() {
        let base = record(10.0, 600.0, true, 0.60);
        // 50% slower normalized wall-clock.
        let slow = record(15.0, 600.0, true, 0.60);
        let err = check_regression(&slow, &base, 0.30).unwrap_err();
        assert!(err.contains("normalized wall-clock"), "{err}");
        // ε violation fails even when fast.
        let broken = record(1.0, 600.0, false, 0.60);
        assert!(check_regression(&broken, &base, 0.30)
            .unwrap_err()
            .contains("ε"));
        // Quality collapse fails even when fast.
        let hollow = record(1.0, 600.0, true, 0.40);
        assert!(check_regression(&hollow, &base, 0.30)
            .unwrap_err()
            .contains("locality"));
    }

    #[test]
    fn pipeline_fields_round_trip_and_default_on_legacy_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.place_total_ms - 5.0).abs() < 1e-9);
        assert!((parsed.repair_total_ms - 0.625).abs() < 1e-9);
        assert_eq!(parsed.placement_conflicts, Some(17));
        assert_eq!(parsed.repair_passes, Some(3));
        assert_eq!(parsed.rebalance_full_scans, Some(2));
        // A legacy baseline (no pipeline fields at all) still parses:
        // stage totals default to 0, counters to None.
        let new_keys = [
            "validate_total_ms",
            "split_total_ms",
            "place_total_ms",
            "repair_total_ms",
            "commit_total_ms",
            "refine_total_ms",
            "placement_conflicts",
            "repair_passes",
            "rebalance_full_scans",
        ];
        let legacy = r
            .to_json()
            .lines()
            .filter(|l| new_keys.iter().all(|k| !l.contains(k)))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&legacy).unwrap();
        assert_eq!(parsed.place_total_ms, 0.0);
        assert_eq!(parsed.placement_conflicts, None);
        assert_eq!(parsed.rebalance_full_scans, None);
        // Present-but-malformed stage totals are an error, not a default.
        let corrupted = r
            .to_json()
            .replace("\"place_total_ms\": 5.000", "\"place_total_ms\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("place_total_ms"));
    }

    #[test]
    fn gate_catches_placement_stage_regression() {
        let base = record(10.0, 600.0, true, 0.60); // place+repair = 4.5 ms
                                                    // Total wall-clock within the 30% budget, but the placement stage
                                                    // alone blew up ~3.7x — exactly the shape of a serialized
                                                    // speculative fan-out on a refinement-heavy leg.
        let mut slow_place = record(12.0, 600.0, true, 0.60);
        slow_place.place_total_ms = 16.0;
        assert!(check_regression(&slow_place, &base, 0.30)
            .unwrap_err()
            .contains("placement stage regressed"));
        // Machine speed cancels: a 3x slower machine scales the stage
        // totals and the scratch denominator together (the record()
        // fixture derives stage totals from `inc`).
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Legacy baselines (stage totals 0) skip the stage gate.
        let mut legacy = record(10.0, 600.0, true, 0.60);
        legacy.place_total_ms = 0.0;
        legacy.repair_total_ms = 0.0;
        assert!(check_regression(&slow_place, &legacy, 0.30).is_ok());
    }

    #[test]
    fn snapshot_fields_round_trip_and_default_on_v2_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.snapshot_save_total_ms - 1.25).abs() < 1e-9);
        assert!((parsed.snapshot_restore_total_ms - 1.875).abs() < 1e-9);
        assert_eq!(parsed.snapshots, Some(2));
        // A v2 baseline (no snapshot keys) still parses: totals default to
        // 0, the cycle count to None — and the snapshot gate stays off.
        let v2 = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("snapshot"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v2).unwrap();
        assert_eq!(parsed.snapshot_save_total_ms, 0.0);
        assert_eq!(parsed.snapshot_restore_total_ms, 0.0);
        assert_eq!(parsed.snapshots, None);
        assert!(check_regression(&r, &parsed, 0.30).is_ok());
        // Present-but-malformed snapshot totals are an error, not 0.
        let corrupted = r.to_json().replace(
            "\"snapshot_save_total_ms\": 1.250",
            "\"snapshot_save_total_ms\": \"x\"",
        );
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("snapshot_save_total_ms"));
    }

    #[test]
    fn gate_catches_snapshot_overhead_regression() {
        let base = record(10.0, 600.0, true, 0.60); // save+restore = 2.5 ms
        let mut bloated = record(10.0, 600.0, true, 0.60);
        bloated.snapshot_save_total_ms = 4.0;
        bloated.snapshot_restore_total_ms = 3.0; // 7.0 ms, 2.8x the baseline
        let err = check_regression(&bloated, &base, 0.30).unwrap_err();
        assert!(err.contains("snapshot overhead regressed"), "{err}");
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.snapshot_save_total_ms = 2.0;
        ok.snapshot_restore_total_ms = 2.0;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels out: 3x slower machine scales everything.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // A snapshot-free current run (totals 0) skips the gate, as does a
        // baseline whose totals are under the measurement floor.
        let mut snapless = record(10.0, 600.0, true, 0.60);
        snapless.snapshot_save_total_ms = 0.0;
        snapless.snapshot_restore_total_ms = 0.0;
        snapless.snapshots = None;
        assert!(check_regression(&snapless, &base, 0.30).is_ok());
        assert!(check_regression(&bloated, &snapless, 0.30).is_ok());
    }

    #[test]
    fn gate_fails_when_full_scans_increase() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut worse = record(10.0, 600.0, true, 0.60);
        worse.rebalance_full_scans = Some(5);
        let err = check_regression(&worse, &base, 0.30).unwrap_err();
        assert!(err.contains("full scans increased"), "{err}");
        // Equal or fewer scans pass; a legacy side skips the check.
        let mut better = record(10.0, 600.0, true, 0.60);
        better.rebalance_full_scans = Some(0);
        assert!(check_regression(&better, &base, 0.30).is_ok());
        let mut legacy = record(10.0, 600.0, true, 0.60);
        legacy.rebalance_full_scans = None;
        assert!(check_regression(&worse, &legacy, 0.30).is_ok());
        assert!(check_regression(&legacy, &base, 0.30).is_ok());
    }

    #[test]
    fn gate_rejects_thread_count_mismatch() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut four = record(5.0, 600.0, true, 0.60);
        four.threads = 4;
        let err = check_regression(&four, &base, 0.30).unwrap_err();
        assert!(err.contains("thread-count mismatch"), "{err}");
    }

    #[test]
    fn gate_rejects_churn_mismatch() {
        let base = record(10.0, 600.0, true, 0.60);
        let mut churned = record(10.0, 600.0, true, 0.60);
        churned.churn = 0.2;
        let err = check_regression(&churned, &base, 0.30).unwrap_err();
        assert!(err.contains("churn mismatch"), "{err}");
        // Matching churn fractions gate normally.
        let mut churn_base = base.clone();
        churn_base.churn = 0.2;
        assert!(check_regression(&churned, &churn_base, 0.30).is_ok());
    }

    #[test]
    fn churn_field_round_trips_and_defaults() {
        let mut r = record(12.5, 750.0, true, 0.61);
        r.churn = 0.2;
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.churn - 0.2).abs() < 1e-9);
        // Pre-churn baselines (no "churn" key) parse as add-only runs.
        let legacy = record(12.5, 750.0, true, 0.61)
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"churn\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&legacy).unwrap();
        assert_eq!(parsed.churn, 0.0);
        // A present-but-malformed churn value is a parse error, not 0.0.
        let corrupted = record(12.5, 750.0, true, 0.61)
            .to_json()
            .replace("\"churn\": 0.000", "\"churn\": \"x\"");
        let err = PerfRecord::from_json(&corrupted).unwrap_err();
        assert!(err.contains("churn"), "{err}");
    }

    #[test]
    fn gate_names_a_sub_floor_scratch_leg() {
        // A sub-millisecond scratch leg serializes as ~0.000 ms; the gate
        // must refuse with a named error instead of comparing inf/NaN.
        let base = record(10.0, 600.0, true, 0.60);
        let degenerate = record(0.01, 0.0, true, 0.60);
        assert!(degenerate.normalized_wallclock().is_finite());
        let err = check_regression(&degenerate, &base, 0.30).unwrap_err();
        assert!(err.contains("unusable scratch reference"), "{err}");
        assert!(err.contains("current run"), "{err}");
        // Same for a poisoned committed baseline.
        let err = check_regression(&base, &degenerate, 0.30).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // And round-tripping the degenerate record through JSON keeps the
        // verdict (0.0 stays 0.0, not NaN).
        let reparsed = PerfRecord::from_json(&degenerate.to_json()).unwrap();
        assert!(check_regression(&reparsed, &base, 0.30).is_err());
    }

    #[test]
    fn parallel_speedup_check() {
        let serial = record(100.0, 600.0, true, 0.60);
        let mut par = record(60.0, 600.0, true, 0.60);
        par.threads = 4;
        assert!(check_parallel_speedup(&par, &serial, 1.2).is_ok());
        // 1.05x is below the 1.2x bar.
        par.inc_total_ms = 95.0;
        let err = check_parallel_speedup(&par, &serial, 1.2).unwrap_err();
        assert!(err.contains("only 1.05x"), "{err}");
        // Equal thread counts are a misuse, not a pass.
        let same = record(1.0, 600.0, true, 0.60);
        assert!(check_parallel_speedup(&same, &serial, 1.2).is_err());
    }

    #[test]
    fn quantiles_round_trip_and_default_on_v3_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        let q = parsed.quantiles.as_ref().unwrap();
        assert!((q.refine_iters_p50 - 8.0).abs() < 1e-9);
        assert!((q.refine_iters_p99 - 24.0).abs() < 1e-9);
        assert!((q.refine_p99_ms - 3.75).abs() < 1e-9);
        assert!((q.validate_p99_ms - 0.25).abs() < 1e-9);
        // A v3 baseline (no quantile keys) still parses: quantiles None,
        // and re-rendering it emits no quantile block.
        let v3 = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("_p99") && !l.contains("_p50"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v3).unwrap();
        assert_eq!(parsed.quantiles, None);
        assert!(!parsed.to_json().contains("refine_iters_p99"));
        // Same for a v2 baseline (no snapshot keys either).
        let v2 = v3
            .lines()
            .filter(|l| !l.contains("snapshot"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(PerfRecord::from_json(&v2).unwrap().quantiles, None);
        // Present-but-malformed quantiles are an error, not a default.
        let corrupted = r
            .to_json()
            .replace("\"refine_p99_ms\": 3.750", "\"refine_p99_ms\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("refine_p99_ms"));
    }

    #[test]
    fn gd_counters_round_trip_and_default_on_v4_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.gd_full_recomputes, Some(40));
        assert_eq!(parsed.gd_delta_iters, Some(360));
        // A v4 baseline (no delta-gradient counters) still parses: both
        // None, and re-rendering it emits neither key. The counters are
        // informational, so the gate never reads them — no gate test.
        let v4 = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("gd_full_recomputes") && !l.contains("gd_delta_iters"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v4).unwrap();
        assert_eq!(parsed.gd_full_recomputes, None);
        assert_eq!(parsed.gd_delta_iters, None);
        assert!(!parsed.to_json().contains("gd_delta_iters"));
        // Present-but-malformed counters are an error, not a default.
        let corrupted = r
            .to_json()
            .replace("\"gd_delta_iters\": 360", "\"gd_delta_iters\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("gd_delta_iters"));
    }

    #[test]
    fn lookup_fields_round_trip_and_default_on_v5_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.lookups_per_sec, Some(4.0e6));
        assert!((parsed.lookup_p99_us.unwrap() - 5.0).abs() < 1e-9);
        // A v5 baseline (no serving keys) still parses: both None, the
        // lookup gate stays off, and re-rendering emits neither key.
        let v5 = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("lookup"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v5).unwrap();
        assert_eq!(parsed.lookups_per_sec, None);
        assert_eq!(parsed.lookup_p99_us, None);
        assert!(!parsed.to_json().contains("lookup"));
        assert!(check_regression(&r, &parsed, 0.30).is_ok());
        // Present-but-malformed serving fields are an error, not None.
        let corrupted = r
            .to_json()
            .replace("\"lookup_p99_us\": 5.000", "\"lookup_p99_us\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("lookup_p99_us"));
    }

    #[test]
    fn stage_parallelism_fields_round_trip_and_default_on_v6_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.split_parallel_ranges, Some(12));
        assert_eq!(parsed.repair_spec_rounds, Some(2));
        assert!((parsed.compact_parallel_ms.unwrap() - 0.75).abs() < 1e-9);
        // A v6 baseline (no stage-parallelism keys) still parses: all
        // None, and re-rendering it emits none of the keys. The fields
        // are informational, so the gate never reads them — no gate test.
        let v6 = r
            .to_json()
            .lines()
            .filter(|l| {
                !l.contains("split_parallel_ranges")
                    && !l.contains("repair_spec_rounds")
                    && !l.contains("compact_parallel_ms")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v6).unwrap();
        assert_eq!(parsed.split_parallel_ranges, None);
        assert_eq!(parsed.repair_spec_rounds, None);
        assert_eq!(parsed.compact_parallel_ms, None);
        assert!(!parsed.to_json().contains("repair_spec_rounds"));
        // Present-but-malformed fields are an error, not a default.
        let corrupted = r
            .to_json()
            .replace("\"repair_spec_rounds\": 2", "\"repair_spec_rounds\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("repair_spec_rounds"));
    }

    #[test]
    fn replication_fields_round_trip_and_default_on_v7_baselines() {
        let r = record(12.5, 750.0, true, 0.61);
        let parsed = PerfRecord::from_json(&r.to_json()).unwrap();
        assert!((parsed.replay_total_ms - 6.25).abs() < 1e-9);
        assert_eq!(parsed.replay_batches, Some(16));
        assert_eq!(parsed.log_bytes, Some(8192));
        assert_eq!(parsed.log_rotations, Some(2));
        assert_eq!(parsed.followers, Some(2));
        // A v7 baseline (no replication keys) still parses: the total
        // defaults to 0, the counters to None, the replay gate stays off
        // — and re-rendering it emits none of the keys.
        let v7_keys = [
            "replay_total_ms",
            "replay_batches",
            "log_bytes",
            "log_rotations",
            "followers",
        ];
        let v7 = r
            .to_json()
            .lines()
            .filter(|l| v7_keys.iter().all(|k| !l.contains(k)))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = PerfRecord::from_json(&v7).unwrap();
        assert_eq!(parsed.replay_total_ms, 0.0);
        assert_eq!(parsed.replay_batches, None);
        assert_eq!(parsed.followers, None);
        assert!(!parsed.to_json().contains("replay_total_ms"));
        assert!(check_regression(&r, &parsed, 0.30).is_ok());
        // Present-but-malformed replication fields are an error, not a
        // default.
        let corrupted = r
            .to_json()
            .replace("\"replay_total_ms\": 6.250", "\"replay_total_ms\": \"x\"");
        assert!(PerfRecord::from_json(&corrupted)
            .unwrap_err()
            .contains("replay_total_ms"));
    }

    #[test]
    fn gate_catches_replay_lag_regression() {
        let base = record(10.0, 600.0, true, 0.60); // replay_total = 5.0 ms
        let mut lagging = record(10.0, 600.0, true, 0.60);
        lagging.replay_total_ms = 15.0; // 3x the baseline, past the 2x band
        let err = check_regression(&lagging, &base, 0.30).unwrap_err();
        assert!(err.contains("follower replay lag regressed"), "{err}");
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.replay_total_ms = 9.0;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales replay and
        // the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Either side without a follower count (stream_online or pre-v8
        // record) → gate off, even against a regressed run.
        let mut legacy = record(10.0, 600.0, true, 0.60);
        legacy.followers = None;
        legacy.replay_total_ms = 0.0;
        assert!(check_regression(&lagging, &legacy, 0.30).is_ok());
        assert!(check_regression(&legacy, &base, 0.30).is_ok());
        // A follower-count mismatch is its own failure, not a comparison.
        let mut three = record(10.0, 600.0, true, 0.60);
        three.followers = Some(3);
        let err = check_regression(&three, &base, 0.30).unwrap_err();
        assert!(err.contains("follower-count mismatch"), "{err}");
        // A sub-floor baseline replay total disarms the lag band (but
        // the count check above still ran).
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.replay_total_ms = 0.4;
        assert!(check_regression(&lagging, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_lookup_p99_regression() {
        let base = record(10.0, 600.0, true, 0.60); // lookup_p99 = 4.0 µs
        let mut slow = record(10.0, 600.0, true, 0.60);
        slow.lookup_p99_us = Some(12.0); // 3x the baseline, past the 2x band
        let err = check_regression(&slow, &base, 0.30).unwrap_err();
        assert!(err.contains("lookup p99 regressed"), "{err}");
        // Inside the 2x band passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.lookup_p99_us = Some(7.0);
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales the lookup
        // tail and the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Either side without the field (stream_online or pre-v6 record)
        // → gate off, even when the other side regressed.
        let mut legacy = record(10.0, 600.0, true, 0.60);
        legacy.lookup_p99_us = None;
        legacy.lookups_per_sec = None;
        assert!(check_regression(&slow, &legacy, 0.30).is_ok());
        assert!(check_regression(&legacy, &base, 0.30).is_ok());
        // A sub-floor baseline (a healthy run measures p99 = 0 µs at
        // histogram resolution) clamps to the floor instead of disarming:
        // 12 µs against a clamped 1 µs baseline still fires…
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.lookup_p99_us = Some(0.0);
        let err = check_regression(&slow, &tiny, 0.30).unwrap_err();
        assert!(err.contains("lookup p99 regressed"), "{err}");
        // …while staying inside the clamped band passes (0 µs vs 0 µs is
        // the steady state of every healthy baseline comparison).
        let mut still_fast = record(10.0, 600.0, true, 0.60);
        still_fast.lookup_p99_us = Some(1.8);
        assert!(check_regression(&still_fast, &tiny, 0.30).is_ok());
        assert!(check_regression(&tiny, &tiny, 0.30).is_ok());
    }

    #[test]
    fn gate_catches_refine_tail_regression() {
        let base = record(10.0, 600.0, true, 0.60); // refine_p99 = 3.0 ms
                                                    // Totals unchanged — one pathological batch hides in the averages —
                                                    // but the refine tail blew up 2x, past the 30% budget.
        let mut tail = record(10.0, 600.0, true, 0.60);
        tail.quantiles.as_mut().unwrap().refine_p99_ms = 6.0;
        let err = check_regression(&tail, &base, 0.30).unwrap_err();
        assert!(err.contains("refine-stage p99 regressed"), "{err}");
        // Inside the budget passes.
        let mut ok = record(10.0, 600.0, true, 0.60);
        ok.quantiles.as_mut().unwrap().refine_p99_ms = 3.5;
        assert!(check_regression(&ok, &base, 0.30).is_ok());
        // Machine speed cancels: a 3x slower machine scales the tail and
        // the scratch denominator together.
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
        // Either side legacy (no quantiles) → gate off.
        let mut legacy = record(10.0, 600.0, true, 0.60);
        legacy.quantiles = None;
        assert!(check_regression(&tail, &legacy, 0.30).is_ok());
        assert!(check_regression(&legacy, &base, 0.30).is_ok());
        // A baseline tail under the measurement floor → gate off.
        let mut tiny = record(10.0, 600.0, true, 0.60);
        tiny.quantiles.as_mut().unwrap().refine_p99_ms = 0.4;
        assert!(check_regression(&tail, &tiny, 0.30).is_ok());
    }

    #[test]
    fn machine_speed_cancels_out() {
        // A 3x slower machine scales both inc and scratch: the gate must
        // not fire.
        let base = record(10.0, 600.0, true, 0.60);
        let slow_machine = record(30.0, 1800.0, true, 0.60);
        assert!(check_regression(&slow_machine, &base, 0.30).is_ok());
    }
}

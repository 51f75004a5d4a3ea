//! Deterministic fault injection: the chaos engine.
//!
//! `FLEET_CHAOS=<seed>:<profile>` arms an injection plane at every I/O
//! boundary of the fleet — worker kill/hang/slow at chosen protocol
//! states, NDJSON corruption and truncation, torn store writes, journal
//! tail damage, spawn failure — driven by a *reproducible schedule*:
//! every decision is a pure function of `(seed, site, stable key)` where
//! the key is content-derived (shard ID + attempt, cell ID + per-cell
//! occurrence count), never wall-clock or interleaving. The same seed and
//! profile therefore injects the same faults at the same logical points
//! on every run, so any chaos run that breaks can be replayed bit-exactly
//! — and a `--resume` without `FLEET_CHAOS` completes it cleanly.
//!
//! Profiles:
//!
//! | profile   | injects                                               |
//! |-----------|-------------------------------------------------------|
//! | `off`     | nothing (explicit no-op)                              |
//! | `kill`    | worker exit/hang on assign, death after one cell, slow cells |
//! | `corrupt` | NDJSON byte flips, mid-line truncation + death, cell panics |
//! | `torn`    | short cell-file writes, journal tail damage           |
//! | `spawn`   | worker spawn failures (exercises in-process fallback) |
//! | `mixed`   | all of the above at moderated rates                   |
//!
//! A targeted form pins a fault to one shard for regression tests:
//! `FLEET_CHAOS=<seed>:shard:<ordinal|id-prefix>:<panic|panic1|hang>[:once=<marker-path>]`.
//!
//! Every firing prints one `# chaos:` line to stderr, so tests can assert
//! that a schedule actually injected something.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::cell::fnv1a;

/// An injection site: one class of fault at one I/O boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Worker exits immediately on receiving an `assign`.
    WorkerKill,
    /// Worker hangs silently (no heartbeats) on receiving an `assign`.
    WorkerHang,
    /// Worker finishes exactly one cell of the shard, then dies.
    WorkerDieAfterCell,
    /// Worker sleeps before computing a cell (latency, not loss).
    WorkerSlow,
    /// The model panics inside a cell (exercises `catch_unwind`).
    CellPanic,
    /// One byte of an outgoing `cell_done` line is flipped.
    CorruptMessage,
    /// The outgoing `cell_done` line is cut mid-write and the worker dies.
    TruncateMessage,
    /// The store writes a short (torn) cell file.
    TornCellWrite,
    /// The store damages the journal tail after an append.
    JournalDamage,
    /// The orchestrator fails to spawn a worker process.
    SpawnFail,
}

impl Site {
    fn name(self) -> &'static str {
        match self {
            Site::WorkerKill => "worker.kill",
            Site::WorkerHang => "worker.hang",
            Site::WorkerDieAfterCell => "worker.die_after_cell",
            Site::WorkerSlow => "worker.slow",
            Site::CellPanic => "cell.panic",
            Site::CorruptMessage => "msg.corrupt",
            Site::TruncateMessage => "msg.truncate",
            Site::TornCellWrite => "store.torn_write",
            Site::JournalDamage => "store.journal_damage",
            Site::SpawnFail => "orchestrator.spawn_fail",
        }
    }
}

/// Per-site firing probabilities in [0, 1].
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    kill: f64,
    hang: f64,
    die_after_cell: f64,
    slow: f64,
    cell_panic: f64,
    corrupt: f64,
    truncate: f64,
    torn_write: f64,
    journal_damage: f64,
    spawn_fail: f64,
}

impl Rates {
    fn of(&self, site: Site) -> f64 {
        match site {
            Site::WorkerKill => self.kill,
            Site::WorkerHang => self.hang,
            Site::WorkerDieAfterCell => self.die_after_cell,
            Site::WorkerSlow => self.slow,
            Site::CellPanic => self.cell_panic,
            Site::CorruptMessage => self.corrupt,
            Site::TruncateMessage => self.truncate,
            Site::TornCellWrite => self.torn_write,
            Site::JournalDamage => self.journal_damage,
            Site::SpawnFail => self.spawn_fail,
        }
    }

    fn for_profile(name: &str) -> Option<Rates> {
        Some(match name {
            "off" => Rates::default(),
            "kill" => Rates {
                kill: 0.12,
                hang: 0.05,
                die_after_cell: 0.12,
                slow: 0.10,
                ..Rates::default()
            },
            "corrupt" => Rates {
                corrupt: 0.18,
                truncate: 0.08,
                cell_panic: 0.10,
                ..Rates::default()
            },
            "torn" => Rates {
                torn_write: 0.20,
                journal_damage: 0.20,
                ..Rates::default()
            },
            "spawn" => Rates {
                spawn_fail: 0.85,
                ..Rates::default()
            },
            "mixed" => Rates {
                kill: 0.06,
                hang: 0.02,
                die_after_cell: 0.06,
                slow: 0.05,
                cell_panic: 0.05,
                corrupt: 0.08,
                truncate: 0.04,
                torn_write: 0.08,
                journal_damage: 0.08,
                spawn_fail: 0.05,
            },
            _ => return None,
        })
    }
}

/// A targeted single-shard fault (the regression-test form).
#[derive(Debug, Clone, PartialEq)]
pub struct Targeted {
    /// Shard ordinal (as short digit text) or shard-ID prefix (4+ chars,
    /// or anything non-numeric).
    pub target: String,
    /// What happens when the shard is assigned.
    pub mode: TargetedMode,
    /// When set, the fault fires only while this marker file is absent
    /// (created on firing), so a retry of the same shard succeeds.
    pub once_marker: Option<String>,
}

/// Targeted fault modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetedMode {
    /// Die immediately on assignment.
    Panic,
    /// Finish exactly one cell, then die (mid-shard degradation).
    PanicAfterOneCell,
    /// Stall silently without heartbeats (exercises the stall timeout).
    Hang,
}

impl Targeted {
    fn matches(&self, shard_id: &str, shard_index: usize) -> bool {
        // A short all-digit target is an ordinal, exclusively — content
        // hashes are hex, so "5" would otherwise also hit every shard
        // whose ID starts with '5'. Longer targets match by ID prefix.
        if self.target.len() < 4 && self.target.bytes().all(|b| b.is_ascii_digit()) {
            return self.target == shard_index.to_string();
        }
        shard_id.starts_with(&self.target)
    }

    /// True when the fault should fire now (consumes the once-marker).
    fn armed(&self, shard_id: &str, shard_index: usize) -> bool {
        if !self.matches(shard_id, shard_index) {
            return false;
        }
        match &self.once_marker {
            None => true,
            Some(path) => {
                if std::path::Path::new(path).exists() {
                    false
                } else {
                    if let Err(e) = std::fs::write(path, b"fired\n") {
                        // A lost marker would loop the fault on every
                        // retry; disarm and say so instead.
                        eprintln!(
                            "# chaos: cannot write once-marker {path}: {e}; disarming the fault"
                        );
                        return false;
                    }
                    true
                }
            }
        }
    }
}

/// The seeded injection plane. One instance per process (orchestrator,
/// each worker, the store all build their own from the same env spec, so
/// their schedules agree without any cross-process coordination).
#[derive(Debug)]
pub struct ChaosEngine {
    seed: u64,
    profile: String,
    rates: Rates,
    targeted: Option<Targeted>,
    /// Per-(site, key) occurrence counters for `fires_counted`: the Nth
    /// decision at the same logical point keys on N, so a rewrite of the
    /// same cell can roll a fresh decision deterministically.
    counts: Mutex<BTreeMap<String, u64>>,
}

impl ChaosEngine {
    /// Reads `FLEET_CHAOS` from the environment. `None` when no chaos is
    /// requested. A malformed spec must fail loud — a typo'd injection
    /// plan silently running the real workload is itself a fault-model
    /// bug — so this exits the process with a message rather than
    /// guessing.
    pub fn from_env() -> Option<ChaosEngine> {
        let spec = std::env::var("FLEET_CHAOS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match ChaosEngine::parse(&spec) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("bad FLEET_CHAOS '{spec}': {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses `<seed>:<profile>` where profile is a named rate set or the
    /// targeted form `shard:<target>:<mode>[:once=<path>]`.
    pub fn parse(spec: &str) -> Result<ChaosEngine, String> {
        let (seed_text, profile) = spec
            .split_once(':')
            .ok_or("expected <seed>:<profile> (profiles: off, kill, corrupt, torn, spawn, mixed, shard:<target>:<mode>)")?;
        let seed: u64 = seed_text
            .trim()
            .parse()
            .map_err(|_| format!("seed '{seed_text}' is not an unsigned integer"))?;
        if let Some(rest) = profile.strip_prefix("shard:") {
            let (spec_part, once) = match rest.split_once(":once=") {
                Some((s, path)) => (s, Some(path.to_string())),
                None => (rest, None),
            };
            let targeted = parse_targeted(spec_part, once)?;
            return Ok(ChaosEngine {
                seed,
                profile: profile.to_string(),
                rates: Rates::default(),
                targeted: Some(targeted),
                counts: Mutex::new(BTreeMap::new()),
            });
        }
        let rates = Rates::for_profile(profile).ok_or_else(|| {
            format!("unknown chaos profile '{profile}' (off, kill, corrupt, torn, spawn, mixed, shard:<target>:<mode>)")
        })?;
        Ok(ChaosEngine {
            seed,
            profile: profile.to_string(),
            rates,
            targeted: None,
            counts: Mutex::new(BTreeMap::new()),
        })
    }

    /// The `<seed>:<profile>` label, for logs.
    pub fn label(&self) -> String {
        format!("{}:{}", self.seed, self.profile)
    }

    /// Deterministic uniform draw in [0, 1) for a (site, key) pair.
    fn roll(&self, site: Site, key: &str) -> f64 {
        let mut bytes = Vec::with_capacity(8 + site.name().len() + key.len() + 2);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(site.name().as_bytes());
        bytes.push(b'|');
        bytes.extend_from_slice(key.as_bytes());
        // FNV-1a avalanches poorly into its high bits for short suffix
        // changes; a splitmix-style finalizer fixes the distribution
        // without giving up determinism.
        let mut h = fnv1a(&bytes);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the fault at `site` fire for this stable `key`? Pure in
    /// (seed, site, key) — replays identically on every run. Logs firings.
    pub fn fires(&self, site: Site, key: &str) -> bool {
        let rate = self.rates.of(site);
        if rate <= 0.0 {
            return false;
        }
        let hit = self.roll(site, key) < rate;
        if hit {
            eprintln!("# chaos: {} fired (key {key})", site.name());
        }
        hit
    }

    /// Like [`fires`](Self::fires) but the Nth call with the same
    /// (site, key) appends N to the key, so repeated work at the same
    /// logical point (a rewritten cell, a respawned worker) rolls fresh
    /// — still deterministic, because occurrence order per key is.
    pub fn fires_counted(&self, site: Site, key: &str) -> bool {
        let n = {
            let counter_key = format!("{}|{key}", site.name());
            // Lock poisoning cannot happen: no panic occurs under this lock.
            let Ok(mut counts) = self.counts.lock() else {
                return false;
            };
            let n = counts.entry(counter_key).or_insert(0);
            *n += 1;
            *n
        };
        self.fires(site, &format!("{key}#{n}"))
    }

    /// The targeted single-shard fault to apply when `shard_id`/
    /// `shard_index` is assigned, if any (consumes the once-marker).
    pub fn targeted_mode(&self, shard_id: &str, shard_index: usize) -> Option<TargetedMode> {
        let t = self.targeted.as_ref()?;
        if t.armed(shard_id, shard_index) {
            eprintln!(
                "# chaos: targeted {:?} fired on shard {shard_index} ({shard_id})",
                t.mode
            );
            Some(t.mode)
        } else {
            None
        }
    }

    /// Deterministically flips one byte of `line` (ASCII-safe: the flip
    /// keeps the byte printable so UTF-8 decoding survives and the
    /// corruption is caught by parsing/checksums, not by the reader's
    /// encoding layer).
    pub fn corrupt_line(&self, key: &str, line: &str) -> String {
        let mut bytes = line.as_bytes().to_vec();
        let printable: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_alphanumeric())
            .map(|(i, _)| i)
            .collect();
        if printable.is_empty() {
            return line.to_string();
        }
        let pick = (self.roll(Site::CorruptMessage, &format!("{key}|pos")) * printable.len() as f64)
            as usize;
        let i = printable[pick.min(printable.len() - 1)];
        // XOR with 0x02 stays inside ASCII alphanumerics' neighbourhood
        // (always printable, never a quote or backslash).
        bytes[i] ^= 0x02;
        // The flip preserves ASCII, so this cannot fail; fall back to the
        // original line rather than panicking on the fleet path.
        String::from_utf8(bytes).unwrap_or_else(|_| line.to_string())
    }

    /// Where to cut a line for a truncation fault: a deterministic point
    /// strictly inside the text.
    pub fn truncate_at(&self, key: &str, len: usize) -> usize {
        if len < 2 {
            return 0;
        }
        1 + (self.roll(Site::TruncateMessage, &format!("{key}|cut")) * (len - 1) as f64) as usize
    }

    /// Sleep applied by `WorkerSlow` firings, in milliseconds.
    pub fn slow_ms(&self) -> u64 {
        20
    }
}

/// Parses the targeted `<target>:<mode>` form shared by the chaos grammar
/// and the legacy shim.
fn parse_targeted(spec: &str, once_marker: Option<String>) -> Result<Targeted, String> {
    let (target, mode) = spec
        .split_once(':')
        .ok_or("expected <shard-ordinal-or-id-prefix>:<panic|panic1|hang>")?;
    let mode = match mode {
        "panic" => TargetedMode::Panic,
        "panic1" => TargetedMode::PanicAfterOneCell,
        "hang" => TargetedMode::Hang,
        other => return Err(format!("unknown fault mode '{other}'")),
    };
    if target.is_empty() {
        return Err("empty shard target".to_string());
    }
    Ok(Targeted {
        target: target.to_string(),
        mode,
        once_marker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_parse_and_unknowns_error() {
        for p in ["off", "kill", "corrupt", "torn", "spawn", "mixed"] {
            let c = ChaosEngine::parse(&format!("42:{p}")).expect(p);
            assert_eq!(c.label(), format!("42:{p}"));
        }
        assert!(ChaosEngine::parse("notanumber:kill").is_err());
        assert!(ChaosEngine::parse("7:explode").is_err());
        assert!(ChaosEngine::parse("7").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = ChaosEngine::parse("1:mixed").expect("parses");
        let b = ChaosEngine::parse("1:mixed").expect("parses");
        let c = ChaosEngine::parse("2:mixed").expect("parses");
        let keys: Vec<String> = (0..200).map(|i| format!("cell{i}#1")).collect();
        let fire = |e: &ChaosEngine| -> Vec<bool> {
            keys.iter()
                .map(|k| e.fires(Site::CorruptMessage, k))
                .collect()
        };
        assert_eq!(fire(&a), fire(&b), "same seed, same schedule");
        assert_ne!(fire(&a), fire(&c), "different seed, different schedule");
        let hits = fire(&a).iter().filter(|&&h| h).count();
        assert!(hits > 0, "mixed profile fires somewhere in 200 keys");
        assert!(hits < 60, "rate stays plausible ({hits}/200)");
    }

    #[test]
    fn counted_decisions_advance_per_occurrence() {
        let e = ChaosEngine::parse("3:torn").expect("parses");
        // The same key rolls a fresh (but deterministic) decision each
        // occurrence; collect a window and check both values appear.
        let seq: Vec<bool> = (0..64)
            .map(|_| e.fires_counted(Site::TornCellWrite, "cellX"))
            .collect();
        assert!(seq.iter().any(|&b| b), "fires at least once in 64 tries");
        assert!(!seq.iter().all(|&b| b), "does not fire every time");
        // And the sequence replays on a fresh engine.
        let f = ChaosEngine::parse("3:torn").expect("parses");
        let replay: Vec<bool> = (0..64)
            .map(|_| f.fires_counted(Site::TornCellWrite, "cellX"))
            .collect();
        assert_eq!(seq, replay);
    }

    #[test]
    fn targeted_plans_parse_match_and_arm_once() {
        let c = ChaosEngine::parse("0:shard:1:panic").expect("parses");
        assert_eq!(c.targeted_mode("whatever", 1), Some(TargetedMode::Panic));
        assert_eq!(c.targeted_mode("whatever", 2), None);
        let c = ChaosEngine::parse("0:shard:ab12:hang").expect("parses");
        assert_eq!(c.targeted_mode("ab12ffff00", 7), Some(TargetedMode::Hang));
        assert_eq!(c.targeted_mode("ffab12", 7), None);
        assert!(ChaosEngine::parse("0:shard:nomode").is_err());
        assert!(ChaosEngine::parse("0:shard::panic").is_err());
        assert!(ChaosEngine::parse("0:shard:1:explode").is_err());

        let marker = std::env::temp_dir().join(format!("chaos-once-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let c = ChaosEngine::parse(&format!("0:shard:0:panic1:once={}", marker.display()))
            .expect("parses");
        assert_eq!(
            c.targeted_mode("s", 0),
            Some(TargetedMode::PanicAfterOneCell),
            "first match fires"
        );
        assert_eq!(c.targeted_mode("s", 0), None, "second match is disarmed");
        assert_eq!(
            c.targeted_mode("s", 1),
            None,
            "non-matching shard never fires"
        );
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn corruption_is_deterministic_and_single_byte() {
        let e = ChaosEngine::parse("5:corrupt").expect("parses");
        let line = r#"{"type":"cell_done","cell_id":"abc123","payload":{"ipc":[1.5]}}"#;
        let a = e.corrupt_line("k", line);
        let b = e.corrupt_line("k", line);
        assert_eq!(a, b, "same key corrupts identically");
        assert_ne!(a, line, "something was actually flipped");
        let diffs = a.bytes().zip(line.bytes()).filter(|(x, y)| x != y).count();
        assert_eq!(diffs, 1, "exactly one byte differs");
        let cut = e.truncate_at("k", line.len());
        assert!(cut >= 1 && cut < line.len());
    }
}

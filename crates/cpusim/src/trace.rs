//! Instruction records, the trace-source abstraction, and the `.ctrace`
//! trace-file format.
//!
//! # The `.ctrace` trace-file format
//!
//! Real-trace workloads (ChampSim-style: one record per retired
//! instruction) are stored in either of two interchangeable encodings,
//! distinguished by the file's leading bytes:
//!
//! **Binary** — the file starts with the 5-byte magic [`TRACE_MAGIC`]
//! (`"CTRC"` + format version `0x01`) followed by fixed 18-byte records,
//! all fields little-endian:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 1 | kind tag: 0 = Alu, 1 = Load, 2 = Store, 3 = Branch |
//! | 1 | 1 | flags: bit 0 = branch taken (Branch only), bit 1 = `dep_prev_load` (Load only); any other set bit is an error |
//! | 2 | 8 | program counter (u64 LE) |
//! | 10 | 8 | referenced byte address (u64 LE; must be 0 for Alu/Branch) |
//!
//! **Text** — any file *not* starting with the magic; UTF-8 lines, one
//! record each (blank lines and `#` comments skipped), numbers decimal or
//! `0x`-prefixed hex:
//!
//! ```text
//! A  <pc>                 # ALU
//! L  <pc> <addr>          # load
//! LD <pc> <addr>          # load whose address depends on the previous load
//! S  <pc> <addr>          # store
//! B  <pc> <taken: 1|0|T|N>
//! ```
//!
//! Parsing is bounds-checked end to end: a truncated binary record, an
//! unknown kind tag, undefined flag bits or a malformed text line yield a
//! [`TraceError`] instead of panicking. [`TraceSource`] replays a parsed
//! trace as an *infinite* [`InstrSource`] by rewinding to the first record
//! on exhaustion, so partitioning epochs never starve however short the
//! file is.

use std::sync::Arc;

/// Dynamic instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Integer/FP computation — completes in one cycle, fully pipelined.
    Alu,
    /// Memory read.
    Load,
    /// Memory write (retires through the store buffer).
    Store,
    /// Conditional branch.
    Branch,
}

/// One dynamic instruction produced by a trace source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Instruction class.
    pub kind: InstrKind,
    /// Core-local byte address referenced (loads/stores; ignored otherwise).
    pub addr: u64,
    /// Program counter (drives the L1-I stream and branch prediction).
    pub pc: u64,
    /// Actual branch outcome (branches only).
    pub taken: bool,
    /// This load's address depends on the previous load (pointer chasing);
    /// it cannot issue before that load completes.
    pub dep_prev_load: bool,
}

impl Instr {
    /// A plain ALU instruction at `pc`.
    pub fn alu(pc: u64) -> Instr {
        Instr {
            kind: InstrKind::Alu,
            addr: 0,
            pc,
            taken: false,
            dep_prev_load: false,
        }
    }

    /// A load of `addr` at `pc`.
    pub fn load(pc: u64, addr: u64) -> Instr {
        Instr {
            kind: InstrKind::Load,
            addr,
            pc,
            taken: false,
            dep_prev_load: false,
        }
    }

    /// A store to `addr` at `pc`.
    pub fn store(pc: u64, addr: u64) -> Instr {
        Instr {
            kind: InstrKind::Store,
            addr,
            pc,
            taken: false,
            dep_prev_load: false,
        }
    }

    /// A branch at `pc` with the given outcome.
    pub fn branch(pc: u64, taken: bool) -> Instr {
        Instr {
            kind: InstrKind::Branch,
            addr: 0,
            pc,
            taken,
            dep_prev_load: false,
        }
    }
}

/// An endless stream of dynamic instructions.
///
/// Workload generators implement this; the core pulls one instruction per
/// dispatch slot. Sources must be infinite — the paper keeps every
/// application running until the slowest one reaches its instruction target,
/// so a source is never "done".
pub trait InstrSource {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;
}

/// Blanket impl so closures can serve as sources in tests.
impl<F: FnMut() -> Instr> InstrSource for F {
    fn next_instr(&mut self) -> Instr {
        self()
    }
}

// ------------------------------------------------------------ trace files

/// Magic prefix of a binary `.ctrace` file: `"CTRC"` + format version 1.
pub const TRACE_MAGIC: [u8; 5] = *b"CTRC\x01";

/// Bytes per binary trace record (kind + flags + pc + addr).
pub const TRACE_RECORD_BYTES: usize = 18;

/// Why a trace failed to load or parse (see the module docs for the
/// format specification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// OS error rendered as text.
        error: String,
    },
    /// The payload given to the binary decoder does not start with
    /// [`TRACE_MAGIC`].
    BadMagic,
    /// A `CTRC` binary header carries a format version this build does
    /// not read (only version 1).
    UnsupportedVersion {
        /// The version byte found (`None` when the payload ends at the
        /// 4-byte `CTRC` prefix).
        found: Option<u8>,
    },
    /// Binary payload length is not a whole number of records.
    Truncated {
        /// Index of the record that was cut short (0-based).
        record: usize,
    },
    /// A binary record carries an unknown kind tag.
    BadKind {
        /// Index of the offending record (0-based).
        record: usize,
        /// The tag found.
        tag: u8,
    },
    /// A binary record sets flag bits the format does not define.
    BadFlags {
        /// Index of the offending record (0-based).
        record: usize,
        /// The flags byte found.
        flags: u8,
    },
    /// A binary Alu/Branch record carries a nonzero address (the text
    /// encoding cannot express one, so it must be zero).
    BadAddr {
        /// Index of the offending record (0-based).
        record: usize,
        /// The address found.
        addr: u64,
    },
    /// A text line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The trace holds no records; it cannot feed an infinite source.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, error } => write!(f, "cannot read trace '{path}': {error}"),
            TraceError::BadMagic => write!(f, "missing CTRC binary magic"),
            TraceError::UnsupportedVersion { found: Some(v) } => {
                write!(f, "unsupported CTRC trace version {v} (this build reads 1)")
            }
            TraceError::UnsupportedVersion { found: None } => {
                write!(f, "CTRC header cut short before the version byte")
            }
            TraceError::Truncated { record } => {
                write!(f, "truncated trace: record {record} is cut short")
            }
            TraceError::BadKind { record, tag } => {
                write!(f, "record {record}: unknown kind tag {tag} (expected 0-3)")
            }
            TraceError::BadFlags { record, flags } => {
                write!(f, "record {record}: undefined flag bits in {flags:#04x}")
            }
            TraceError::BadAddr { record, addr } => {
                write!(
                    f,
                    "record {record}: nonzero address {addr:#x} on an Alu/Branch record"
                )
            }
            TraceError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            TraceError::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for TraceError {}

impl InstrKind {
    fn tag(self) -> u8 {
        match self {
            InstrKind::Alu => 0,
            InstrKind::Load => 1,
            InstrKind::Store => 2,
            InstrKind::Branch => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<InstrKind> {
        match tag {
            0 => Some(InstrKind::Alu),
            1 => Some(InstrKind::Load),
            2 => Some(InstrKind::Store),
            3 => Some(InstrKind::Branch),
            _ => None,
        }
    }
}

/// Encodes a record sequence in the binary `.ctrace` format.
///
/// Fields a kind cannot express (`taken` off branches, `dep_prev_load`
/// off loads, `addr` on Alu/Branch) are canonicalized away, exactly as
/// [`format_trace_text`] does — so the writer's output always satisfies
/// the reader's validation, whatever the in-memory `Instr`s held.
pub fn encode_trace(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRACE_MAGIC.len() + instrs.len() * TRACE_RECORD_BYTES);
    out.extend_from_slice(&TRACE_MAGIC);
    for i in instrs {
        let taken = i.taken && i.kind == InstrKind::Branch;
        let dep = i.dep_prev_load && i.kind == InstrKind::Load;
        let addr = match i.kind {
            InstrKind::Load | InstrKind::Store => i.addr,
            InstrKind::Alu | InstrKind::Branch => 0,
        };
        out.push(i.kind.tag());
        out.push(u8::from(taken) | (u8::from(dep) << 1));
        out.extend_from_slice(&i.pc.to_le_bytes());
        out.extend_from_slice(&addr.to_le_bytes());
    }
    out
}

/// Decodes a binary `.ctrace` payload (must start with [`TRACE_MAGIC`]).
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<Instr>, TraceError> {
    let body = bytes
        .strip_prefix(&TRACE_MAGIC[..])
        .ok_or(TraceError::BadMagic)?;
    let mut instrs = Vec::with_capacity(body.len() / TRACE_RECORD_BYTES);
    for (record, chunk) in body.chunks(TRACE_RECORD_BYTES).enumerate() {
        if chunk.len() != TRACE_RECORD_BYTES {
            return Err(TraceError::Truncated { record });
        }
        let kind = InstrKind::from_tag(chunk[0]).ok_or(TraceError::BadKind {
            record,
            tag: chunk[0],
        })?;
        let flags = chunk[1];
        // Each flag bit is valid only for the kind that can express it
        // (taken on branches, dep_prev_load on loads) — anything else
        // would be silently dropped by a text round trip, so reject it.
        let allowed = match kind {
            InstrKind::Branch => 0b01,
            InstrKind::Load => 0b10,
            InstrKind::Alu | InstrKind::Store => 0b00,
        };
        if flags & !allowed != 0 {
            return Err(TraceError::BadFlags { record, flags });
        }
        let word = |at: usize| u64::from_le_bytes(chunk[at..at + 8].try_into().expect("8 bytes"));
        let addr = word(10);
        // Same interchangeability rule for the address field: the text
        // encoding has no address slot for Alu/Branch, so a nonzero one
        // here could not survive a text round trip.
        if addr != 0 && matches!(kind, InstrKind::Alu | InstrKind::Branch) {
            return Err(TraceError::BadAddr { record, addr });
        }
        instrs.push(Instr {
            kind,
            addr,
            pc: word(2),
            taken: flags & 0b01 != 0,
            dep_prev_load: flags & 0b10 != 0,
        });
    }
    Ok(instrs)
}

/// Renders a record sequence in the text trace format.
pub fn format_trace_text(instrs: &[Instr]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for i in instrs {
        let _ = match i.kind {
            InstrKind::Alu => writeln!(out, "A 0x{:x}", i.pc),
            InstrKind::Load if i.dep_prev_load => writeln!(out, "LD 0x{:x} 0x{:x}", i.pc, i.addr),
            InstrKind::Load => writeln!(out, "L 0x{:x} 0x{:x}", i.pc, i.addr),
            InstrKind::Store => writeln!(out, "S 0x{:x} 0x{:x}", i.pc, i.addr),
            InstrKind::Branch => {
                writeln!(out, "B 0x{:x} {}", i.pc, if i.taken { 1 } else { 0 })
            }
        };
    }
    out
}

/// Parses the text trace format (see the module docs for the grammar).
pub fn parse_trace_text(text: &str) -> Result<Vec<Instr>, TraceError> {
    let number = |tok: &str, line: usize| -> Result<u64, TraceError> {
        let parsed = match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => tok.parse::<u64>(),
        };
        parsed.map_err(|_| TraceError::BadLine {
            line,
            reason: format!("bad number '{tok}'"),
        })
    };
    let mut instrs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut toks = body.split_whitespace();
        let kind = toks.next().expect("non-empty line").to_ascii_uppercase();
        let mut field = |what: &str| -> Result<u64, TraceError> {
            let tok = toks.next().ok_or_else(|| TraceError::BadLine {
                line,
                reason: format!("missing {what}"),
            })?;
            number(tok, line)
        };
        let instr = match kind.as_str() {
            "A" => Instr::alu(field("pc")?),
            "L" | "LD" => {
                let mut i = Instr::load(field("pc")?, field("addr")?);
                i.dep_prev_load = kind == "LD";
                i
            }
            "S" => Instr::store(field("pc")?, field("addr")?),
            "B" => {
                let pc = field("pc")?;
                let tok = toks.next().ok_or_else(|| TraceError::BadLine {
                    line,
                    reason: "missing branch outcome".to_string(),
                })?;
                let taken = match tok.to_ascii_uppercase().as_str() {
                    "1" | "T" => true,
                    "0" | "N" => false,
                    other => {
                        return Err(TraceError::BadLine {
                            line,
                            reason: format!("bad branch outcome '{other}' (1|0|T|N)"),
                        })
                    }
                };
                Instr::branch(pc, taken)
            }
            other => {
                return Err(TraceError::BadLine {
                    line,
                    reason: format!("unknown record kind '{other}' (A|L|LD|S|B)"),
                })
            }
        };
        if let Some(extra) = toks.next() {
            return Err(TraceError::BadLine {
                line,
                reason: format!("trailing token '{extra}'"),
            });
        }
        instrs.push(instr);
    }
    Ok(instrs)
}

/// Parses a trace payload, sniffing binary (magic prefix) vs text.
pub fn parse_trace(bytes: &[u8]) -> Result<Vec<Instr>, TraceError> {
    let instrs = if bytes.starts_with(&TRACE_MAGIC) {
        decode_trace(bytes)?
    } else if bytes.starts_with(b"CTRC") {
        // A binary header with a version this build does not read —
        // falling through to the text parser would produce a nonsense
        // "unknown record kind" error instead.
        return Err(TraceError::UnsupportedVersion {
            found: bytes.get(4).copied(),
        });
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| TraceError::BadLine {
            line: 1,
            reason: format!("not UTF-8 text and not CTRC binary: {e}"),
        })?;
        parse_trace_text(text)?
    };
    if instrs.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(instrs)
}

/// Reads and parses a trace file (binary or text, sniffed by content).
pub fn load_trace(path: &std::path::Path) -> Result<Vec<Instr>, TraceError> {
    let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    parse_trace(&bytes)
}

/// Replays a parsed trace as an infinite instruction stream: on
/// exhaustion the source rewinds to the first record, so epochs keep
/// receiving instructions however short the trace is.
#[derive(Debug, Clone)]
pub struct TraceSource {
    instrs: Arc<Vec<Instr>>,
    pos: usize,
    wraps: u64,
}

impl TraceSource {
    /// Wraps a parsed record sequence.
    ///
    /// Returns [`TraceError::Empty`] for an empty sequence (it cannot
    /// feed an infinite stream).
    pub fn new(instrs: Arc<Vec<Instr>>) -> Result<TraceSource, TraceError> {
        if instrs.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceSource {
            instrs,
            pos: 0,
            wraps: 0,
        })
    }

    /// Records in one pass of the trace.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Always false: construction rejects empty traces.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// How many times the source has rewound to the start.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl InstrSource for TraceSource {
    fn next_instr(&mut self) -> Instr {
        let instr = self.instrs[self.pos];
        self.pos += 1;
        if self.pos == self.instrs.len() {
            self.pos = 0;
            self.wraps += 1;
        }
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let l = Instr::load(0x400, 0x1000);
        assert_eq!(l.kind, InstrKind::Load);
        assert_eq!(l.addr, 0x1000);
        assert_eq!(l.pc, 0x400);
        let b = Instr::branch(0x404, true);
        assert_eq!(b.kind, InstrKind::Branch);
        assert!(b.taken);
        assert_eq!(Instr::alu(0).kind, InstrKind::Alu);
        assert_eq!(Instr::store(0, 8).kind, InstrKind::Store);
    }

    #[test]
    fn closures_are_sources() {
        let mut n = 0u64;
        let mut src = move || {
            n += 4;
            Instr::alu(n)
        };
        assert_eq!(src.next_instr().pc, 4);
        assert_eq!(src.next_instr().pc, 8);
    }

    fn sample() -> Vec<Instr> {
        let mut dep = Instr::load(0x40c, 0x9000);
        dep.dep_prev_load = true;
        vec![
            Instr::alu(0x400),
            Instr::load(0x404, 0x1000),
            Instr::store(0x408, 0x2040),
            dep,
            Instr::branch(0x410, true),
            Instr::branch(0x414, false),
        ]
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let instrs = sample();
        let bytes = encode_trace(&instrs);
        assert!(bytes.starts_with(&TRACE_MAGIC));
        assert_eq!(
            bytes.len(),
            TRACE_MAGIC.len() + instrs.len() * TRACE_RECORD_BYTES
        );
        assert_eq!(parse_trace(&bytes).expect("parses"), instrs);
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let instrs = sample();
        let text = format_trace_text(&instrs);
        assert_eq!(parse_trace(text.as_bytes()).expect("parses"), instrs);
    }

    #[test]
    fn text_accepts_comments_blank_lines_and_number_bases() {
        let text = "# header\n\n  L 0x400 4096  # inline comment\nB 1028 T\n";
        let instrs = parse_trace_text(text).expect("parses");
        assert_eq!(
            instrs,
            vec![Instr::load(0x400, 4096), Instr::branch(1028, true)]
        );
    }

    #[test]
    fn truncated_binary_record_errors() {
        let mut bytes = encode_trace(&sample());
        bytes.pop();
        assert_eq!(
            parse_trace(&bytes).expect_err("truncated"),
            TraceError::Truncated { record: 5 }
        );
    }

    #[test]
    fn bad_kind_tag_errors() {
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len()] = 7;
        assert_eq!(
            parse_trace(&bytes).expect_err("bad tag"),
            TraceError::BadKind { record: 0, tag: 7 }
        );
    }

    #[test]
    fn undefined_flag_bits_error() {
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + 1] = 0b100;
        assert!(matches!(
            parse_trace(&bytes).expect_err("bad flags"),
            TraceError::BadFlags { record: 0, .. }
        ));
    }

    #[test]
    fn binary_decoder_requires_the_magic() {
        assert_eq!(decode_trace(b"A 0x400\n"), Err(TraceError::BadMagic));
    }

    #[test]
    fn other_ctrc_versions_error_instead_of_text_fallback() {
        assert_eq!(
            parse_trace(b"CTRC\x02rest"),
            Err(TraceError::UnsupportedVersion { found: Some(2) })
        );
        assert_eq!(
            parse_trace(b"CTRC"),
            Err(TraceError::UnsupportedVersion { found: None })
        );
    }

    #[test]
    fn encoder_canonicalizes_kind_inapplicable_fields() {
        // Instr fields are public, so callers can hold non-canonical
        // records; the writer must still emit files the reader accepts.
        let weird = vec![
            Instr {
                kind: InstrKind::Alu,
                addr: 0x1234,
                pc: 0x400,
                taken: true,
                dep_prev_load: true,
            },
            Instr {
                kind: InstrKind::Branch,
                addr: 0x99,
                pc: 0x404,
                taken: true,
                dep_prev_load: true,
            },
        ];
        let parsed = parse_trace(&encode_trace(&weird)).expect("writer output decodes");
        assert_eq!(parsed[0], Instr::alu(0x400));
        assert_eq!(parsed[1], Instr::branch(0x404, true));
    }

    #[test]
    fn nonzero_addr_on_alu_or_branch_errors() {
        // Record 0 is an Alu, record 4 a Branch: neither can carry an
        // address through the text encoding, so binary rejects one too.
        for record in [0usize, 4] {
            let mut bytes = encode_trace(&sample());
            bytes[TRACE_MAGIC.len() + record * TRACE_RECORD_BYTES + 10] = 1;
            assert_eq!(
                parse_trace(&bytes).expect_err("addr on alu/branch"),
                TraceError::BadAddr { record, addr: 1 }
            );
        }
    }

    #[test]
    fn kind_inapplicable_flag_bits_error() {
        // A taken bit on a load (record 1) can't survive a text round
        // trip, so the binary decoder rejects it too.
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + TRACE_RECORD_BYTES + 1] = 0b01;
        assert!(matches!(
            parse_trace(&bytes).expect_err("taken on a load"),
            TraceError::BadFlags {
                record: 1,
                flags: 0b01
            }
        ));
        // And dep_prev_load on a branch (record 4).
        let mut bytes = encode_trace(&sample());
        bytes[TRACE_MAGIC.len() + 4 * TRACE_RECORD_BYTES + 1] = 0b11;
        assert!(matches!(
            parse_trace(&bytes).expect_err("dep on a branch"),
            TraceError::BadFlags {
                record: 4,
                flags: 0b11
            }
        ));
    }

    #[test]
    fn malformed_text_lines_error_with_position() {
        for (text, want_line) in [
            ("L 0x400\n", 1),
            ("A 0x400\nZ 0x404\n", 2),
            ("B 0x400 maybe\n", 1),
            ("S 0x400 0x1000 junk\n", 1),
            ("L 0xzz 0x10\n", 1),
        ] {
            match parse_trace_text(text).expect_err(text) {
                TraceError::BadLine { line, .. } => assert_eq!(line, want_line, "{text}"),
                other => panic!("{text}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_traces_are_rejected() {
        assert_eq!(parse_trace(b"# only a comment\n"), Err(TraceError::Empty));
        assert_eq!(
            parse_trace(&encode_trace(&[])).expect_err("empty"),
            TraceError::Empty
        );
        assert!(TraceSource::new(Arc::new(Vec::new())).is_err());
    }

    #[test]
    fn trace_source_rewinds_on_exhaustion() {
        let instrs = Arc::new(sample());
        let mut src = TraceSource::new(Arc::clone(&instrs)).expect("non-empty");
        assert_eq!(src.len(), 6);
        assert!(!src.is_empty());
        for lap in 0..3 {
            for want in instrs.iter() {
                assert_eq!(src.wraps(), lap);
                assert_eq!(src.next_instr(), *want);
            }
        }
        assert_eq!(src.wraps(), 3);
    }

    #[test]
    fn load_trace_reports_missing_files() {
        let err = load_trace(std::path::Path::new("/nonexistent/x.ctrace")).expect_err("missing");
        assert!(matches!(err, TraceError::Io { .. }));
        assert!(err.to_string().contains("x.ctrace"));
    }
}

//! Wire encodings of the feedback messages.
//!
//! * [`PfcFrame`] — the IEEE 802.1Qbb PFC MAC control frame of Fig. 7:
//!   destination MAC `01:80:C2:00:00:01`, EtherType `0x8808`, opcode
//!   `0x0101`, a Class-Enable Vector and eight 16-bit `Time[i]` fields,
//!   padded to the 64-byte Ethernet minimum.
//! * Buffer-based GFC reuses the same frame but re-purposes `Time[prio]`
//!   to carry the stage ID (§5.1). On a real link the interpretation is
//!   negotiated per-port; to keep decoding unambiguous inside one fabric
//!   this codec uses opcode `0x0102` for the GFC interpretation (documented
//!   deviation — same size, same fields).
//! * [`FcpFrame`] — the InfiniBand flow-control packet: op/VL nibbles, a
//!   wrapping FCTBS and FCCL, protected by CRC-16/CCITT. Used unchanged by
//!   time-based GFC. Deviation from the IB spec: the counter fields are
//!   16 bits wide instead of 12, because the paper's testbed buffers
//!   (1 MB = 16384 blocks) exceed the 12-bit credit space; the wrap
//!   reconstruction is otherwise identical
//!   (`gfc_core::cbfc::wrap16_advance`).
//!
//! Each `encode` returns a fixed-size byte array, so its type pins the wire
//! size; each `decode` reads a byte slice at fixed big-endian offsets.

/// Multicast destination of MAC control frames.
pub const PFC_DST_MAC: [u8; 6] = [0x01, 0x80, 0xC2, 0x00, 0x00, 0x01];
/// MAC control EtherType.
pub const MAC_CONTROL_ETHERTYPE: u16 = 0x8808;
/// PFC (priority pause) opcode.
pub const PFC_OPCODE: u16 = 0x0101;
/// GFC stage-feedback opcode (this fabric's convention; see module docs).
pub const GFC_OPCODE: u16 = 0x0102;
/// BFC per-flow pause/resume opcode (this fabric's convention — real BFC
/// signals over a custom header; we keep the MAC-control framing).
pub const BFC_OPCODE: u16 = 0x0103;
/// DCFIT tagged-pause opcode (PFC + an initial-trigger tag TLV).
pub const DCFIT_OPCODE: u16 = 0x0104;
/// On-the-wire size of a PFC/GFC control frame including FCS: the Ethernet
/// minimum. Used for τ and bandwidth-overhead accounting (§4.2 uses
/// m = 64 B).
pub const CONTROL_FRAME_WIRE_BYTES: u64 = 64;
/// On-the-wire size of an InfiniBand FCP (operand + CRC + framing).
pub const FCP_WIRE_BYTES: u64 = 8;
/// On-the-wire size of a BFC per-flow pause frame: the flow id and pause
/// bit fit comfortably inside the Ethernet minimum.
pub const BFC_FRAME_WIRE_BYTES: u64 = 64;
/// On-the-wire size of a DCFIT tagged pause: the 64-byte PFC frame plus
/// an 8-byte initial-trigger tag TLV.
pub const DCFIT_FRAME_WIRE_BYTES: u64 = 72;

/// Errors from frame decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed frame layout.
    Truncated,
    /// EtherType/opcode/op-nibble not one we understand.
    UnknownKind,
    /// CRC mismatch (FCP only; Ethernet FCS is left to the MAC).
    BadCrc,
    /// A 12-bit field carried an out-of-range value.
    FieldRange,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::UnknownKind => write!(f, "unknown frame kind"),
            FrameError::BadCrc => write!(f, "bad CRC"),
            FrameError::FieldRange => write!(f, "field out of range"),
        }
    }
}

impl std::error::Error for FrameError {}

/// `N` bytes of `buf` from offset `at`; the caller has checked the length.
fn field<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf[at..at + N].try_into().expect("length checked by the caller")
}

/// Writes `bytes` into `buf` at offset `at`.
fn put<const N: usize>(buf: &mut [u8], at: usize, bytes: [u8; N]) {
    buf[at..at + N].copy_from_slice(&bytes);
}

/// A zero-padded MAC control frame with its 16-byte header filled in:
/// destination MAC, source MAC, EtherType and `opcode`.
fn mac_control_frame<const N: usize>(src_mac: [u8; 6], opcode: u16) -> [u8; N] {
    let mut b = [0u8; N];
    put(&mut b, 0, PFC_DST_MAC);
    put(&mut b, 6, src_mac);
    put(&mut b, 12, MAC_CONTROL_ETHERTYPE.to_be_bytes());
    put(&mut b, 14, opcode.to_be_bytes());
    b
}

/// Checks that `buf` holds at least `min` bytes and starts with a MAC
/// control header; returns its source MAC and opcode.
fn mac_control_header(buf: &[u8], min: usize) -> Result<([u8; 6], u16), FrameError> {
    if buf.len() < min {
        return Err(FrameError::Truncated);
    }
    if field(buf, 0) != PFC_DST_MAC || u16::from_be_bytes(field(buf, 12)) != MAC_CONTROL_ETHERTYPE {
        return Err(FrameError::UnknownKind);
    }
    Ok((field(buf, 6), u16::from_be_bytes(field(buf, 14))))
}

/// A PFC (or buffer-based-GFC) MAC control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcFrame {
    /// Source MAC of the emitting port.
    pub src_mac: [u8; 6],
    /// `true` → the `Time` fields are GFC stage IDs (opcode 0x0102);
    /// `false` → classic PFC pause quanta (opcode 0x0101).
    pub gfc: bool,
    /// Class-Enable Vector: bit `i` set ⇒ `time[i]` applies to priority `i`.
    pub class_enable: u8,
    /// Per-priority pause quanta (PFC) or stage IDs (GFC).
    pub time: [u16; 8],
}

impl PfcFrame {
    /// A classic PFC frame acting on one priority.
    pub fn pause(src_mac: [u8; 6], priority: u8, quanta: u16) -> Self {
        assert!(priority < 8);
        let mut time = [0u16; 8];
        time[priority as usize] = quanta;
        PfcFrame { src_mac, gfc: false, class_enable: 1 << priority, time }
    }

    /// A buffer-based GFC stage-feedback frame for one priority.
    pub fn gfc_stage(src_mac: [u8; 6], priority: u8, stage: u16) -> Self {
        assert!(priority < 8);
        let mut time = [0u16; 8];
        time[priority as usize] = stage;
        PfcFrame { src_mac, gfc: true, class_enable: 1 << priority, time }
    }

    /// The quanta/stage value for `priority`, if enabled in the CEV.
    pub fn value_for(&self, priority: u8) -> Option<u16> {
        assert!(priority < 8);
        if self.class_enable & (1 << priority) != 0 {
            Some(self.time[priority as usize])
        } else {
            None
        }
    }

    /// Serialize to the 64-byte wire format (including a zero placeholder
    /// FCS the MAC would fill in).
    pub fn encode(&self) -> [u8; CONTROL_FRAME_WIRE_BYTES as usize] {
        let opcode = if self.gfc { GFC_OPCODE } else { PFC_OPCODE };
        let mut b = mac_control_frame(self.src_mac, opcode);
        put(&mut b, 16, (self.class_enable as u16).to_be_bytes());
        for (i, t) in self.time.into_iter().enumerate() {
            put(&mut b, 18 + 2 * i, t.to_be_bytes());
        }
        // Zero padding to 60 B; the final 4 B stand in for the FCS.
        b
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        let (src_mac, opcode) = mac_control_header(buf, 34)?;
        let gfc = match opcode {
            PFC_OPCODE => false,
            GFC_OPCODE => true,
            _ => return Err(FrameError::UnknownKind),
        };
        let cev = u16::from_be_bytes(field(buf, 16));
        if cev > 0xFF {
            return Err(FrameError::FieldRange);
        }
        let time = std::array::from_fn(|i| u16::from_be_bytes(field(buf, 18 + 2 * i)));
        Ok(PfcFrame { src_mac, gfc, class_enable: cev as u8, time })
    }
}

/// CRC-16/CCITT-FALSE, as used by short link-layer control packets.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

/// FCP operand kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcpOp {
    /// Normal periodic flow-control update.
    Normal,
    /// Link-initialization advertisement.
    Init,
}

/// An InfiniBand flow-control packet (one virtual lane). See the module
/// docs for the 16-bit counter-width deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcpFrame {
    /// Operand.
    pub op: FcpOp,
    /// Virtual lane (0..=15).
    pub vl: u8,
    /// Sender's total-blocks-sent counter, 16-bit wrapping wire precision.
    pub fctbs: u16,
    /// Receiver's credit limit, 16-bit wrapping wire precision.
    pub fccl: u16,
}

impl FcpFrame {
    /// Build; panics on out-of-range VL.
    pub fn new(op: FcpOp, vl: u8, fctbs: u16, fccl: u16) -> Self {
        assert!(vl < 16, "VL out of range");
        FcpFrame { op, vl, fctbs, fccl }
    }

    /// Serialize: `op:4 | vl:4 | fctbs:16 | fccl:16` (5 bytes) + CRC-16 +
    /// 1 byte framing pad = 8 bytes on the wire.
    pub fn encode(&self) -> [u8; FCP_WIRE_BYTES as usize] {
        let op_bits: u8 = match self.op {
            FcpOp::Normal => 0x0,
            FcpOp::Init => 0x1,
        };
        let mut b = [0u8; FCP_WIRE_BYTES as usize];
        b[0] = (op_bits << 4) | (self.vl & 0xF);
        put(&mut b, 1, self.fctbs.to_be_bytes());
        put(&mut b, 3, self.fccl.to_be_bytes());
        let crc = crc16_ccitt(&b[..5]);
        put(&mut b, 5, crc.to_be_bytes());
        // b[7] is the framing pad.
        b
    }

    /// Parse and CRC-check.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 7 {
            return Err(FrameError::Truncated);
        }
        let head: [u8; 5] = field(buf, 0);
        if u16::from_be_bytes(field(buf, 5)) != crc16_ccitt(&head) {
            return Err(FrameError::BadCrc);
        }
        let op = match head[0] >> 4 {
            0x0 => FcpOp::Normal,
            0x1 => FcpOp::Init,
            _ => return Err(FrameError::UnknownKind),
        };
        Ok(FcpFrame {
            op,
            vl: head[0] & 0xF,
            fctbs: u16::from_be_bytes([head[1], head[2]]),
            fccl: u16::from_be_bytes([head[3], head[4]]),
        })
    }
}

/// A BFC per-flow pause/resume frame (opcode 0x0103): MAC-control
/// framing, then priority, pause bit, and the 64-bit flow id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfcFrame {
    /// Source MAC of the emitting port.
    pub src_mac: [u8; 6],
    /// Priority class the flow rides on.
    pub priority: u8,
    /// The flow being paused or resumed.
    pub flow: u64,
    /// `true` = pause, `false` = resume.
    pub pause: bool,
}

impl BfcFrame {
    /// Build; panics on out-of-range priority.
    pub fn new(src_mac: [u8; 6], priority: u8, flow: u64, pause: bool) -> Self {
        assert!(priority < 8);
        BfcFrame { src_mac, priority, flow, pause }
    }

    /// Serialize to the 64-byte wire format.
    pub fn encode(&self) -> [u8; BFC_FRAME_WIRE_BYTES as usize] {
        let mut b = mac_control_frame(self.src_mac, BFC_OPCODE);
        b[16] = self.priority;
        b[17] = self.pause as u8;
        put(&mut b, 18, self.flow.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        let (src_mac, opcode) = mac_control_header(buf, 26)?;
        if opcode != BFC_OPCODE {
            return Err(FrameError::UnknownKind);
        }
        let priority = buf[16];
        if priority >= 8 {
            return Err(FrameError::FieldRange);
        }
        let pause = match buf[17] {
            0 => false,
            1 => true,
            _ => return Err(FrameError::FieldRange),
        };
        let flow = u64::from_be_bytes(field(buf, 18));
        Ok(BfcFrame { src_mac, priority, flow, pause })
    }
}

/// A DCFIT tagged pause frame (opcode 0x0104): a single-priority PFC
/// pause plus the initial-trigger tag `(node, port, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcfitFrame {
    /// Source MAC of the emitting port.
    pub src_mac: [u8; 6],
    /// Priority class.
    pub priority: u8,
    /// Pause quanta; 0 = resume (PFC convention).
    pub quanta: u16,
    /// Tag: originating node.
    pub tag_node: u32,
    /// Tag: originating ingress port.
    pub tag_port: u16,
    /// Tag: chain sequence number.
    pub tag_seq: u16,
}

impl DcfitFrame {
    /// Build; panics on out-of-range priority.
    pub fn new(
        src_mac: [u8; 6],
        priority: u8,
        quanta: u16,
        tag_node: u32,
        tag_port: u16,
        tag_seq: u16,
    ) -> Self {
        assert!(priority < 8);
        DcfitFrame { src_mac, priority, quanta, tag_node, tag_port, tag_seq }
    }

    /// Serialize to the 72-byte wire format (64-byte control frame + tag
    /// TLV).
    pub fn encode(&self) -> [u8; DCFIT_FRAME_WIRE_BYTES as usize] {
        let mut b = mac_control_frame(self.src_mac, DCFIT_OPCODE);
        b[16] = self.priority;
        put(&mut b, 17, self.quanta.to_be_bytes());
        put(&mut b, 19, self.tag_node.to_be_bytes());
        put(&mut b, 23, self.tag_port.to_be_bytes());
        put(&mut b, 25, self.tag_seq.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        let (src_mac, opcode) = mac_control_header(buf, 27)?;
        if opcode != DCFIT_OPCODE {
            return Err(FrameError::UnknownKind);
        }
        let priority = buf[16];
        if priority >= 8 {
            return Err(FrameError::FieldRange);
        }
        Ok(DcfitFrame {
            src_mac,
            priority,
            quanta: u16::from_be_bytes(field(buf, 17)),
            tag_node: u32::from_be_bytes(field(buf, 19)),
            tag_port: u16::from_be_bytes(field(buf, 23)),
            tag_seq: u16::from_be_bytes(field(buf, 25)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: [u8; 6] = [0x02, 0x00, 0x00, 0x00, 0x00, 0x01];

    #[test]
    fn pfc_roundtrip() {
        let f = PfcFrame::pause(SRC, 3, 0xFFFF);
        let wire = f.encode();
        assert_eq!(wire.len() as u64, CONTROL_FRAME_WIRE_BYTES);
        let g = PfcFrame::decode(&wire).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.value_for(3), Some(0xFFFF));
        assert_eq!(g.value_for(2), None);
    }

    #[test]
    fn gfc_stage_roundtrip() {
        let f = PfcFrame::gfc_stage(SRC, 0, 7);
        let g = PfcFrame::decode(&f.encode()).unwrap();
        assert!(g.gfc);
        assert_eq!(g.value_for(0), Some(7));
    }

    #[test]
    fn pfc_rejects_wrong_ethertype() {
        let mut wire = PfcFrame::pause(SRC, 0, 1).encode();
        wire[12] = 0x08;
        wire[13] = 0x00; // IPv4 ethertype
        assert_eq!(PfcFrame::decode(&wire), Err(FrameError::UnknownKind));
    }

    #[test]
    fn pfc_rejects_truncated() {
        let wire = PfcFrame::pause(SRC, 0, 1).encode();
        assert_eq!(PfcFrame::decode(&wire[..20]), Err(FrameError::Truncated));
    }

    #[test]
    fn fcp_roundtrip() {
        let f = FcpFrame::new(FcpOp::Normal, 2, 65_535, 123);
        let g = FcpFrame::decode(&f.encode()).unwrap();
        assert_eq!(f, g);
        assert_eq!(f.encode().len() as u64, FCP_WIRE_BYTES);
    }

    #[test]
    fn fcp_detects_corruption() {
        let wire = FcpFrame::new(FcpOp::Init, 0, 1, 2).encode();
        let mut bad = wire;
        bad[1] ^= 0x40;
        assert_eq!(FcpFrame::decode(&bad), Err(FrameError::BadCrc));
    }

    #[test]
    #[should_panic(expected = "VL out of range")]
    fn fcp_rejects_oversize_vl() {
        FcpFrame::new(FcpOp::Normal, 16, 0, 0);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn bfc_roundtrip() {
        let f = BfcFrame::new(SRC, 5, u64::MAX - 3, true);
        let wire = f.encode();
        assert_eq!(wire.len() as u64, BFC_FRAME_WIRE_BYTES);
        assert_eq!(BfcFrame::decode(&wire).unwrap(), f);
        let r = BfcFrame::new(SRC, 0, 0, false);
        assert_eq!(BfcFrame::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn bfc_rejects_foreign_opcode() {
        // A classic PFC frame is not a BFC frame.
        let wire = PfcFrame::pause(SRC, 0, 1).encode();
        assert_eq!(BfcFrame::decode(&wire), Err(FrameError::UnknownKind));
    }

    #[test]
    fn dcfit_roundtrip() {
        let f = DcfitFrame::new(SRC, 3, 0xFFFF, 70_000, 12, 9);
        let wire = f.encode();
        assert_eq!(wire.len() as u64, DCFIT_FRAME_WIRE_BYTES);
        assert_eq!(DcfitFrame::decode(&wire).unwrap(), f);
        // Resume (quanta 0) keeps the tag of the pause it clears.
        let r = DcfitFrame::new(SRC, 3, 0, 70_000, 12, 9);
        assert_eq!(DcfitFrame::decode(&r.encode()).unwrap().quanta, 0);
    }

    #[test]
    fn dcfit_rejects_bad_priority() {
        let mut bad = DcfitFrame::new(SRC, 3, 1, 2, 3, 4).encode();
        bad[16] = 8; // priority byte
        assert_eq!(DcfitFrame::decode(&bad), Err(FrameError::FieldRange));
    }

    #[test]
    fn all_priorities_roundtrip() {
        for p in 0..8u8 {
            let f = PfcFrame::gfc_stage(SRC, p, p as u16 + 1);
            let g = PfcFrame::decode(&f.encode()).unwrap();
            assert_eq!(g.value_for(p), Some(p as u16 + 1));
        }
    }
}

//! Property-based tests of the wire codecs: every encodable frame decodes
//! back to itself, truncated frames are rejected, and corrupted FCPs are
//! rejected.

use gfc_core::cbfc::{wrap16_advance, wrap_advance};
use gfc_core::frames::{crc16_ccitt, BfcFrame, DcfitFrame, FcpFrame, FcpOp, FrameError, PfcFrame};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// Every prefix of `wire` shorter than `min` bytes decodes to
/// `Err(Truncated)`; every longer prefix decodes to `frame`.
fn prefixes_decode<F: PartialEq + std::fmt::Debug>(
    wire: &[u8],
    min: usize,
    frame: &F,
    decode: fn(&[u8]) -> Result<F, FrameError>,
) -> TestCaseResult {
    for len in 0..=wire.len() {
        let got = decode(&wire[..len]);
        let want = if len < min { Err(&FrameError::Truncated) } else { Ok(frame) };
        prop_assert!(got.as_ref() == want, "{}-byte prefix: {:?}", len, got);
    }
    Ok(())
}

proptest! {
    #[test]
    fn pfc_pause_roundtrips(src in proptest::array::uniform6(0u8..), prio in 0u8..8, quanta: u16) {
        let f = PfcFrame::pause(src, prio, quanta);
        let g = PfcFrame::decode(&f.encode()).unwrap();
        prop_assert_eq!(f, g);
        prop_assert_eq!(g.value_for(prio), Some(quanta));
        for other in 0..8u8 {
            if other != prio {
                prop_assert_eq!(g.value_for(other), None);
            }
        }
    }

    #[test]
    fn gfc_stage_roundtrips(src in proptest::array::uniform6(0u8..), prio in 0u8..8, stage: u16) {
        let f = PfcFrame::gfc_stage(src, prio, stage);
        let g = PfcFrame::decode(&f.encode()).unwrap();
        prop_assert!(g.gfc);
        prop_assert_eq!(g.value_for(prio), Some(stage));
    }

    #[test]
    fn fcp_roundtrips(vl in 0u8..16, fctbs: u16, fccl: u16) {
        let f = FcpFrame::new(FcpOp::Normal, vl, fctbs, fccl);
        prop_assert_eq!(FcpFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn fcp_detects_any_single_byte_corruption(
        vl in 0u8..16,
        fctbs: u16,
        fccl: u16,
        pos in 0usize..7,
        flip in 1u8..=255,
    ) {
        let f = FcpFrame::new(FcpOp::Init, vl, fctbs, fccl);
        let wire = f.encode();
        let mut bad = wire.to_vec();
        bad[pos] ^= flip;
        // Corruption in the operand or CRC bytes must be caught; the pad
        // byte (index 7) is outside the checksum.
        if pos < 7 {
            match FcpFrame::decode(&bad) {
                Err(FrameError::BadCrc) | Err(FrameError::UnknownKind) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "corruption at byte {pos} undetected: {decoded:?}"
                ),
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn truncated_frames_never_panic(
        src in proptest::array::uniform6(0u8..),
        prio in 0u8..8,
        value: u16,
        flow: u64,
        tag_node: u32,
        pause: bool,
    ) {
        let pfc = PfcFrame::pause(src, prio, value);
        prefixes_decode(&pfc.encode(), 38, &pfc, PfcFrame::decode)?;
        let gfc = PfcFrame::gfc_stage(src, prio, value);
        prefixes_decode(&gfc.encode(), 38, &gfc, PfcFrame::decode)?;
        let fcp = FcpFrame::new(FcpOp::Normal, prio, value, !value);
        prefixes_decode(&fcp.encode(), 7, &fcp, FcpFrame::decode)?;
        let bfc = BfcFrame::new(src, prio, flow, pause);
        prefixes_decode(&bfc.encode(), 26, &bfc, BfcFrame::decode)?;
        let dcfit = DcfitFrame::new(src, prio, value, tag_node, !value, value ^ 0x5A5A);
        prefixes_decode(&dcfit.encode(), 27, &dcfit, DcfitFrame::decode)?;
    }

    #[test]
    fn crc_detects_single_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..64), bit in 0usize..512) {
        let bit = bit % (data.len() * 8);
        let mut flipped = data.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc16_ccitt(&data), crc16_ccitt(&flipped));
    }

    #[test]
    fn wrap_reconstruction_is_exact_for_small_steps(
        start in 0u64..1_000_000,
        steps in proptest::collection::vec(0u64..65_536, 1..50),
    ) {
        let mut truth = start;
        let mut recon = start;
        for step in steps {
            truth += step;
            recon = wrap16_advance(recon, (truth & 0xFFFF) as u16);
            prop_assert_eq!(recon, truth);
        }
    }

    #[test]
    fn wrap_advance_is_minimal(prev in 0u64..1_000_000, wire in 0u64..4096) {
        let v = wrap_advance(prev, wire, 12);
        prop_assert!(v >= prev);
        prop_assert_eq!(v % 4096, wire);
        prop_assert!(v - prev < 4096, "not the minimal advance");
    }
}

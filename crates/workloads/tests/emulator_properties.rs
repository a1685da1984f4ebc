//! Property-based tests of the emulator: the architectural semantics agree
//! with Rust's own arithmetic on randomly generated programs.

use ce_isa::asm::assemble;
use ce_isa::Reg;
use ce_workloads::synthetic::{generate, SyntheticConfig};
use ce_workloads::{Emulator, Memory};
use proptest::prelude::*;
use std::collections::HashMap;

/// Interpret a tiny op list both in Rust and in the emulator and compare.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(i32),
    Xor(i32),
    ShiftLeft(u8),
    ShiftRightArith(u8),
    SetLessThan(i32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-30000i32..30000).prop_map(Op::Add),
        (0i32..0xFFFF).prop_map(Op::Xor),
        (0u8..31).prop_map(Op::ShiftLeft),
        (0u8..31).prop_map(Op::ShiftRightArith),
        (-30000i32..30000).prop_map(Op::SetLessThan),
    ]
}

proptest! {
    /// The emulator computes exactly what a Rust reference model computes.
    #[test]
    fn emulator_matches_reference(start in -1000i32..1000, ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut src = format!("li t0, {start}\n");
        let mut expected = start;
        for op in &ops {
            match op {
                Op::Add(v) => {
                    src.push_str(&format!("addiu t0, t0, {v}\n"));
                    expected = expected.wrapping_add(*v);
                }
                Op::Xor(v) => {
                    src.push_str(&format!("xori t0, t0, {v}\n"));
                    expected ^= *v;
                }
                Op::ShiftLeft(s) => {
                    src.push_str(&format!("sll t0, t0, {s}\n"));
                    expected = ((expected as u32) << s) as i32;
                }
                Op::ShiftRightArith(s) => {
                    src.push_str(&format!("sra t0, t0, {s}\n"));
                    expected >>= s;
                }
                Op::SetLessThan(v) => {
                    src.push_str(&format!("slti t0, t0, {v}\n"));
                    expected = i32::from(expected < *v);
                }
            }
        }
        src.push_str("halt\n");
        let program = assemble(&src).expect("assembles");
        let mut emu = Emulator::new(&program);
        emu.run_to_completion(10_000).expect("halts");
        prop_assert_eq!(emu.reg(Reg::T0) as i32, expected);
    }

    /// Memory round-trips arbitrary word values at arbitrary (aligned)
    /// offsets.
    #[test]
    fn store_load_roundtrip(value in any::<u32>(), slot in 0u32..256) {
        let offset = slot * 4;
        let src = format!(
            ".data\nbuf: .space 1024\n.text\nli t0, {}\nsw t0, {offset}(gp)\nlw t1, {offset}(gp)\nhalt\n",
            value as i64
        );
        let program = assemble(&src).expect("assembles");
        let mut emu = Emulator::new(&program);
        emu.run_to_completion(100).expect("halts");
        prop_assert_eq!(emu.reg(Reg::new(9)), value);
    }

    /// Halfword and word accesses agree with a byte-at-a-time reference
    /// model, including accesses that straddle a page boundary and ones
    /// that wrap past the top of the address space. Addresses cluster a
    /// few bytes around page edges (edge 0 minus a few bytes wraps) so
    /// reads overlap earlier writes; one in six is anywhere at all.
    #[test]
    fn memory_matches_bytewise_reference(
        ops in proptest::collection::vec(
            (0u8..6, 0usize..6, -6i32..6, any::<u32>(), any::<u32>()),
            1..80,
        )
    ) {
        const EDGES: [u32; 5] = [0, 0x1000, 0x1000_2000, 0x7fff_f000, 0xffff_f000];
        let mut mem = Memory::new();
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (kind, edge, delta, anywhere, value) in ops {
            let addr = match EDGES.get(edge) {
                Some(base) => base.wrapping_add_signed(delta),
                None => anywhere,
            };
            let width = [1u32, 2, 4][usize::from(kind % 3)];
            let at = |i: u32| addr.wrapping_add(i);
            if kind < 3 {
                for i in 0..width {
                    model.insert(at(i), (value >> (8 * i)) as u8);
                }
                match width {
                    1 => mem.write_byte(addr, value as u8),
                    2 => mem.write_half(addr, value as u16),
                    _ => mem.write_word(addr, value),
                }
            } else {
                let expected = (0..width).fold(0u32, |acc, i| {
                    acc | u32::from(model.get(&at(i)).copied().unwrap_or(0)) << (8 * i)
                });
                let got = match width {
                    1 => u32::from(mem.read_byte(addr)),
                    2 => u32::from(mem.read_half(addr)),
                    _ => mem.read_word(addr),
                };
                prop_assert_eq!(got, expected, "{width}-byte read at {addr:#x}");
            }
        }
    }

    /// Synthetic traces always have dense sequence numbers, consistent
    /// next-PC chaining for non-taken instructions, and end with halt.
    #[test]
    fn synthetic_traces_are_well_formed(seed in any::<u64>(), len in 1usize..500) {
        let config = SyntheticConfig { seed, ..SyntheticConfig::default() };
        let trace = generate(&config, len);
        prop_assert_eq!(trace.len(), len + 1);
        prop_assert!(trace.is_completed());
        for (i, d) in trace.iter().enumerate() {
            prop_assert_eq!(d.seq, i as u64);
            if !d.taken {
                prop_assert_eq!(d.next_pc, d.pc.wrapping_add(4));
            }
            if d.inst.opcode.is_load() || d.inst.opcode.is_store() {
                prop_assert!(d.mem_addr.is_some());
            }
        }
    }
}

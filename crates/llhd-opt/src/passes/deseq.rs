//! Desequentialization (Deseq, §4.6).
//!
//! Recognises flip-flops and latches in processes that TCM/TCFE have
//! canonicalized into two basic blocks (one temporal region before the
//! `wait`, one after). The condition of each drive is brought into
//! disjunctive normal form; terms that compare a "past" sample of a signal
//! (probed before the wait) against its "present" sample (probed after the
//! wait) are recognised as edge triggers, everything else becomes a level
//! trigger or a gating condition. Each successfully analysed drive becomes a
//! `reg` storage element in the resulting entity.

use crate::dnf::{dnf_of, Literal};
use llhd::analysis::{ControlFlowGraph, TemporalRegionGraph};
use llhd::ir::{
    Block, InstData, Opcode, RegMode, RegTrigger, UnitData, UnitKind, Value, ValueDef,
};
use std::collections::{BTreeMap, HashMap};

/// Try to desequentialize a process into an entity containing `reg`
/// storage elements. Returns `None` if the process does not match the
/// expected two-region shape or a drive cannot be mapped to a register.
pub fn desequentialize(unit: &UnitData) -> Option<UnitData> {
    if unit.kind() != UnitKind::Process {
        return None;
    }
    let blocks = unit.blocks();
    if blocks.len() != 2 {
        return None;
    }
    let cfg = ControlFlowGraph::new(unit);
    let trg = TemporalRegionGraph::new(unit, &cfg);
    if trg.num_regions() != 2 {
        return None;
    }
    // Identify the "past" block (ends in the wait) and the "present" block.
    let (past, present) = classify_blocks(unit, &blocks)?;

    // Reject anything but pure computation, probes, constants, drives, and
    // the terminators.
    for &block in &blocks {
        for inst in unit.insts(block) {
            let op = unit.inst_data(inst).opcode;
            let ok = op.is_pure()
                || matches!(
                    op,
                    Opcode::Prb
                        | Opcode::Drv
                        | Opcode::DrvCond
                        | Opcode::Wait
                        | Opcode::WaitTime
                        | Opcode::Br
                        | Opcode::BrCond
                );
            if !ok {
                return None;
            }
        }
    }

    // Build the replacement entity.
    let mut entity = UnitData::new(UnitKind::Entity, unit.name().clone(), unit.sig().clone());
    let mut importer = Importer {
        unit,
        map: HashMap::new(),
        present,
    };
    for (old, new) in unit.args().into_iter().zip(entity.args()) {
        importer.map.insert(old, new);
        if let Some(name) = unit.value_name(old) {
            entity.set_value_name(new, name.to_string());
        }
    }

    let mut lowered_any = false;
    for inst in unit.insts(present) {
        let data = unit.inst_data(inst);
        let (signal, value, condition) = match data.opcode {
            Opcode::Drv => (data.args[0], data.args[1], None),
            Opcode::DrvCond => (data.args[0], data.args[1], Some(data.args[3])),
            _ => continue,
        };
        // Unconditional drives in a clocked process would describe wires
        // driven every delta; they are not storage elements.
        let condition = condition?;
        let dnf = dnf_of(unit, condition, false);
        if dnf.is_false() || dnf.is_true() || dnf.terms().is_empty() {
            return None;
        }
        let mut triggers = vec![];
        for term in dnf.terms() {
            let trigger = analyse_term(unit, &mut importer, &mut entity, term, past, present)?;
            triggers.push(trigger);
        }
        let stored = importer.import(&mut entity, value)?;
        let signal_in_entity = importer.import(&mut entity, signal)?;
        let triggers = triggers
            .into_iter()
            .map(|t| RegTrigger {
                value: stored,
                mode: t.mode,
                trigger: t.trigger,
                gate: t.gate,
            })
            .collect();
        let body = entity.entry_block().unwrap();
        let mut reg = InstData::new(Opcode::Reg, vec![signal_in_entity]);
        reg.triggers = triggers;
        entity.append_inst(body, reg, None);
        lowered_any = true;
    }
    if !lowered_any {
        return None;
    }
    Some(entity)
}

/// Identify the past (pre-wait) and present (post-wait) blocks.
fn classify_blocks(unit: &UnitData, blocks: &[Block]) -> Option<(Block, Block)> {
    let is_wait = |b: Block| {
        unit.terminator(b).is_some_and(|t| {
            matches!(
                unit.inst_data(t).opcode,
                Opcode::Wait | Opcode::WaitTime
            )
        })
    };
    match (is_wait(blocks[0]), is_wait(blocks[1])) {
        (true, false) => Some((blocks[0], blocks[1])),
        (false, true) => Some((blocks[1], blocks[0])),
        _ => None,
    }
}

/// One analysed trigger before the stored value is attached.
struct AnalysedTrigger {
    mode: RegMode,
    trigger: Value,
    gate: Option<Value>,
}

/// Classify one DNF term into an edge or level trigger plus gate conditions.
fn analyse_term(
    unit: &UnitData,
    importer: &mut Importer,
    entity: &mut UnitData,
    term: &crate::dnf::Term,
    past: Block,
    present: Block,
) -> Option<AnalysedTrigger> {
    // Partition literals into past samples, present samples, and the rest.
    let probe_info = |value: Value| -> Option<(Value, Block)> {
        match unit.value_def(value) {
            ValueDef::Inst(inst) => {
                let data = unit.inst_data(inst);
                if data.opcode == Opcode::Prb {
                    Some((data.args[0], unit.inst_block(inst)?))
                } else {
                    None
                }
            }
            _ => None,
        }
    };

    // Ordered maps: the gate literals are collected by iterating these,
    // and their order is the order the gate instructions are emitted in.
    let mut past_samples: BTreeMap<Value, &Literal> = BTreeMap::new();
    let mut present_samples: BTreeMap<Value, &Literal> = BTreeMap::new();
    let mut others: Vec<&Literal> = vec![];
    for literal in term.literals() {
        match probe_info(literal.value) {
            Some((signal, block)) if block == past => {
                past_samples.insert(signal, literal);
            }
            Some((signal, block)) if block == present => {
                present_samples.insert(signal, literal);
            }
            _ => others.push(literal),
        }
    }

    // Find a signal sampled both in the past and in the present: that is the
    // edge trigger candidate.
    let mut edge: Option<(Value, RegMode)> = None;
    for (&signal, past_lit) in &past_samples {
        if let Some(present_lit) = present_samples.get(&signal) {
            let mode = match (past_lit.negated, present_lit.negated) {
                (true, false) => RegMode::Rise,
                (false, true) => RegMode::Fall,
                _ => continue,
            };
            if edge.is_some() {
                // More than one edge per term is not a realisable storage
                // element.
                return None;
            }
            edge = Some((signal, mode));
        }
    }

    match edge {
        Some((signal, mode)) => {
            // Remaining present samples and opaque literals gate the trigger.
            let mut gate_literals: Vec<Literal> = others.iter().map(|&&l| l).collect();
            for (&other_signal, &lit) in &present_samples {
                if other_signal != signal {
                    gate_literals.push(*lit);
                }
            }
            // Past samples of other signals cannot be reproduced in an
            // entity.
            if past_samples.len() > 1 {
                return None;
            }
            let trigger = importer.import_probe(entity, signal)?;
            let gate = importer.import_literals(entity, &gate_literals)?;
            Some(AnalysedTrigger {
                mode,
                trigger,
                gate,
            })
        }
        None => {
            // No edge: this is a level-sensitive latch. Any past samples
            // would have no hardware equivalent.
            if !past_samples.is_empty() {
                return None;
            }
            let mut literals: Vec<Literal> = others.iter().map(|&&l| l).collect();
            literals.extend(present_samples.values().map(|&&l| l));
            if literals.is_empty() {
                return None;
            }
            if literals.len() == 1 {
                let lit = literals[0];
                let trigger = importer.import(entity, lit.value)?;
                let mode = if lit.negated {
                    RegMode::Low
                } else {
                    RegMode::High
                };
                Some(AnalysedTrigger {
                    mode,
                    trigger,
                    gate: None,
                })
            } else {
                let trigger = importer.import_literals(entity, &literals)??;
                Some(AnalysedTrigger {
                    mode: RegMode::High,
                    trigger,
                    gate: None,
                })
            }
        }
    }
}

/// Imports value DFGs from the process into the entity.
struct Importer<'a> {
    unit: &'a UnitData,
    map: HashMap<Value, Value>,
    present: Block,
}

impl<'a> Importer<'a> {
    /// Import a value, recreating its defining instructions in the entity.
    /// Only constants, probes of the present region, pure operations, and
    /// unit arguments can be imported.
    fn import(&mut self, entity: &mut UnitData, value: Value) -> Option<Value> {
        if let Some(&mapped) = self.map.get(&value) {
            return Some(mapped);
        }
        let inst = match self.unit.value_def(value) {
            ValueDef::Arg(_) => unreachable!("arguments are pre-mapped"),
            ValueDef::Inst(inst) => inst,
            ValueDef::Invalid => return None,
        };
        let data = self.unit.inst_data(inst).clone();
        let new_value = match data.opcode {
            Opcode::Const => {
                let body = entity.entry_block().unwrap();
                let konst = data.konst.clone().unwrap();
                let ty = konst.ty();
                let new_inst = entity.append_inst(body, InstData::constant(konst), Some(ty));
                entity.inst_result(new_inst)
            }
            Opcode::Prb => {
                // Only probes of the present region represent the current
                // signal value an entity can observe.
                if self.unit.inst_block(inst) != Some(self.present) {
                    return None;
                }
                let signal = self.import(entity, data.args[0])?;
                let body = entity.entry_block().unwrap();
                let ty = entity.value_type(signal).unwrap_signal().clone();
                let new_inst =
                    entity.append_inst(body, InstData::new(Opcode::Prb, vec![signal]), Some(ty));
                entity.inst_result(new_inst)
            }
            op if op.is_pure() => {
                let mut args = Vec::with_capacity(data.args.len());
                for &arg in &data.args {
                    args.push(self.import(entity, arg)?);
                }
                let body = entity.entry_block().unwrap();
                let mut new_data = InstData::new(op, args);
                new_data.imms = data.imms.clone();
                let result_ty = self
                    .unit
                    .get_inst_result(inst)
                    .map(|r| self.unit.value_type(r));
                let new_inst = entity.append_inst(body, new_data, result_ty);
                entity.inst_result(new_inst)
            }
            _ => return None,
        };
        if let Some(old_result) = self.unit.get_inst_result(inst) {
            if let Some(name) = self.unit.value_name(old_result) {
                entity.set_value_name(new_value, name.to_string());
            }
        }
        self.map.insert(value, new_value);
        Some(new_value)
    }

    /// Import a probe of `signal` (creating it if the process never probed
    /// the signal in the present region).
    fn import_probe(&mut self, entity: &mut UnitData, signal: Value) -> Option<Value> {
        let signal_in_entity = self.import(entity, signal)?;
        let body = entity.entry_block().unwrap();
        // Reuse an existing probe of the same signal if one was already
        // imported.
        for inst in entity.insts(body) {
            let data = entity.inst_data(inst);
            if data.opcode == Opcode::Prb && data.args[0] == signal_in_entity {
                return Some(entity.inst_result(inst));
            }
        }
        let ty = entity.value_type(signal_in_entity).unwrap_signal().clone();
        let new_inst = entity.append_inst(
            body,
            InstData::new(Opcode::Prb, vec![signal_in_entity]),
            Some(ty),
        );
        Some(entity.inst_result(new_inst))
    }

    /// Import a conjunction of literals as a single `i1` value. Returns
    /// `Ok(None)`-style `Some(None)` when there are no literals.
    fn import_literals(
        &mut self,
        entity: &mut UnitData,
        literals: &[Literal],
    ) -> Option<Option<Value>> {
        let mut acc: Option<Value> = None;
        for literal in literals {
            let mut value = self.import(entity, literal.value)?;
            let body = entity.entry_block().unwrap();
            if literal.negated {
                let ty = entity.value_type(value);
                let not_inst =
                    entity.append_inst(body, InstData::new(Opcode::Not, vec![value]), Some(ty));
                value = entity.inst_result(not_inst);
            }
            acc = Some(match acc {
                None => value,
                Some(prev) => {
                    let ty = entity.value_type(value);
                    let and_inst = entity.append_inst(
                        body,
                        InstData::new(Opcode::And, vec![prev, value]),
                        Some(ty),
                    );
                    entity.inst_result(and_inst)
                }
            });
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::{parse_module, write_unit};
    use llhd::verifier::{unit_dialect, verify_unit, Dialect};

    /// The flip-flop process after TCM and TCFE (Figure 5d/f): two blocks,
    /// drive condition `%posedge`.
    const ACC_FF_CANONICAL: &str = r#"
        proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
        init:
            %delay = const time 1ns
            %clk0 = prb i1$ %clk
            wait %check, %clk
        check:
            %clk1 = prb i1$ %clk
            %dp = prb i32$ %d
            %chg = neq i1 %clk0, %clk1
            %posedge = and i1 %chg, %clk1
            drv i32$ %q, %dp after %delay if %posedge
            br %init
        }
    "#;

    #[test]
    fn rising_edge_flip_flop_is_recognised() {
        let module = parse_module(ACC_FF_CANONICAL).unwrap();
        let unit = module.unit(module.units()[0]);
        let entity = desequentialize(unit).expect("should desequentialize");
        assert!(verify_unit(&entity).is_ok(), "{}", write_unit(&entity));
        assert_eq!(unit_dialect(&entity), Dialect::Structural);
        // Exactly one reg with a single rising-edge trigger on the clock.
        let regs: Vec<_> = entity
            .all_insts()
            .into_iter()
            .filter(|&i| entity.inst_data(i).opcode == Opcode::Reg)
            .collect();
        assert_eq!(regs.len(), 1);
        let data = entity.inst_data(regs[0]);
        assert_eq!(data.triggers.len(), 1);
        assert_eq!(data.triggers[0].mode, RegMode::Rise);
        assert!(data.triggers[0].gate.is_none());
        // The trigger is a probe of the clock input.
        let trigger = data.triggers[0].trigger;
        match entity.value_def(trigger) {
            ValueDef::Inst(inst) => {
                let d = entity.inst_data(inst);
                assert_eq!(d.opcode, Opcode::Prb);
                assert_eq!(d.args[0], entity.arg_value(0));
            }
            other => panic!("trigger should be a probe, got {:?}", other),
        }
        // The stored value is a probe of %d.
        let stored = data.triggers[0].value;
        match entity.value_def(stored) {
            ValueDef::Inst(inst) => {
                assert_eq!(entity.inst_data(inst).opcode, Opcode::Prb);
                assert_eq!(entity.inst_data(inst).args[0], entity.arg_value(1));
            }
            other => panic!("stored value should be a probe, got {:?}", other),
        }
    }

    #[test]
    fn falling_edge_and_gated_flip_flop() {
        let src = r#"
        proc @ff (i1$ %clk, i1$ %en, i8$ %d) -> (i8$ %q) {
        init:
            %delay = const time 1ns
            %clk0 = prb i1$ %clk
            wait %check, %clk
        check:
            %clk1 = prb i1$ %clk
            %dp = prb i8$ %d
            %enp = prb i1$ %en
            %nclk1 = not i1 %clk1
            %fall = and i1 %clk0, %nclk1
            %cond = and i1 %fall, %enp
            drv i8$ %q, %dp after %delay if %cond
            br %init
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let entity = desequentialize(unit).expect("should desequentialize");
        assert!(verify_unit(&entity).is_ok());
        let reg = entity
            .all_insts()
            .into_iter()
            .find(|&i| entity.inst_data(i).opcode == Opcode::Reg)
            .unwrap();
        let data = entity.inst_data(reg);
        assert_eq!(data.triggers.len(), 1);
        assert_eq!(data.triggers[0].mode, RegMode::Fall);
        assert!(data.triggers[0].gate.is_some(), "enable must gate the trigger");
    }

    #[test]
    fn level_sensitive_latch_is_recognised() {
        let src = r#"
        proc @latch (i1$ %en, i8$ %d) -> (i8$ %q) {
        init:
            %delay = const time 1ns
            wait %body, %en, %d
        body:
            %enp = prb i1$ %en
            %dp = prb i8$ %d
            drv i8$ %q, %dp after %delay if %enp
            br %init
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        let entity = desequentialize(unit).expect("should desequentialize");
        let reg = entity
            .all_insts()
            .into_iter()
            .find(|&i| entity.inst_data(i).opcode == Opcode::Reg)
            .unwrap();
        let data = entity.inst_data(reg);
        assert_eq!(data.triggers.len(), 1);
        assert_eq!(data.triggers[0].mode, RegMode::High);
    }

    #[test]
    fn unconditional_drive_rejects() {
        let src = r#"
        proc @p (i1$ %clk, i8$ %d) -> (i8$ %q) {
        init:
            %delay = const time 1ns
            wait %body, %clk
        body:
            %dp = prb i8$ %d
            drv i8$ %q, %dp after %delay
            br %init
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        assert!(desequentialize(unit).is_none());
    }

    #[test]
    fn three_block_process_rejects() {
        let src = r#"
        proc @p (i1$ %clk) -> (i1$ %q) {
        a:
            wait %b, %clk
        b:
            %c = prb i1$ %clk
            br %c, %a, %d
        d:
            %one = const i1 1
            %delay = const time 1ns
            drv i1$ %q, %one after %delay
            br %a
        }
        "#;
        let module = parse_module(src).unwrap();
        let unit = module.unit(module.units()[0]);
        assert!(desequentialize(unit).is_none());
    }
}

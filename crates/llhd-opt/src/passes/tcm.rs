//! Temporal Code Motion (TCM, §4.3).
//!
//! `wait` instructions subdivide a process into temporal regions. TCM
//! ensures every temporal region has a single exiting block, then moves all
//! `drv` instructions into that block. The condition under which control
//! originally reached a `drv` is reconstructed from the branch decisions
//! along the way and attached to the instruction as its drive condition.
//! Finally, multiple drives of the same signal in the exiting block are
//! coalesced into a single drive selecting its value with a `mux` — the
//! data-flow equivalent of the `phi` the paper shows in Figure 5f/g.

use llhd::analysis::{ControlFlowGraph, DominatorTree, TemporalRegion, TemporalRegionGraph};
use llhd::ir::{Block, Inst, InstData, Opcode, UnitData, UnitKind, Value, ValueDef};
use std::collections::{BTreeMap, HashMap};

/// Run temporal code motion on a process. Returns `true` if anything
/// changed.
pub fn run(unit: &mut UnitData) -> bool {
    if unit.kind() != UnitKind::Process {
        return false;
    }
    let mut changed = false;
    changed |= ensure_single_exit_blocks(unit);
    changed |= move_drives(unit);
    changed |= coalesce_drives(unit);
    changed
}

/// Insert auxiliary blocks so that each temporal region has a single block
/// through which control leaves towards another region (§4.3.2).
fn ensure_single_exit_blocks(unit: &mut UnitData) -> bool {
    let cfg = ControlFlowGraph::new(unit);
    let trg = TemporalRegionGraph::new(unit, &cfg);
    let mut changed = false;
    for region_idx in 0..trg.num_regions() {
        let region = TemporalRegion(region_idx as u32);
        // Collect branch arcs that leave the region, grouped by target block.
        // Ordered by target block, so the aux blocks are created in the
        // same order on every run.
        let mut arcs: BTreeMap<Block, Vec<Block>> = BTreeMap::new();
        let mut has_wait_exit = false;
        for block in trg.blocks_in(unit, region) {
            let Some(term) = unit.terminator(block) else {
                continue;
            };
            let data = unit.inst_data(term);
            match data.opcode {
                Opcode::Wait | Opcode::WaitTime | Opcode::Halt => has_wait_exit = true,
                Opcode::Br | Opcode::BrCond => {
                    for &target in &data.blocks {
                        if trg.region(target) != region {
                            arcs.entry(target).or_default().push(block);
                        }
                    }
                }
                _ => {}
            }
        }
        if has_wait_exit {
            // The wait block is the natural single exit; branch arcs leaving
            // the same region would be unusual and are left untouched.
            continue;
        }
        for (target, sources) in arcs {
            if sources.len() < 2 {
                continue;
            }
            // Create the auxiliary block and redirect all arcs through it.
            let aux = unit.create_block_after(Some("aux".to_string()), *sources.last().unwrap());
            for source in sources {
                let term = unit.terminator(source).unwrap();
                unit.inst_data_mut(term).replace_block(target, aux);
            }
            let mut br = InstData::new(Opcode::Br, vec![]);
            br.blocks = vec![target];
            unit.append_inst(aux, br, None);
            changed = true;
        }
    }
    changed
}

/// The single exiting block of each region, if it exists.
fn exit_block_per_region(
    unit: &UnitData,
    cfg: &ControlFlowGraph,
    trg: &TemporalRegionGraph,
) -> HashMap<TemporalRegion, Block> {
    let mut exits = HashMap::new();
    for region_idx in 0..trg.num_regions() {
        let region = TemporalRegion(region_idx as u32);
        let exiting = trg.exiting_blocks(unit, cfg, region);
        if exiting.len() == 1 {
            exits.insert(region, exiting[0]);
        }
    }
    exits
}

/// Move `drv` instructions into the single exiting block of their temporal
/// region, attaching the reconstructed path condition (§4.3.3).
fn move_drives(unit: &mut UnitData) -> bool {
    let cfg = ControlFlowGraph::new(unit);
    let trg = TemporalRegionGraph::new(unit, &cfg);
    let domtree = DominatorTree::new(unit, &cfg);
    let exits = exit_block_per_region(unit, &cfg, &trg);
    let mut changed = false;

    for inst in unit.all_insts() {
        let data = unit.inst_data(inst);
        if !matches!(data.opcode, Opcode::Drv | Opcode::DrvCond) {
            continue;
        }
        let block = unit.inst_block(inst).unwrap();
        let region = trg.region(block);
        let Some(&exit) = exits.get(&region) else {
            continue;
        };
        if block == exit {
            continue;
        }
        let Some(dominator) = domtree.common_dominator(block, exit) else {
            continue;
        };
        // Reconstruct the condition under which control flows from the
        // dominator to the drive's block.
        let Some(condition) =
            path_condition(unit, &cfg, &domtree, &trg, region, dominator, block, exit)
        else {
            continue;
        };
        // Combine with an existing drive condition.
        let data = unit.inst_data(inst).clone();
        let combined = match (condition, data.opcode) {
            (None, _) => {
                if data.opcode == Opcode::DrvCond {
                    Some(data.args[3])
                } else {
                    None
                }
            }
            (Some(cond), Opcode::DrvCond) => {
                let existing = data.args[3];
                let and =
                    insert_before_terminator(unit, exit, InstData::new(Opcode::And, vec![cond, existing]));
                Some(and)
            }
            (Some(cond), _) => Some(cond),
        };
        // Rebuild the drive in the exit block.
        let new_data = match combined {
            Some(cond) => InstData::new(
                Opcode::DrvCond,
                vec![data.args[0], data.args[1], data.args[2], cond],
            ),
            None => InstData::new(Opcode::Drv, vec![data.args[0], data.args[1], data.args[2]]),
        };
        let term = unit.terminator(exit);
        let new_inst = unit.append_inst(exit, new_data, None);
        if let Some(term) = term {
            unit.move_inst_before(new_inst, term);
        }
        unit.remove_inst(inst);
        changed = true;
    }
    changed
}

/// Compute the condition (as an `i1` value, inserted before the terminator
/// of `exit`) under which control flows from `dominator` to `target`.
/// Returns `Ok(None)`-style `Some(None)` when the flow is unconditional and
/// `None` when the condition cannot be expressed (which leaves the drive in
/// place).
#[allow(clippy::too_many_arguments)]
fn path_condition(
    unit: &mut UnitData,
    cfg: &ControlFlowGraph,
    domtree: &DominatorTree,
    trg: &TemporalRegionGraph,
    region: TemporalRegion,
    dominator: Block,
    target: Block,
    exit: Block,
) -> Option<Option<Value>> {
    if target == dominator {
        return Some(None);
    }
    // The condition for a block is the OR over its in-region predecessors of
    // (condition of predecessor AND edge condition).
    let mut result: Option<Option<Value>> = None;
    let preds: Vec<Block> = cfg
        .preds(target)
        .iter()
        .copied()
        .filter(|&p| trg.region(p) == region && (p == dominator || domtree.dominates(dominator, p)))
        .collect();
    if preds.is_empty() {
        return None;
    }
    for pred in preds {
        let pred_cond = path_condition(unit, cfg, domtree, trg, region, dominator, pred, exit)?;
        let edge_cond = edge_condition(unit, domtree, pred, target, exit)?;
        // AND the two conditions.
        let combined = match (pred_cond, edge_cond) {
            (None, None) => None,
            (Some(c), None) | (None, Some(c)) => Some(c),
            (Some(a), Some(b)) => Some(insert_before_terminator(
                unit,
                exit,
                InstData::new(Opcode::And, vec![a, b]),
            )),
        };
        // OR with the result accumulated so far.
        result = Some(match result {
            None => combined,
            Some(None) => None,
            Some(Some(prev)) => combined.map(|c| insert_before_terminator(
                    unit,
                    exit,
                    InstData::new(Opcode::Or, vec![prev, c]),
                )),
        });
        if result == Some(None) {
            // Unconditionally reachable; no point accumulating more.
            return Some(None);
        }
    }
    result
}

/// The condition attached to the edge `pred -> target`: the branch condition
/// (or its negation) for conditional branches, nothing for unconditional
/// ones. Fails if the condition value does not dominate the exit block.
fn edge_condition(
    unit: &mut UnitData,
    domtree: &DominatorTree,
    pred: Block,
    target: Block,
    exit: Block,
) -> Option<Option<Value>> {
    let term = unit.terminator(pred)?;
    let data = unit.inst_data(term).clone();
    match data.opcode {
        Opcode::Br => Some(None),
        Opcode::BrCond => {
            let cond = data.args[0];
            // The condition must be available in the exit block.
            let def_block = match unit.value_def(cond) {
                ValueDef::Arg(_) => None,
                ValueDef::Inst(def) => unit.inst_block(def),
                ValueDef::Invalid => return None,
            };
            if let Some(def_block) = def_block {
                if !domtree.dominates(def_block, exit) {
                    return None;
                }
            }
            let (if_false, if_true) = (data.blocks[0], data.blocks[1]);
            if if_false == if_true {
                return Some(None);
            }
            if target == if_true {
                Some(Some(cond))
            } else if target == if_false {
                let not = insert_before_terminator(unit, exit, InstData::new(Opcode::Not, vec![cond]));
                Some(Some(not))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Insert a value-producing instruction before the terminator of `block`,
/// returning its result.
fn insert_before_terminator(unit: &mut UnitData, block: Block, data: InstData) -> Value {
    let result_ty = data.opcode.has_result().then(|| {
        unit.default_result_type(data.opcode, &data.args, &data.imms, data.konst.as_ref(), None)
    });
    let inst = match unit.terminator(block) {
        Some(term) => unit.insert_inst_before(term, data, result_ty),
        None => unit.append_inst(block, data, result_ty),
    };
    unit.inst_result(inst)
}

/// Coalesce multiple drives of the same signal (with the same delay) within
/// one block into a single drive whose value is selected by `mux`
/// instructions (§4.3.3, Figure 5f/g).
/// Per `(signal, delay)`: the accumulated value, the accumulated drive
/// condition, and the original drive instructions it replaces.
type DriveAccumulator = HashMap<(Value, Value), (Value, Option<Value>, Vec<Inst>)>;

fn coalesce_drives(unit: &mut UnitData) -> bool {
    let mut changed = false;
    for block in unit.blocks() {
        // Accumulated (value, condition, contributing drives) per
        // (signal, delay).
        let mut acc: DriveAccumulator = HashMap::new();
        let mut order: Vec<(Value, Value)> = vec![];
        for inst in unit.insts(block) {
            let data = unit.inst_data(inst).clone();
            let (signal, value, delay, cond) = match data.opcode {
                Opcode::Drv => (data.args[0], data.args[1], data.args[2], None),
                Opcode::DrvCond => (data.args[0], data.args[1], data.args[2], Some(data.args[3])),
                _ => continue,
            };
            let key = (signal, delay);
            match acc.get_mut(&key) {
                None => {
                    order.push(key);
                    acc.insert(key, (value, cond, vec![inst]));
                }
                Some((acc_value, acc_cond, insts)) => {
                    insts.push(inst);
                    match cond {
                        None => {
                            // Unconditional drive overrides everything before.
                            *acc_value = value;
                            *acc_cond = None;
                        }
                        Some(c) => {
                            // value := c ? value : acc_value
                            let choices = insert_before_terminator(
                                unit,
                                block,
                                InstData::new(Opcode::Array, vec![*acc_value, value]),
                            );
                            let mux = insert_before_terminator(
                                unit,
                                block,
                                InstData::new(Opcode::Mux, vec![choices, c]),
                            );
                            *acc_value = mux;
                            *acc_cond = (*acc_cond).map(|prev| insert_before_terminator(
                                    unit,
                                    block,
                                    InstData::new(Opcode::Or, vec![prev, c]),
                                ));
                        }
                    }
                }
            }
        }
        for key in order {
            let (value, cond, insts) = acc.remove(&key).unwrap();
            if insts.len() < 2 {
                continue;
            }
            // Remove the original drives and emit the coalesced one.
            for inst in insts {
                unit.remove_inst(inst);
            }
            let (signal, delay) = key;
            let data = match cond {
                Some(c) => InstData::new(Opcode::DrvCond, vec![signal, value, delay, c]),
                None => InstData::new(Opcode::Drv, vec![signal, value, delay]),
            };
            let term = unit.terminator(block);
            let inst = unit.append_inst(block, data, None);
            if let Some(term) = term {
                unit.move_inst_before(inst, term);
            }
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::{parse_module, write_unit};

    /// The combinational accumulator process of Figure 5 after ECM.
    const ACC_COMB: &str = r#"
        proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
        entry:
            %qp = prb i32$ %q
            %xp = prb i32$ %x
            %enp = prb i1$ %en
            %sum = add i32 %qp, %xp
            %delay = const time 2ns
            drv i32$ %d, %qp after %delay
            br %enp, %final, %enabled
        enabled:
            drv i32$ %d, %sum after %delay
            br %final
        final:
            wait %entry, %q, %x, %en
        }
    "#;

    /// The flip-flop process of Figure 5 after ECM.
    const ACC_FF: &str = r#"
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
            br %posedge, %init, %event
        event:
            drv i32$ %q, %dp after %delay
            br %init
        }
    "#;

    #[test]
    fn acc_comb_drives_coalesce_into_mux() {
        let mut module = parse_module(ACC_COMB).unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert!(llhd::verifier::verify_unit(unit).is_ok(), "{}", write_unit(unit));
        // Exactly one drive remains, it is unconditional, sits in the block
        // with the wait, and its value is a mux.
        let drives: Vec<_> = unit
            .all_insts()
            .into_iter()
            .filter(|&i| {
                matches!(
                    unit.inst_data(i).opcode,
                    Opcode::Drv | Opcode::DrvCond
                )
            })
            .collect();
        assert_eq!(drives.len(), 1);
        let drv = drives[0];
        assert_eq!(unit.inst_data(drv).opcode, Opcode::Drv);
        let final_block = unit
            .blocks()
            .into_iter()
            .find(|&b| {
                unit.terminator(b)
                    .map(|t| unit.inst_data(t).opcode == Opcode::Wait)
                    .unwrap_or(false)
            })
            .unwrap();
        assert_eq!(unit.inst_block(drv), Some(final_block));
        let value = unit.inst_data(drv).args[1];
        match unit.value_def(value) {
            ValueDef::Inst(def) => assert_eq!(unit.inst_data(def).opcode, Opcode::Mux),
            other => panic!("drive value should come from a mux, got {:?}", other),
        }
    }

    #[test]
    fn acc_ff_drive_gains_posedge_condition() {
        let mut module = parse_module(ACC_FF).unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert!(llhd::verifier::verify_unit(unit).is_ok(), "{}", write_unit(unit));
        // An auxiliary block was inserted; the drive moved there and is now
        // conditional on the posedge value.
        let drives: Vec<_> = unit
            .all_insts()
            .into_iter()
            .filter(|&i| matches!(unit.inst_data(i).opcode, Opcode::Drv | Opcode::DrvCond))
            .collect();
        assert_eq!(drives.len(), 1);
        let drv = drives[0];
        let data = unit.inst_data(drv);
        assert_eq!(data.opcode, Opcode::DrvCond);
        let cond = data.args[3];
        // The condition is the posedge value computed in `check`.
        assert_eq!(unit.value_name(cond), Some("posedge"));
        // The drive's block ends in a branch back to init, i.e. it is the
        // auxiliary exit block, not `event`.
        let drv_block = unit.inst_block(drv).unwrap();
        assert_eq!(unit.block_name(drv_block), Some("aux"));
    }

    #[test]
    fn unconditional_final_drive_overrides_earlier_ones() {
        let mut module = parse_module(
            r#"
            proc @p (i8$ %a) -> (i8$ %q) {
            entry:
                %ap = prb i8$ %a
                %one = const i8 1
                %delay = const time 1ns
                drv i8$ %q, %ap after %delay
                drv i8$ %q, %one after %delay
                wait %entry, %a
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        run(module.unit_mut(id));
        let unit = module.unit(id);
        let drives: Vec<_> = unit
            .all_insts()
            .into_iter()
            .filter(|&i| matches!(unit.inst_data(i).opcode, Opcode::Drv | Opcode::DrvCond))
            .collect();
        assert_eq!(drives.len(), 1);
        // The surviving value is the constant (the last unconditional write).
        let value = unit.inst_data(drives[0]).args[1];
        assert_eq!(
            unit.get_const(value),
            Some(&llhd::value::ConstValue::int(8, 1))
        );
    }

    #[test]
    fn entities_and_functions_are_untouched() {
        let mut module = parse_module(
            r#"
            func @f (i32 %a) i32 {
            entry:
                ret i32 %a
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(!run(module.unit_mut(id)));
    }
}

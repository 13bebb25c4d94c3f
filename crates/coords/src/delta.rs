//! Incremental coordinate-set deltas for temporal re-planning.
//!
//! Successive LiDAR sweeps churn only a few percent of their voxels, yet a
//! kernel-map rebuild pays the full `n x K^3` probe bill every time the
//! coordinate set changes at all. This module provides the three primitives
//! an incremental re-planner needs:
//!
//! - [`diff_coords`]: classify a new coordinate set against a frozen old
//!   one (via its [`CoordIndex`]) into kept / inserted / removed rows,
//!   producing the old-row -> new-row remapping.
//! - [`DeltaIndex`]: a layered [`CoordIndex`] over the *new* set — the old
//!   index answers the stable majority, a small hashmap side-table answers
//!   the inserted voxels, and the remapping translates rows. Stacking one
//!   per patched frame keeps patch cost proportional to churn; the
//!   [`CoordIndex::delta_depth`] counter lets callers compact the chain
//!   back to a fresh index before queries degrade.
//! - [`patch_submanifold_map`] / [`patch_strided_map`]: rebuild only the
//!   kernel-map entries whose input or output row touches a changed voxel,
//!   reproducing — entry for entry, in emission order — the map a
//!   from-scratch search over the new set would build.
//!
//! The order-reproduction argument: per offset, a forward search emits at
//! most one entry per output row (the input coordinate `s*q + δ` is unique
//! for a fixed output and offset) in ascending output order, and the
//! mirrored offsets of a symmetric search emit at most one entry per
//! *input* row in ascending input order. A patched offset therefore only
//! has to produce the same entry *set* and sort it by the offset's emission
//! key to be indistinguishable from a fresh search.

use crate::coord::Coord;
use crate::hashmap::CoordHashMap;
use crate::kernel_map::{KernelMap, MapEntry};
use crate::offsets::{center_index, has_mirror_property, kernel_offsets, kernel_volume};
use crate::table::{CoordIndex, MappingStats};
use crate::CoordsError;
use std::sync::Arc;

/// Sentinel in [`CoordDelta::remap`] for an old row absent from the new set.
pub const REMOVED_ROW: u32 = u32::MAX;

/// The classified difference between an old coordinate set and a new one.
#[derive(Debug, Clone, Default)]
pub struct CoordDelta {
    /// Old row -> new row; [`REMOVED_ROW`] for rows dropped by the delta.
    pub remap: Vec<u32>,
    /// New rows whose coordinate is absent from the old set, ascending.
    pub inserted: Vec<u32>,
    /// Number of old rows absent from the new set.
    pub removed: usize,
    /// Memory probes spent classifying (old-index queries).
    pub probes: u64,
    /// The inserted rows' coordinates hashed to their `inserted` slot, when
    /// the classifying pass built that table ([`diff_coords`] does, to find
    /// duplicates): a [`DeltaIndex`] adopts it as its side-table.
    pub side: Option<CoordHashMap>,
}

impl CoordDelta {
    /// The identity delta over `len` rows: nothing inserted, nothing
    /// removed, every row keeps its position.
    pub fn identity(len: usize) -> CoordDelta {
        CoordDelta { remap: (0..len as u32).collect(), ..CoordDelta::default() }
    }

    /// Whether the delta keeps every row in place (new set == old set,
    /// order included).
    pub fn is_identity(&self) -> bool {
        self.inserted.is_empty()
            && self.removed == 0
            && self.remap.iter().enumerate().all(|(i, &r)| r == i as u32)
    }

    /// Churned fraction: `(inserted + removed) / max(|old|, |new|)`.
    pub fn churn(&self, new_len: usize) -> f64 {
        let denom = self.remap.len().max(new_len).max(1);
        (self.inserted.len() + self.removed) as f64 / denom as f64
    }
}

/// Classifies `new_coords` against the old set behind `old_index` (which
/// must index exactly `old_len` coordinates, assigning rows by position).
///
/// # Errors
///
/// [`CoordsError::DuplicateCoordinate`] when `new_coords` contains the same
/// coordinate twice — a duplicated set has no row bijection to patch
/// against, so callers fall back to a full rebuild (which applies its own
/// keep-first semantics).
pub fn diff_coords(
    old_index: &dyn CoordIndex,
    old_len: usize,
    new_coords: &[Coord],
) -> Result<CoordDelta, CoordsError> {
    let mut remap = vec![REMOVED_ROW; old_len];
    let mut inserted = Vec::new();
    let mut probes = 0u64;
    let mut side = CoordHashMap::with_capacity(16);
    for (new_row, &c) in new_coords.iter().enumerate() {
        let (hit, p) = old_index.query(c);
        probes += p;
        match hit {
            Some(old_row) => {
                let slot = &mut remap[old_row as usize];
                if *slot != REMOVED_ROW {
                    return Err(CoordsError::DuplicateCoordinate(c));
                }
                *slot = new_row as u32;
            }
            None => {
                // Hash inserted coordinates to detect duplicates among
                // them (kept rows are guarded by the remap-slot check
                // above); the table is the delta's side-table.
                probes += side.insert(c, inserted.len() as u32);
                if side.len() != inserted.len() + 1 {
                    return Err(CoordsError::DuplicateCoordinate(c));
                }
                inserted.push(new_row as u32);
            }
        }
    }
    let removed = remap.iter().filter(|&&r| r == REMOVED_ROW).count();
    Ok(CoordDelta { remap, inserted, removed, probes, side: Some(side) })
}

/// A layered index over a patched coordinate set: the frozen old index
/// (shared via `Arc`, typically an MPHF) resolves the kept majority, a
/// small hashmap side-table resolves the inserted voxels, and the delta's
/// remapping translates old rows to new ones.
///
/// Queries are honest about probes: a query costs the full base-index
/// query, plus the side-table's hashmap probes when the base misses.
/// Each stacked layer adds one to [`CoordIndex::delta_depth`]; callers
/// compact chains past a depth or side-fraction threshold by rebuilding a
/// fresh index over the full new set.
#[derive(Debug)]
pub struct DeltaIndex {
    base: Arc<dyn CoordIndex>,
    remap: Vec<u32>,
    side: CoordHashMap,
    /// Side-table slot -> global new row.
    side_rows: Vec<u32>,
    len: usize,
}

impl DeltaIndex {
    /// Builds the layered index for a classified delta. Returns the index
    /// and the probes spent building the side-table: none when the delta
    /// carries the table its classification built ([`CoordDelta::side`]).
    ///
    /// # Errors
    ///
    /// [`CoordsError::EmptyCoordinates`] when `delta.remap.len()` does not
    /// match `base.len()` (the delta was computed against a different set).
    pub fn build(
        base: Arc<dyn CoordIndex>,
        delta: &CoordDelta,
        new_coords: &[Coord],
    ) -> Result<(DeltaIndex, u64), CoordsError> {
        if delta.remap.len() != base.len() {
            return Err(CoordsError::EmptyCoordinates);
        }
        let mut probes = 0u64;
        let side = delta.side.clone().unwrap_or_else(|| {
            let mut side = CoordHashMap::with_capacity(delta.inserted.len());
            for (slot, &row) in delta.inserted.iter().enumerate() {
                probes += side.insert(new_coords[row as usize], slot as u32);
            }
            side
        });
        let (remap, side_rows) = (delta.remap.clone(), delta.inserted.clone());
        Ok((DeltaIndex { base, remap, side, side_rows, len: new_coords.len() }, probes))
    }

    /// Fraction of this layer's rows answered by the side-table.
    #[cfg(test)]
    pub(crate) fn side_fraction(&self) -> f64 {
        self.side_rows.len() as f64 / self.len.max(1) as f64
    }
}

impl CoordIndex for DeltaIndex {
    fn query(&self, coord: Coord) -> (Option<u32>, u64) {
        // Kept rows are the majority, so the base answers first. An
        // inserted coordinate is absent from the base by definition, so the
        // side-table is probed only on a base miss.
        let (base_hit, probes) = self.base.query(coord);
        if let Some(old_row) = base_hit {
            let new_row = self.remap[old_row as usize];
            return ((new_row != REMOVED_ROW).then_some(new_row), probes);
        }
        let (side_hit, side_probes) = self.side.query(coord);
        (side_hit.map(|slot| self.side_rows[slot as usize]), probes + side_probes)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> u64 {
        self.base.memory_bytes()
            + (self.remap.len() * 4 + self.side_rows.len() * 4) as u64
            + self.side.memory_bytes()
    }

    fn delta_depth(&self) -> usize {
        self.base.delta_depth() + 1
    }
}

/// Cost split of one map patch, so callers can charge the streaming
/// kept-entry scan and the random membership probes at their real DRAM
/// rates (a fresh search is all-random; a patch is mostly streaming).
#[derive(Debug, Clone, Copy, Default)]
pub struct PatchStats {
    /// Sequential CSR traffic: old entries scanned and new entries written.
    pub stream: MappingStats,
    /// Random traffic: index probes for inserted/removed rows.
    pub random: MappingStats,
}

impl PatchStats {
    /// Both components merged (for the patched map's embedded stats).
    pub(crate) fn merged(&self) -> MappingStats {
        let mut m = self.stream;
        m.merge(self.random);
        m
    }

    /// Accumulates another patch's cost split into this one.
    pub fn merge(&mut self, other: &PatchStats) {
        self.stream.merge(other.stream);
        self.random.merge(other.random);
    }
}

/// A row probe used by the patch passes: resolves a changed row to its
/// partner row (if any) plus the memory probes spent doing so.
type Probe<'a> = dyn Fn(u32) -> (Option<u32>, u64) + 'a;

/// Patches one forward-searched offset. Kept entries are remapped in one
/// streaming pass over the old CSR range; then the changed rows are
/// probed: inserted output rows ask `probe_in_of_out` for their input
/// neighbor, and inserted input rows ask `probe_out_of_in` which *kept*
/// output (if any) now sees them. The result is the fresh entry set, not
/// yet sorted into emission order.
#[allow(clippy::too_many_arguments)]
fn patch_forward_offset(
    old_entries: &[MapEntry],
    in_remap: &[u32],
    in_inserted: &[u32],
    out_remap: &[u32],
    out_inserted: &[u32],
    out_is_inserted: &[bool],
    probe_in_of_out: &Probe<'_>,
    probe_out_of_in: &Probe<'_>,
    stats: &mut PatchStats,
) -> Vec<MapEntry> {
    let mut entries = Vec::with_capacity(old_entries.len());
    // Kept pass: one streaming scan of the old CSR range.
    for e in old_entries {
        let i = in_remap[e.input as usize];
        let o = out_remap[e.output as usize];
        if i != REMOVED_ROW && o != REMOVED_ROW {
            entries.push(MapEntry { input: i, output: o });
        }
    }
    stats.stream.reads += old_entries.len() as u64;
    // Inserted outputs: probe for their input neighbor.
    for &k in out_inserted {
        let (hit, p) = probe_in_of_out(k);
        stats.random.reads += p;
        if let Some(j) = hit {
            entries.push(MapEntry { input: j, output: k });
        }
    }
    // Inserted inputs feeding *kept* outputs (inserted outputs already got
    // their entry above).
    for &j in in_inserted {
        let (hit, p) = probe_out_of_in(j);
        stats.random.reads += p;
        if let Some(k) = hit {
            if !out_is_inserted[k as usize] {
                entries.push(MapEntry { input: j, output: k });
            }
        }
    }
    stats.stream.writes += entries.len() as u64;
    entries
}

/// Patches a stride-1 (submanifold) kernel map against a coordinate delta:
/// produces the map a fresh search over `new_coords` would build, entry
/// order included.
///
/// `new_index` must index `new_coords` (typically the [`DeltaIndex`] built
/// from the same `delta`). `symmetric` selects the symmetric-search
/// emission order (identity center, mirrored upper offsets); pass exactly
/// what the fresh search would have used.
///
/// # Errors
///
/// [`CoordsError::ZeroKernelSize`] on a zero kernel size,
/// [`CoordsError::ZeroStride`] when `symmetric` is requested for an even
/// kernel, and [`CoordsError::InvalidDilation`] when `dilation == 0` — the
/// same errors the corresponding fresh searches return.
pub fn patch_submanifold_map(
    old: &KernelMap,
    delta: &CoordDelta,
    new_coords: &[Coord],
    new_index: &dyn CoordIndex,
    kernel_size: usize,
    dilation: i32,
    symmetric: bool,
) -> Result<(KernelMap, PatchStats), CoordsError> {
    if symmetric && !has_mirror_property(kernel_size) {
        return Err(CoordsError::ZeroStride);
    }
    if dilation == 0 {
        return Err(CoordsError::InvalidDilation { dilation, stride: 1 });
    }
    let offs = kernel_offsets(kernel_size)?;
    let volume = kernel_volume(kernel_size);
    let mut is_inserted = vec![false; new_coords.len()];
    for &r in &delta.inserted {
        is_inserted[r as usize] = true;
    }
    let mut stats = PatchStats::default();
    let mut per_offset: Vec<Vec<MapEntry>> = vec![Vec::new(); volume];
    let identity = || -> Vec<MapEntry> {
        (0..new_coords.len() as u32).map(|i| MapEntry { input: i, output: i }).collect()
    };
    let patch_one = |n: usize, stats: &mut PatchStats| -> Vec<MapEntry> {
        let o = offs[n];
        let d = [o[0] * dilation, o[1] * dilation, o[2] * dilation];
        let mut entries = patch_forward_offset(
            old.entries(n),
            &delta.remap,
            &delta.inserted,
            &delta.remap,
            &delta.inserted,
            &is_inserted,
            &|k| new_index.query(new_coords[k as usize].offset(d)),
            &|j| new_index.query(new_coords[j as usize].offset_neg(d)),
            stats,
        );
        // Forward emission order: ascending output rows (a total order —
        // at most one entry per output per offset).
        entries.sort_unstable_by_key(|e| e.output);
        entries
    };
    if symmetric {
        // Mirror of the symmetric search: lower offsets are patched
        // forward, the center regenerates as the identity, and each upper
        // offset reuses its lower pair's entries with roles swapped. The
        // fresh symmetric search pushes the mirrored entry in the same
        // forward scan, so the mirrored list in forward-emission order
        // (ascending input after the swap) is exactly its fresh order —
        // no re-sort needed.
        let center = center_index(kernel_size).unwrap_or((volume - 1) / 2);
        for n in 0..center {
            let fwd = patch_one(n, &mut stats);
            per_offset[volume - 1 - n] =
                fwd.iter().map(|e| MapEntry { input: e.output, output: e.input }).collect();
            stats.stream.writes += fwd.len() as u64;
            per_offset[n] = fwd;
        }
        per_offset[center] = identity();
        stats.stream.writes += new_coords.len() as u64;
    } else {
        for (n, slot) in per_offset.iter_mut().enumerate() {
            *slot = if offs[n] == [0, 0, 0] {
                // The center probe of a stride-1 search finds every row at
                // itself: regenerate the identity directly.
                stats.stream.writes += new_coords.len() as u64;
                identity()
            } else {
                patch_one(n, &mut stats)
            };
        }
    }
    stats.stream.kernel_launches += 1;
    let map = KernelMap::from_parts(kernel_size, 1, per_offset, stats.merged())?;
    Ok((map, stats))
}

/// Everything [`patch_strided_map`] produces: the patched map, the new
/// (canonically sorted) output coordinates, and the delta classifying the
/// old output rows against the new ones — the next level's input delta.
#[derive(Debug)]
pub struct StridedPatch {
    /// The patched kernel map, entry order identical to a fresh search.
    pub map: KernelMap,
    /// New downsampled output coordinates, sorted-deduplicated exactly like
    /// a fresh Algorithm-3 derivation.
    pub out_coords: Vec<Coord>,
    /// Old output rows classified against the new output set.
    pub out_delta: CoordDelta,
    /// Cost split of the patch.
    pub stats: PatchStats,
}

/// Patches a strided (downsampling) kernel map and its output coordinate
/// set against a fine-level coordinate delta. Requires `stride >= 1` and
/// dilation 1 (the engine rejects dilated strided convolutions).
///
/// The output set is patched first: an inserted fine voxel proposes the
/// coarse cells it supports (the candidates of Algorithm 3); a removed fine
/// voxel's cells stay only if another fine voxel still supports them
/// (checked by probing the new fine index over the kernel window). The
/// surviving + inserted cells merge into the old sorted output list,
/// reproducing the fresh sorted-dedup order. Map entries then patch per
/// offset like the submanifold case, with input rows classified by the fine
/// delta and output rows by the derived coarse delta.
///
/// # Errors
///
/// [`CoordsError::ZeroKernelSize`] / [`CoordsError::ZeroStride`] on
/// degenerate parameters.
#[allow(clippy::too_many_arguments)]
pub fn patch_strided_map(
    old: &KernelMap,
    old_fine: &[Coord],
    old_out_coords: &[Coord],
    fine_delta: &CoordDelta,
    new_fine: &[Coord],
    new_fine_index: &dyn CoordIndex,
    kernel_size: usize,
    stride: i32,
) -> Result<StridedPatch, CoordsError> {
    if stride <= 0 {
        return Err(CoordsError::ZeroStride);
    }
    let offs = kernel_offsets(kernel_size)?;
    let volume = kernel_volume(kernel_size);
    let mut stats = PatchStats::default();

    // --- Output-set patch -------------------------------------------------
    // Coarse cells proposed by inserted fine voxels, minus those already
    // present, are the inserted outputs; coarse cells proposed by removed
    // fine voxels that no surviving fine voxel supports are the removed
    // outputs. Everything else is untouched.
    let candidates = |p: Coord| -> Vec<Coord> {
        let mut cs = Vec::with_capacity(volume);
        for &d in &offs {
            let q = p.offset_neg(d);
            if q.divisible_by(stride) {
                cs.push(q.divided(stride));
            }
        }
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let old_has = |c: Coord| old_out_coords.binary_search(&c).is_ok();

    let mut inserted_cells: Vec<Coord> = Vec::new();
    for &j in &fine_delta.inserted {
        for c in candidates(new_fine[j as usize]) {
            stats.stream.reads += 1; // binary-search traffic over the old list
            if !old_has(c) {
                inserted_cells.push(c);
            }
        }
    }
    inserted_cells.sort_unstable();
    inserted_cells.dedup();

    let mut removal_candidates: Vec<Coord> = Vec::new();
    for (old_row, &mapped) in fine_delta.remap.iter().enumerate() {
        if mapped == REMOVED_ROW {
            for c in candidates(old_fine[old_row]) {
                if old_has(c) {
                    removal_candidates.push(c);
                }
            }
        }
    }
    removal_candidates.sort_unstable();
    removal_candidates.dedup();
    let mut removed_cells: Vec<Coord> = Vec::new();
    for &c in &removal_candidates {
        let base = c.scaled(stride);
        let mut supported = false;
        for &d in &offs {
            let (hit, p) = new_fine_index.query(base.offset(d));
            stats.random.reads += p;
            if hit.is_some() {
                supported = true;
                break;
            }
        }
        if !supported {
            removed_cells.push(c);
        }
    }

    // Sorted merge: old outputs minus removed cells, interleaved with the
    // inserted cells — exactly the fresh sorted-dedup derivation, plus the
    // old-row -> new-row classification for the next level.
    let mut out_coords: Vec<Coord> =
        Vec::with_capacity(old_out_coords.len() + inserted_cells.len());
    let mut out_remap = vec![REMOVED_ROW; old_out_coords.len()];
    let mut out_inserted_rows: Vec<u32> = Vec::with_capacity(inserted_cells.len());
    let mut ins_it = inserted_cells.into_iter().peekable();
    let mut rem_it = removed_cells.iter().copied().peekable();
    for (old_row, &c) in old_out_coords.iter().enumerate() {
        while ins_it.peek().is_some_and(|&i| i < c) {
            if let Some(i) = ins_it.next() {
                out_inserted_rows.push(out_coords.len() as u32);
                out_coords.push(i);
            }
        }
        if rem_it.peek() == Some(&c) {
            rem_it.next();
            continue;
        }
        out_remap[old_row] = out_coords.len() as u32;
        out_coords.push(c);
    }
    for i in ins_it {
        out_inserted_rows.push(out_coords.len() as u32);
        out_coords.push(i);
    }
    stats.stream.writes += out_coords.len() as u64;
    let out_removed = out_remap.iter().filter(|&&r| r == REMOVED_ROW).count();
    let out_delta = CoordDelta {
        remap: out_remap,
        inserted: out_inserted_rows,
        removed: out_removed,
        probes: 0,
        side: None,
    };

    // --- Per-offset entry patch ------------------------------------------
    let mut out_is_inserted = vec![false; out_coords.len()];
    for &r in &out_delta.inserted {
        out_is_inserted[r as usize] = true;
    }
    let mut per_offset: Vec<Vec<MapEntry>> = vec![Vec::new(); volume];
    for (n, slot) in per_offset.iter_mut().enumerate() {
        let d = offs[n];
        let mut entries = patch_forward_offset(
            old.entries(n),
            &fine_delta.remap,
            &fine_delta.inserted,
            &out_delta.remap,
            &out_delta.inserted,
            &out_is_inserted,
            &|k| new_fine_index.query(out_coords[k as usize].scaled(stride).offset(d)),
            &|j| {
                let q = new_fine[j as usize].offset_neg(d);
                if !q.divisible_by(stride) {
                    return (None, 0);
                }
                // The output list is sorted: resolve by binary search, one
                // modeled memory probe per comparison level.
                let found = out_coords.binary_search(&q.divided(stride)).ok().map(|k| k as u32);
                (found, u64::from(out_coords.len().max(2).ilog2().max(1)))
            },
            &mut stats,
        );
        entries.sort_unstable_by_key(|e| e.output);
        *slot = entries;
    }
    stats.stream.kernel_launches += 1;
    let map = KernelMap::from_parts(kernel_size, stride, per_offset, stats.merged())?;
    Ok(StridedPatch { map, out_coords, out_delta, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::downsample::{fused_output_coords, Boundary};
    use crate::kernel_map::{search_dilated_on, search_submanifold_symmetric_dilated_on};
    use torchsparse_runtime::ThreadPool;

    fn coords(n: usize, seed: i32) -> Vec<Coord> {
        let mut v: Vec<Coord> = (0..n as i32)
            .map(|i| Coord::new(0, (i * 7 + seed) % 13, (i * 3) % 9, (i + seed) % 5))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        // Shuffle deterministically so row order is not sorted.
        let len = v.len();
        for i in 0..len {
            v.swap(i, ((i * 31 + seed as usize * 7) % len).max(i));
        }
        v
    }

    fn hash_index(coords: &[Coord]) -> CoordHashMap {
        CoordHashMap::build(coords).0
    }

    /// Removes every 5th row and inserts fresh coordinates, returning the
    /// new set in a mixed (non-sorted) order.
    fn churned(old: &[Coord]) -> Vec<Coord> {
        let mut new: Vec<Coord> =
            old.iter().enumerate().filter(|(i, _)| i % 5 != 0).map(|(_, &c)| c).collect();
        let existing: std::collections::BTreeSet<Coord> = old.iter().copied().collect();
        let mut added = 0;
        let mut t = 0;
        while added < old.len() / 6 + 1 {
            let c = Coord::new(0, 20 + t % 4, t % 7, t % 5);
            t += 1;
            if !existing.contains(&c) && !new.contains(&c) {
                new.insert((added * 13) % new.len().max(1), c);
                added += 1;
            }
        }
        new
    }

    #[test]
    fn diff_classifies_kept_inserted_removed() {
        let old = coords(40, 1);
        let new = churned(&old);
        let idx = hash_index(&old);
        let d = diff_coords(&idx, old.len(), &new).unwrap();
        assert_eq!(d.remap.len(), old.len());
        let kept = d.remap.iter().filter(|&&r| r != REMOVED_ROW).count();
        assert_eq!(kept + d.removed, old.len());
        assert_eq!(kept + d.inserted.len(), new.len());
        for (old_row, &new_row) in d.remap.iter().enumerate() {
            if new_row != REMOVED_ROW {
                assert_eq!(old[old_row], new[new_row as usize]);
            }
        }
        for &r in &d.inserted {
            assert!(!old.contains(&new[r as usize]));
        }
        assert!(d.probes >= new.len() as u64, "every new coord costs at least one probe");
        assert!(d.churn(new.len()) > 0.0);
    }

    #[test]
    fn diff_rejects_duplicates() {
        let old = coords(10, 2);
        let idx = hash_index(&old);
        // Duplicate of a kept coordinate.
        let mut dup_kept = old.clone();
        dup_kept.push(old[3]);
        assert!(matches!(
            diff_coords(&idx, old.len(), &dup_kept),
            Err(CoordsError::DuplicateCoordinate(_))
        ));
        // Duplicate among inserted coordinates.
        let fresh = Coord::new(0, 99, 99, 4);
        let mut dup_ins = old.clone();
        dup_ins.push(fresh);
        dup_ins.push(fresh);
        assert!(matches!(
            diff_coords(&idx, old.len(), &dup_ins),
            Err(CoordsError::DuplicateCoordinate(_))
        ));
    }

    #[test]
    fn identity_delta_roundtrips() {
        let d = CoordDelta::identity(5);
        assert!(d.is_identity());
        assert_eq!(d.churn(5), 0.0);
        let old = coords(20, 3);
        let idx = hash_index(&old);
        let same = diff_coords(&idx, old.len(), &old).unwrap();
        assert!(same.is_identity());
    }

    #[test]
    fn delta_index_answers_like_a_fresh_index() {
        let old = coords(50, 4);
        let new = churned(&old);
        let base: Arc<dyn CoordIndex> = Arc::new(hash_index(&old));
        let d = diff_coords(base.as_ref(), old.len(), &new).unwrap();
        // The diff's own table becomes the side-table: no insert is spent
        // twice. Without it the build hashes the same rows.
        let (delta_idx, adopted) = DeltaIndex::build(Arc::clone(&base), &d, &new).unwrap();
        let unhashed = CoordDelta { side: None, ..d.clone() };
        let (hashed_idx, hashed) = DeltaIndex::build(Arc::clone(&base), &unhashed, &new).unwrap();
        assert_eq!((adopted, hashed > 0), (0, true));
        let fresh = hash_index(&new);
        assert_eq!(delta_idx.len(), new.len());
        assert_eq!(delta_idx.delta_depth(), 1);
        for &c in new.iter().chain(old.iter()) {
            assert_eq!(delta_idx.query(c).0, fresh.query(c).0, "coord {c}");
            assert_eq!(hashed_idx.query(c).0, fresh.query(c).0, "coord {c}");
        }
        // A kept coordinate costs the base's probes alone: the base answers
        // first.
        let kept = old[d.remap.iter().position(|&r| r != REMOVED_ROW).unwrap()];
        assert_eq!(delta_idx.query(kept).1, base.query(kept).1);
        assert_eq!(delta_idx.query(Coord::new(3, -100, 0, 0)).0, None);
        assert!(delta_idx.side_fraction() > 0.0);
        assert!(delta_idx.memory_bytes() > 0);
    }

    #[test]
    fn stacked_delta_indexes_count_depth() {
        let a = coords(30, 5);
        let b = churned(&a);
        let c = churned(&b);
        let base: Arc<dyn CoordIndex> = Arc::new(hash_index(&a));
        assert_eq!(base.delta_depth(), 0);
        let d1 = diff_coords(base.as_ref(), a.len(), &b).unwrap();
        let (i1, _) = DeltaIndex::build(base, &d1, &b).unwrap();
        let i1: Arc<dyn CoordIndex> = Arc::new(i1);
        let d2 = diff_coords(i1.as_ref(), b.len(), &c).unwrap();
        let (i2, _) = DeltaIndex::build(i1, &d2, &c).unwrap();
        assert_eq!(i2.delta_depth(), 2);
        let fresh = hash_index(&c);
        for &x in &c {
            assert_eq!(i2.query(x).0, fresh.query(x).0);
        }
    }

    fn assert_same_map(patched: &KernelMap, fresh: &KernelMap) {
        assert_eq!(patched.num_offsets(), fresh.num_offsets());
        assert_eq!(patched.stride(), fresh.stride());
        for n in 0..fresh.num_offsets() {
            assert_eq!(patched.entries(n), fresh.entries(n), "offset {n} differs");
        }
    }

    fn patched_fixture(
        seed: i32,
        kernel_size: usize,
        dilation: i32,
        symmetric: bool,
    ) -> (KernelMap, KernelMap) {
        let old = coords(60, seed);
        let new = churned(&old);
        let old_table = hash_index(&old);
        let old_map = if symmetric {
            search_submanifold_symmetric_dilated_on(
                ThreadPool::global(),
                &old,
                &old_table,
                kernel_size,
                dilation,
            )
        } else {
            search_dilated_on(ThreadPool::global(), &old, &old_table, kernel_size, 1, dilation)
        }
        .unwrap();
        let base: Arc<dyn CoordIndex> = Arc::new(old_table);
        let d = diff_coords(base.as_ref(), old.len(), &new).unwrap();
        let (new_idx, _) = DeltaIndex::build(base, &d, &new).unwrap();
        let (patched, _) =
            patch_submanifold_map(&old_map, &d, &new, &new_idx, kernel_size, dilation, symmetric)
                .unwrap();
        let fresh_table = hash_index(&new);
        let fresh = if symmetric {
            search_submanifold_symmetric_dilated_on(
                ThreadPool::global(),
                &new,
                &fresh_table,
                kernel_size,
                dilation,
            )
        } else {
            search_dilated_on(ThreadPool::global(), &new, &fresh_table, kernel_size, 1, dilation)
        }
        .unwrap();
        (patched, fresh)
    }

    #[test]
    fn submanifold_patch_matches_fresh_search() {
        for symmetric in [false, true] {
            for dilation in [1, 2] {
                let (patched, fresh) = patched_fixture(6, 3, dilation, symmetric);
                assert_same_map(&patched, &fresh);
            }
        }
    }

    #[test]
    fn even_kernel_patch_matches_fresh_search() {
        let (patched, fresh) = patched_fixture(7, 2, 1, false);
        assert_same_map(&patched, &fresh);
    }

    #[test]
    fn symmetric_patch_rejects_even_kernels() {
        let old = coords(10, 1);
        let map =
            search_dilated_on(ThreadPool::global(), &old, &hash_index(&old), 2, 1, 1).unwrap();
        let d = CoordDelta::identity(old.len());
        let idx = hash_index(&old);
        assert!(patch_submanifold_map(&map, &d, &old, &idx, 2, 1, true).is_err());
        assert!(patch_submanifold_map(&map, &d, &old, &idx, 2, 0, false).is_err());
    }

    #[test]
    fn strided_patch_matches_fresh_derivation() {
        for (kernel_size, stride) in [(2usize, 2i32), (3, 2), (2, 4)] {
            let old = coords(70, 8);
            let new = churned(&old);
            let old_out =
                fused_output_coords(&old, kernel_size, stride, Boundary::unbounded()).unwrap();
            let old_table = hash_index(&old);
            let old_map = search_dilated_on(
                ThreadPool::global(),
                &old_out.coords,
                &old_table,
                kernel_size,
                stride,
                1,
            )
            .unwrap();
            let base: Arc<dyn CoordIndex> = Arc::new(old_table);
            let d = diff_coords(base.as_ref(), old.len(), &new).unwrap();
            let (new_idx, _) = DeltaIndex::build(base, &d, &new).unwrap();
            let patch = patch_strided_map(
                &old_map,
                &old,
                &old_out.coords,
                &d,
                &new,
                &new_idx,
                kernel_size,
                stride,
            )
            .unwrap();
            let fresh_out =
                fused_output_coords(&new, kernel_size, stride, Boundary::unbounded()).unwrap();
            assert_eq!(patch.out_coords, fresh_out.coords, "k={kernel_size} s={stride}");
            let fresh_table = hash_index(&new);
            let fresh_map = search_dilated_on(
                ThreadPool::global(),
                &fresh_out.coords,
                &fresh_table,
                kernel_size,
                stride,
                1,
            )
            .unwrap();
            assert_same_map(&patch.map, &fresh_map);
            // The out-delta classifies old rows consistently.
            for (old_row, &new_row) in patch.out_delta.remap.iter().enumerate() {
                if new_row != REMOVED_ROW {
                    assert_eq!(old_out.coords[old_row], patch.out_coords[new_row as usize]);
                }
            }
            assert_eq!(
                patch.out_delta.remap.iter().filter(|&&r| r != REMOVED_ROW).count()
                    + patch.out_delta.inserted.len(),
                patch.out_coords.len()
            );
        }
    }

    #[test]
    fn insert_only_and_remove_only_patches_match() {
        let old = coords(50, 9);
        // Remove-only.
        let shrunk: Vec<Coord> =
            old.iter().enumerate().filter(|(i, _)| i % 4 != 0).map(|(_, &c)| c).collect();
        // Insert-only.
        let mut grown = old.clone();
        for t in 0..8 {
            let c = Coord::new(0, 30 + t, t % 3, t % 5);
            if !grown.contains(&c) {
                grown.push(c);
            }
        }
        for new in [shrunk, grown] {
            let old_table = hash_index(&old);
            let old_map = search_submanifold_symmetric_dilated_on(
                ThreadPool::global(),
                &old,
                &old_table,
                3,
                1,
            )
            .unwrap();
            let base: Arc<dyn CoordIndex> = Arc::new(old_table);
            let d = diff_coords(base.as_ref(), old.len(), &new).unwrap();
            let (new_idx, _) = DeltaIndex::build(base, &d, &new).unwrap();
            let (patched, stats) =
                patch_submanifold_map(&old_map, &d, &new, &new_idx, 3, 1, true).unwrap();
            let fresh_table = hash_index(&new);
            let fresh = search_submanifold_symmetric_dilated_on(
                ThreadPool::global(),
                &new,
                &fresh_table,
                3,
                1,
            )
            .unwrap();
            assert_same_map(&patched, &fresh);
            assert!(stats.merged().total_accesses() > 0);
        }
    }

    #[test]
    fn patch_cost_is_mostly_streaming_at_low_churn() {
        // 1 voxel churned out of ~600: random probe traffic must be far
        // below the all-random fresh-search bill.
        let old: Vec<Coord> = (0..600)
            .map(|i| Coord::new(0, i % 20, (i / 20) % 10, i % 3))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut new = old.clone();
        new.remove(7);
        new.push(Coord::new(0, 50, 50, 1));
        let old_table = hash_index(&old);
        let old_map =
            search_submanifold_symmetric_dilated_on(ThreadPool::global(), &old, &old_table, 3, 1)
                .unwrap();
        let fresh_cost = old_map.stats.total_accesses();
        let base: Arc<dyn CoordIndex> = Arc::new(old_table);
        let d = diff_coords(base.as_ref(), old.len(), &new).unwrap();
        let (new_idx, _) = DeltaIndex::build(base, &d, &new).unwrap();
        let (_, stats) = patch_submanifold_map(&old_map, &d, &new, &new_idx, 3, 1, true).unwrap();
        assert!(
            stats.random.total_accesses() * 4 < fresh_cost,
            "patch random traffic {} should be well under fresh search {}",
            stats.random.total_accesses(),
            fresh_cost
        );
    }
}

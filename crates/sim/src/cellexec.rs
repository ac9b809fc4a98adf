//! The Proposition-2 executor over topological-separator honeycombs in
//! `d = 2` (Theorem 5) and `d = 3` (Section 6's conjecture, measured).
//!
//! Structurally the twin of [`crate::exec1`], with honeycomb cells in
//! place of the diamond splits: the computed box `[0, side)^d × [1, T]`
//! is wrapped in one big clipped cell; cells refine by the dimension's
//! honeycomb and cells of radius `≤ leaf_h` are executed naively.
//! Node-column state blocks become per-*pillar* (mesh position) blocks.
//!
//! * `d = 2` ([`MeshCells`]): the octahedra/tetrahedra of
//!   [`bsmp_geometry::Domain2`] — octahedra split into 6 octahedra + 8
//!   tetrahedra, tetrahedra into 4 tetrahedra + 1 octahedron (Figure 3).
//! * `d = 3` ([`VolumeCells`]): the product-of-diamonds honeycomb of
//!   [`bsmp_geometry::Domain3`] (`q ≤ 46`, `δ < 1/2`,
//!   `Γ = Θ(|U|^{3/4})`).  On the 3-D access function
//!   `f(x) = (x/m)^{1/3}` the separator's `γ = 3/4` meets Proposition 3's
//!   admissibility with equality, so the predicted slowdown is
//!   `O(n log n)` (experiment E13).  Only `m = 1` is run, the setting
//!   the conjecture is about.
//!
//! The recursion, the want/zone bookkeeping, the leaf and the driver are
//! written once; everything that depends on the dimension (point and
//! pillar types, dag bounds, memo key, top cell, outbound-cap slack and
//! the guest operator) sits behind [`Honeycomb`], and the executor is
//! monomorphized per impl.
//!
//! [`crate::exec1`] stays separate: its diamonds carry the `d = 1` fast
//! path (shape-memoized Γ/want patterns, a sorted value directory,
//! per-depth scratch and a shareable [`crate::exec1::DiamondPlan`]),
//! while this executor memoizes only `space()`.

use std::hash::Hash;

use bsmp_machine::{FxHashMap, FxHashSet};

use bsmp_geometry::{ClippedDomain2, ClippedDomain3, Domain2, Domain3, IBox, IBox4, Pt3, Pt4};
use bsmp_hram::{AccessFn, CostTable, Hram, Word};
use bsmp_machine::{MeshProgram, VolumeProgram};

use crate::error::SimError;
use crate::zone::ZoneAlloc;

/// The per-dimension half of the executor: the dag's points and
/// pillars, its honeycomb cells, and the guest program's operator.
pub trait Honeycomb {
    /// Spatial dimension `d`.
    const D: u32;
    /// Slack added to the outbound cap beyond two values per pillar.
    const CAP_SLACK: usize;
    /// A dag vertex (spatial coordinates plus time; sorts time-major).
    type Pt: Copy + Ord + Hash;
    /// A mesh position: the key of a node's private-memory block.
    type Pillar: Copy + Ord + Hash;
    /// A honeycomb cell clipped to the computed box.
    type Cell;
    /// Memo key of `space()`: radius, cell kind and clamped distances
    /// to the dag walls (beyond `2h + 2` a wall cannot influence the
    /// footprint).
    type ShapeKey: Copy + Eq + Hash;
    /// Operand buffer of [`delta`](Self::delta), one word per
    /// predecessor.
    type Ops: Default + AsRef<[Word]> + AsMut<[Word]>;

    /// Immediate predecessors, in the operand order of `delta`.
    fn preds(p: Self::Pt) -> impl IntoIterator<Item = Self::Pt>;
    fn pillar(p: Self::Pt) -> Self::Pillar;
    /// The pillar of node-major guest node `v`.
    fn node(side: i64, v: usize) -> Self::Pillar;
    /// The vertex of pillar `xy` at time `t`.
    fn at(xy: Self::Pillar, t: i64) -> Self::Pt;
    /// Whether `p` is a vertex of the dag `[0, side)^d × [0, t_steps]`.
    fn in_dag(side: i64, t_steps: i64, p: Self::Pt) -> bool;
    /// The top cell of radius `h` covering the computed box.
    fn top(side: i64, t_steps: i64, h: i64) -> Self::Cell;
    fn shape_key(side: i64, t_steps: i64, u: &Self::Cell) -> Self::ShapeKey;

    fn h(u: &Self::Cell) -> i64;
    fn contains(u: &Self::Cell, p: Self::Pt) -> bool;
    fn for_each_point(u: &Self::Cell, f: impl FnMut(Self::Pt));
    fn points_count(u: &Self::Cell) -> usize;
    /// Non-empty children in topological order.
    fn children(u: &Self::Cell) -> Vec<Self::Cell>;

    /// Memory cells per node.
    fn m(&self) -> usize;
    /// Operand value of a predecessor outside the dag.
    fn boundary(&self) -> Word;
    /// Index of the private-memory cell vertex `p` updates.
    fn cell(&self, p: Self::Pt) -> usize;
    /// The guest operator at `p`, given the updated cell's old contents
    /// and the predecessors' values.
    fn delta(&self, p: Self::Pt, own: Word, ops: &Self::Ops) -> Word;
}

/// `d = 2`: a [`MeshProgram`] on the octahedron/tetrahedron honeycomb.
pub struct MeshCells<'a, P: MeshProgram>(pub &'a P);

impl<P: MeshProgram> Honeycomb for MeshCells<'_, P> {
    const D: u32 = 2;
    const CAP_SLACK: usize = 8;
    type Pt = Pt3;
    type Pillar = (i64, i64);
    type Cell = ClippedDomain2;
    type ShapeKey = (i64, i64, i64, i64, i64, i64, i64, i64);
    type Ops = [Word; 5];

    #[inline]
    fn preds(p: Pt3) -> impl IntoIterator<Item = Pt3> {
        p.preds()
    }
    #[inline]
    fn pillar(p: Pt3) -> (i64, i64) {
        (p.x, p.y)
    }
    fn node(side: i64, v: usize) -> (i64, i64) {
        let side = side as usize;
        ((v % side) as i64, (v / side) as i64)
    }
    #[inline]
    fn at((x, y): (i64, i64), t: i64) -> Pt3 {
        Pt3::new(x, y, t)
    }
    #[inline]
    fn in_dag(side: i64, t_steps: i64, p: Pt3) -> bool {
        0 <= p.x && p.x < side && 0 <= p.y && p.y < side && 0 <= p.t && p.t <= t_steps
    }
    fn top(side: i64, t_steps: i64, h: i64) -> ClippedDomain2 {
        ClippedDomain2::new(
            Domain2::octahedron(side / 2, side / 2, t_steps / 2 + 1, h),
            IBox::new(0, side, 0, side, 1, t_steps + 1),
        )
    }
    fn shape_key(side: i64, t_steps: i64, u: &ClippedDomain2) -> Self::ShapeKey {
        let h = u.cell.h();
        let cl = 2 * h + 2;
        (
            h,
            u.cell.dy.ct - u.cell.dx.ct,
            u.cell.dx.cx.clamp(-cl, cl),
            (side - u.cell.dx.cx).clamp(-cl, cl),
            u.cell.dy.cx.clamp(-cl, cl),
            (side - u.cell.dy.cx).clamp(-cl, cl),
            u.cell.dx.ct.clamp(-cl, cl),
            (t_steps + 1 - u.cell.dx.ct).clamp(-cl, cl),
        )
    }

    #[inline]
    fn h(u: &ClippedDomain2) -> i64 {
        u.cell.h()
    }
    #[inline]
    fn contains(u: &ClippedDomain2, p: Pt3) -> bool {
        u.contains(p)
    }
    #[inline]
    fn for_each_point(u: &ClippedDomain2, f: impl FnMut(Pt3)) {
        u.for_each_point(f)
    }
    fn points_count(u: &ClippedDomain2) -> usize {
        u.points_count() as usize
    }
    fn children(u: &ClippedDomain2) -> Vec<ClippedDomain2> {
        u.children()
    }

    fn m(&self) -> usize {
        self.0.m()
    }
    fn boundary(&self) -> Word {
        self.0.boundary()
    }
    #[inline]
    fn cell(&self, p: Pt3) -> usize {
        self.0.cell(p.x as usize, p.y as usize, p.t)
    }
    #[inline]
    fn delta(&self, p: Pt3, own: Word, [prev, west, east, south, north]: &[Word; 5]) -> Word {
        self.0.delta(
            p.x as usize,
            p.y as usize,
            p.t,
            own,
            *prev,
            *west,
            *east,
            *south,
            *north,
        )
    }
}

/// `d = 3`: a [`VolumeProgram`] on the 4-D product-of-diamonds
/// honeycomb.
pub struct VolumeCells<'a, P: VolumeProgram>(pub &'a P);

impl<P: VolumeProgram> Honeycomb for VolumeCells<'_, P> {
    const D: u32 = 3;
    const CAP_SLACK: usize = 16;
    type Pt = Pt4;
    type Pillar = (i64, i64, i64);
    type Cell = ClippedDomain3;
    type ShapeKey = (i64, i64, i64, i64, i64, i64, i64, i64, i64, i64, i64);
    type Ops = [Word; 7];

    #[inline]
    fn preds(p: Pt4) -> impl IntoIterator<Item = Pt4> {
        p.preds()
    }
    #[inline]
    fn pillar(p: Pt4) -> (i64, i64, i64) {
        (p.x, p.y, p.z)
    }
    fn node(side: i64, v: usize) -> (i64, i64, i64) {
        let side = side as usize;
        let (x, yz) = (v % side, v / side);
        (x as i64, (yz % side) as i64, (yz / side) as i64)
    }
    #[inline]
    fn at((x, y, z): (i64, i64, i64), t: i64) -> Pt4 {
        Pt4::new(x, y, z, t)
    }
    #[inline]
    fn in_dag(side: i64, t_steps: i64, p: Pt4) -> bool {
        0 <= p.x
            && p.x < side
            && 0 <= p.y
            && p.y < side
            && 0 <= p.z
            && p.z < side
            && 0 <= p.t
            && p.t <= t_steps
    }
    fn top(side: i64, t_steps: i64, h: i64) -> ClippedDomain3 {
        let c = side / 2;
        ClippedDomain3::new(
            Domain3::symmetric(c, c, c, t_steps / 2 + 1, h),
            IBox4::new(0, side, 0, side, 0, side, 1, t_steps + 1),
        )
    }
    fn shape_key(side: i64, t_steps: i64, u: &ClippedDomain3) -> Self::ShapeKey {
        let h = u.cell.h();
        let cl = 2 * h + 2;
        (
            h,
            u.cell.dy.ct - u.cell.dx.ct,
            u.cell.dz.ct - u.cell.dx.ct,
            u.cell.dx.cx.clamp(-cl, cl),
            (side - u.cell.dx.cx).clamp(-cl, cl),
            u.cell.dy.cx.clamp(-cl, cl),
            (side - u.cell.dy.cx).clamp(-cl, cl),
            u.cell.dz.cx.clamp(-cl, cl),
            (side - u.cell.dz.cx).clamp(-cl, cl),
            u.cell.dx.ct.clamp(-cl, cl),
            (t_steps + 1 - u.cell.dx.ct).clamp(-cl, cl),
        )
    }

    #[inline]
    fn h(u: &ClippedDomain3) -> i64 {
        u.cell.h()
    }
    #[inline]
    fn contains(u: &ClippedDomain3, p: Pt4) -> bool {
        u.contains(p)
    }
    #[inline]
    fn for_each_point(u: &ClippedDomain3, f: impl FnMut(Pt4)) {
        u.for_each_point(f)
    }
    fn points_count(u: &ClippedDomain3) -> usize {
        u.points_count() as usize
    }
    fn children(u: &ClippedDomain3) -> Vec<ClippedDomain3> {
        u.children()
    }

    fn m(&self) -> usize {
        self.0.m()
    }
    fn boundary(&self) -> Word {
        self.0.boundary()
    }
    #[inline]
    fn cell(&self, p: Pt4) -> usize {
        self.0.cell(p.x as usize, p.y as usize, p.z as usize, p.t)
    }
    #[inline]
    fn delta(&self, p: Pt4, own: Word, ops: &[Word; 7]) -> Word {
        let [prev, nb @ ..] = *ops;
        self.0
            .delta(p.x as usize, p.y as usize, p.z as usize, p.t, own, prev, nb)
    }
}

/// The recursive uniprocessor executor over the honeycomb `G`.
pub struct CellExec<G: Honeycomb> {
    grid: G,
    side: i64,
    t_steps: i64,
    m: usize,
    pub ram: Hram,
    live: FxHashMap<G::Pt, usize>,
    /// Pillar (mesh node) → state block base (only `m > 1`).
    state: FxHashMap<G::Pillar, usize>,
    space_memo: FxHashMap<G::ShapeKey, usize>,
    pub leaf_h: i64,
    /// Plan-time charge table covering the leaf scratch band (see
    /// `DiamondExec::table`): the execute loop's reads/writes take
    /// their `1 + f(x)` from here, counted in `table_hits`, with scalar
    /// fallback above the table.  Meters stay bit-identical.
    table: CostTable,
}

impl<G: Honeycomb> CellExec<G> {
    /// An executor for `t_steps` steps of the side-`side` mesh, metered
    /// by `access`.
    pub fn new(grid: G, side: i64, access: AccessFn, t_steps: i64, leaf_h: i64) -> Self {
        let m = grid.m();
        // Leaf scratch bound: a radius-h cell has ≤ (2h + 1)^{d+1}
        // points, O(h^d) preboundary slots, and ≤ (2h + 1)^d·m state
        // words.  Capped so degenerate leaf choices cannot balloon the
        // table.
        let h = 2 * leaf_h.max(1) as usize + 1;
        let face = h.pow(G::D);
        let leaf_span = (h * face + 3 * G::D as usize * face + face * m + 8).min(1 << 20);
        CellExec {
            grid,
            side,
            t_steps,
            m,
            ram: Hram::new(access, 0),
            live: FxHashMap::default(),
            state: FxHashMap::default(),
            space_memo: FxHashMap::default(),
            leaf_h: leaf_h.max(1),
            table: CostTable::new(access, leaf_span),
        }
    }

    #[inline]
    fn is_leaf(&self, u: &G::Cell) -> bool {
        let h = G::h(u);
        h <= self.leaf_h || h % 2 == 1
    }

    /// Executed points of `U`, time-major.
    fn exec_points(&self, u: &G::Cell) -> Vec<G::Pt> {
        let mut v = Vec::with_capacity(G::points_count(u));
        G::for_each_point(u, |p| v.push(p));
        v.sort();
        v
    }

    /// The executor's preboundary: dag vertices outside `U` that are
    /// predecessors of a vertex of `U` (computed from the clipped points
    /// to avoid enumerating huge unclipped cells).
    pub fn gamma(&self, u: &G::Cell) -> Vec<G::Pt> {
        let mut out: FxHashSet<G::Pt> = FxHashSet::default();
        G::for_each_point(u, |p| {
            for q in G::preds(p) {
                if G::in_dag(self.side, self.t_steps, q) && !G::contains(u, q) {
                    out.insert(q);
                }
            }
        });
        let mut v: Vec<G::Pt> = out.into_iter().collect();
        v.sort();
        v
    }

    /// Mesh pillars with at least one executed vertex.
    fn pillars(&self, u: &G::Cell) -> Vec<G::Pillar> {
        let mut set: FxHashSet<G::Pillar> = FxHashSet::default();
        G::for_each_point(u, |p| {
            set.insert(G::pillar(p));
        });
        let mut v: Vec<G::Pillar> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Pillars whose state blocks travel with `U`: all of them when
    /// `m > 1`, none when the node state is the value itself.
    fn state_pillars(&self, u: &G::Cell) -> Vec<G::Pillar> {
        if self.m > 1 {
            self.pillars(u)
        } else {
            Vec::new()
        }
    }

    /// Words of pillar state `U` carries.
    fn state_words(&self, u: &G::Cell) -> usize {
        self.state_pillars(u).len() * self.m
    }

    /// Upper bound on values any ancestor can want back: the top two
    /// vertices of every pillar (side exposure beyond the clip edge
    /// points outside the dag; neighbor pillar ranges shift by at most
    /// one per step, so upward exposure is limited to the top two rows).
    fn outbound_cap(&self, u: &G::Cell) -> usize {
        let mut pillars: FxHashMap<G::Pillar, usize> = FxHashMap::default();
        G::for_each_point(u, |p| {
            *pillars.entry(G::pillar(p)).or_insert(0) += 1;
        });
        pillars.values().map(|&len| 2.min(len)).sum::<usize>() + G::CAP_SLACK
    }

    /// The space function `S(U)` of Proposition 2, memoized per shape.
    pub fn space(&mut self, u: &G::Cell) -> usize {
        let key = G::shape_key(self.side, self.t_steps, u);
        if let Some(&s) = self.space_memo.get(&key) {
            return s;
        }
        let s = if self.is_leaf(u) {
            G::points_count(u) + self.gamma(u).len() + self.state_words(u)
        } else {
            let mut zmax = 0usize;
            let mut p_u = 0usize;
            for k in &G::children(u) {
                zmax = zmax.max(self.space(k));
                p_u += self.gamma(k).len() + self.state_words(k);
            }
            zmax + p_u + self.gamma(u).len() + self.outbound_cap(u) + self.state_words(u)
        };
        self.space_memo.insert(key, s);
        s
    }

    fn move_value(
        &mut self,
        q: G::Pt,
        zone: &mut ZoneAlloc,
        from: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let old = *self.live.get(&q).ok_or(SimError::Internal {
            what: "moved value not live",
        })?;
        let new = zone.alloc();
        self.ram.relocate(old, new);
        from.free_if_owned(old);
        self.live.insert(q, new);
        Ok(())
    }

    fn move_state(
        &mut self,
        xy: G::Pillar,
        zone: &mut ZoneAlloc,
        from: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let old = *self.state.get(&xy).ok_or(SimError::Internal {
            what: "moved state block not live",
        })?;
        let new = zone.alloc_block(self.m);
        for c in 0..self.m {
            self.ram.relocate(old + c, new + c);
        }
        from.free_block_if_owned(old, self.m);
        self.state.insert(xy, new);
        Ok(())
    }

    /// Execute `U` with inputs live in `parent_zone`; park `want` (and
    /// all pillar states) back there.
    ///
    /// Bookkeeping invariant violations surface as
    /// [`SimError::Internal`] rather than panicking, so a chaos run can
    /// degrade gracefully.
    pub fn exec(
        &mut self,
        u: &G::Cell,
        want: &FxHashSet<G::Pt>,
        parent_zone: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        if self.is_leaf(u) {
            return self.exec_leaf(u, want, parent_zone);
        }
        let s_u = self.space(u);
        let kids = G::children(u);
        let mut zmax = 0usize;
        for k in &kids {
            zmax = zmax.max(self.space(k));
        }
        let mut zone = ZoneAlloc::new(zmax, s_u - zmax);

        let g_u = self.gamma(u);
        for q in &g_u {
            self.move_value(*q, &mut zone, parent_zone)?;
        }
        let pillars_u = self.state_pillars(u);
        for &xy in &pillars_u {
            self.move_state(xy, &mut zone, parent_zone)?;
        }
        let mut zone_set: FxHashSet<G::Pt> = g_u.into_iter().collect();

        let kid_gammas: Vec<FxHashSet<G::Pt>> = kids
            .iter()
            .map(|k| self.gamma(k).into_iter().collect())
            .collect();
        for (i, kid) in kids.iter().enumerate() {
            let mut want_kid: FxHashSet<G::Pt> = FxHashSet::default();
            let relevant = |q: G::Pt| G::contains(kid, q) || kid_gammas[i].contains(&q);
            for g in kid_gammas.iter().skip(i + 1) {
                for &q in g {
                    if relevant(q) {
                        want_kid.insert(q);
                    }
                }
            }
            for &q in want {
                if relevant(q) {
                    want_kid.insert(q);
                }
            }
            for q in &kid_gammas[i] {
                zone_set.remove(q);
            }
            self.exec(kid, &want_kid, &mut zone)?;
            zone_set.extend(want_kid);
        }

        let mut wanted: Vec<G::Pt> = want.iter().copied().collect();
        wanted.sort();
        for q in wanted {
            if !zone_set.remove(&q) {
                return Err(SimError::Internal {
                    what: "wanted value missing from zone",
                });
            }
            self.move_value(q, parent_zone, &mut zone)?;
        }
        let mut rest: Vec<G::Pt> = zone_set.into_iter().collect();
        rest.sort();
        for q in rest {
            let old = self.live.remove(&q).ok_or(SimError::Internal {
                what: "zone bookkeeping lost a live value",
            })?;
            zone.free_if_owned(old);
        }
        for &xy in &pillars_u {
            self.move_state(xy, parent_zone, &mut zone)?;
        }
        Ok(())
    }

    fn exec_leaf(
        &mut self,
        u: &G::Cell,
        want: &FxHashSet<G::Pt>,
        parent_zone: &mut ZoneAlloc,
    ) -> Result<(), SimError> {
        let pts = self.exec_points(u);
        if pts.is_empty() {
            return Ok(());
        }
        let g_u = self.gamma(u);
        let pillars_u = self.state_pillars(u);
        let n_pts = pts.len();
        let mut slot: FxHashMap<G::Pt, usize> =
            FxHashMap::with_capacity_and_hasher(n_pts + g_u.len(), Default::default());
        for (i, p) in pts.iter().enumerate() {
            slot.insert(*p, i);
        }
        for (i, q) in g_u.iter().enumerate() {
            let dst = n_pts + i;
            let old = *self.live.get(q).ok_or(SimError::Internal {
                what: "preboundary value not live at leaf ingest",
            })?;
            self.ram.relocate(old, dst);
            parent_zone.free_if_owned(old);
            self.live.insert(*q, dst);
            slot.insert(*q, dst);
        }
        let mut st_base: FxHashMap<G::Pillar, usize> = FxHashMap::default();
        let base0 = n_pts + g_u.len();
        for (i, &xy) in pillars_u.iter().enumerate() {
            let dst = base0 + i * self.m;
            let old = *self.state.get(&xy).ok_or(SimError::Internal {
                what: "state block not live at leaf ingest",
            })?;
            for c in 0..self.m {
                self.ram.relocate(old + c, dst + c);
            }
            parent_zone.free_block_if_owned(old, self.m);
            st_base.insert(xy, dst);
        }

        let bd = self.grid.boundary();
        for (i, &p) in pts.iter().enumerate() {
            let mut ops = G::Ops::default();
            for (o, q) in ops.as_mut().iter_mut().zip(G::preds(p)) {
                *o = if G::in_dag(self.side, self.t_steps, q) {
                    let a = *slot.get(&q).ok_or(SimError::Internal {
                        what: "operand unavailable in leaf",
                    })?;
                    self.ram.read_via(&self.table, a)
                } else {
                    bd
                };
            }
            let own = if self.m > 1 {
                let c = self.grid.cell(p);
                self.ram.read_via(&self.table, st_base[&G::pillar(p)] + c)
            } else {
                ops.as_ref()[0]
            };
            let out = self.grid.delta(p, own, &ops);
            self.ram.compute();
            if self.m > 1 {
                let c = self.grid.cell(p);
                self.ram
                    .write_via(&self.table, st_base[&G::pillar(p)] + c, out);
            }
            self.ram.write_via(&self.table, i, out);
            self.live.insert(p, i);
        }

        let mut wanted: Vec<G::Pt> = want.iter().copied().collect();
        wanted.sort();
        for q in wanted {
            let old = *self.live.get(&q).ok_or(SimError::Internal {
                what: "wanted value not present in leaf",
            })?;
            let new = parent_zone.alloc();
            self.ram.relocate(old, new);
            self.live.insert(q, new);
        }
        for p in pts.iter().chain(&g_u) {
            if !want.contains(p) {
                self.live.remove(p);
            }
        }
        for &xy in &pillars_u {
            let base = st_base[&xy];
            let new = parent_zone.alloc_block(self.m);
            for c in 0..self.m {
                self.ram.relocate(base + c, new + c);
            }
            self.state.insert(xy, new);
        }
        Ok(())
    }

    /// Seed a live value at an explicit address (multiprocessor engine).
    pub fn seed_value(&mut self, p: G::Pt, addr: usize) {
        self.live.insert(p, addr);
    }

    /// Seed a pillar's state-block base address.
    pub fn seed_state(&mut self, xy: G::Pillar, addr: usize) {
        self.state.insert(xy, addr);
    }

    /// Address of a live value, if present.
    pub fn value_addr(&self, p: G::Pt) -> Option<usize> {
        self.live.get(&p).copied()
    }

    /// Address of a pillar's state block, if present.
    pub fn state_addr(&self, xy: G::Pillar) -> Option<usize> {
        self.state.get(&xy).copied()
    }

    /// Drop all live values and states (between cell executions).
    pub fn clear_seeds(&mut self) {
        self.live.clear();
        self.state.clear();
    }

    /// Run the whole simulation; returns `(final_mem, final_values)` in
    /// the guest's node-major layout (node index `(z·side + y)·side + x`).
    pub fn run(&mut self, init: &[Word]) -> Result<(Vec<Word>, Vec<Word>), SimError> {
        let n = (self.side as usize).pow(G::D);
        let m = self.m;
        assert_eq!(init.len(), n * m);
        let side = self.side;
        let at = |v: usize, t: i64| G::at(G::node(side, v), t);
        if self.t_steps == 0 {
            let values = (0..n)
                .map(|v| init[v * m + self.grid.cell(at(v, 0))])
                .collect();
            return Ok((init.to_vec(), values));
        }

        let h_top = ((self.side + self.t_steps + 4) as u64).next_power_of_two() as i64;
        let top = G::top(self.side, self.t_steps, h_top);
        let s_top = self.space(&top);
        let zone_cap = self.gamma(&top).len() + m * n + n + 64;
        let mut driver_zone = ZoneAlloc::new(s_top, zone_cap);
        let image = s_top + zone_cap;

        for (i, w) in init.iter().enumerate() {
            self.ram.poke(image + i, *w);
        }
        for v in 0..n {
            let p = at(v, 0);
            self.live.insert(p, image + v * m + self.grid.cell(p));
            if m > 1 {
                self.state.insert(G::pillar(p), image + v * m);
            }
        }

        let want: FxHashSet<G::Pt> = (0..n).map(|v| at(v, self.t_steps)).collect();
        self.exec(&top, &want, &mut driver_zone)?;

        let mut values = vec![0 as Word; n];
        for (v, value) in values.iter_mut().enumerate() {
            let addr = *self
                .live
                .get(&at(v, self.t_steps))
                .ok_or(SimError::Internal {
                    what: "final value not live after top-level exec",
                })?;
            *value = self.ram.peek(addr);
            if m == 1 {
                self.ram.relocate(addr, image + v);
            }
        }
        if m > 1 {
            for v in 0..n {
                let old = *self
                    .state
                    .get(&G::node(side, v))
                    .ok_or(SimError::Internal {
                        what: "final state block not live after top-level exec",
                    })?;
                let dst = image + v * m;
                if old != dst {
                    for c in 0..m {
                        self.ram.relocate(old + c, dst + c);
                    }
                }
            }
        }
        let mem = (0..n * m).map(|i| self.ram.peek(image + i)).collect();
        Ok((mem, values))
    }
}
